"""Trace files: the bytes written, the round trip, and line-exact refusals."""
import gc
import io
import json
from itertools import cycle

import pytest

from regionbound import kernel, scenario
from regionbound import trace as tr
from regionbound.errors import TraceFormatError

SCENARIOS = (
    "scenarios/logical_clocks_drift.json",
    "scenarios/mutex_fault_recovery.json",
    "scenarios/consensus_clean.json",
    "scenarios/diffusing_ring_faults.json",
)
ROW_KEYS = ("step", "acting", "action_idx", "action", "d", "u1", "u2")
CHUNK = tr._CHUNK_LINES


def reference_text(trace):
    """The file form, one json.dumps per line."""
    def line(tag, data):
        return json.dumps({"rec": tag, "data": data},
                          separators=(",", ":")) + "\n"
    out = [line("meta", trace.meta)]
    out += [line("row", dict(zip(ROW_KEYS, row))) for row in trace.rows]
    out += [line("event", dict(zip(("step", "ev",
                                    *tr.EVENTS[ev[1]]._fields[2:]), ev)))
            for ev in trace.events]
    out += [line("snapshot", {"step": step, "state": trace.snapshots[step]})
            for step in sorted(trace.snapshots)]
    out.append(line("summary", trace.summary))
    return "".join(out)


class WriteOnly:
    """A sink with nothing but ``write``."""
    __slots__ = ("parts",)

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


def written(trace):
    sink = WriteOnly()
    trace.write_jsonl(sink)
    assert all(part.count("\n") <= CHUNK for part in sink.parts)
    return "".join(sink.parts)


# the edge values of each declared type, which the fields take in turn
INTS = (0, 7, -1, -(2 ** 63) - 1, 2 ** 64, 3 ** 90)
DRAWS = (5e-324, 1e-07, 0.1, -0.0, 3, 0.5)  # u1 and u2: floats and an int
OPT_INTS = (None, 3, 2 ** 64, -1)
TEXTS = ("", "act", "é☃\U0001f600", '"\\/\n\t\x00\x1f', '},{"step":',
         "\u2028")
PAYLOADS = (None, True, -(2 ** 70), 5e-324, '},{"step":', "é\"\\\n",
            [{"step": 1}, {"step": 2}], {"step": 3, "a": [1.25, -2]})


def pick(values, s):
    return values[s % len(values)]


def edge_fields(kind, s):
    """The fields of a ``kind`` event at step ``s``, each an edge value of
    its declared type; an optional field is None at some steps, and a list
    field empty at some."""
    def i(k):
        return pick(INTS, s + k)

    def t(k):
        return pick(TEXTS, s + k)

    def o(k):
        return pick(OPT_INTS, s + k)

    def p(k):
        return pick(PAYLOADS, s + k)
    yes = bool(s % 2)
    ints = INTS[:s % (len(INTS) + 1)]
    changes = ((t(0), None, t(1), i(0), i(1), i(2), yes),
               (t(2), t(3), i(3), i(4), i(5), i(6), not yes))[:s % 3]
    return {
        "clock": lambda: dict(t=i(0), g_region=i(1), locals=ints,
                              regions=ints[::-1]),
        "rc": lambda: dict(pid=i(0), new_region=i(1), changes=changes),
        "fault": lambda: dict(fault_kind=t(0), pid=o(0), target=p(0),
                              detail={t(1): p(1)}, applied=yes),
        "arrive": lambda: dict(mid=i(0)),
        "drop": lambda: dict(mid=i(0), reason=t(0)),
        "send": lambda: dict(mid=i(0), src=i(1), dst=i(2), msg_kind=t(0),
                             cells={t(1): i(3)}, vars={t(2): p(0)},
                             send_region_global=i(4), arrival_step=o(0),
                             drop_step=o(1)),
        "consume": lambda: dict(mid=i(0), pid=i(1)),
        "wfree": lambda: dict(pid=i(0), name=t(0), residue=i(1), lifted=i(2),
                              corrected=yes),
        "dcreate": lambda: dict(pid=i(0), coll=t(0), cid=i(1), residue=i(2),
                                lifted=i(3), created_local=i(4), tag=p(0),
                                corrected=yes),
        "dremove": lambda: dict(pid=i(0), coll=t(0), cid=i(1), reason=t(1)),
        "var": lambda: dict(pid=i(0), name=t(0), value=p(0)),
        "spend": lambda: dict(family=t(0), amount=i(0)),
        "mark": lambda: dict(mark_kind=t(0), pid=i(0), data=p(0)),
    }[kind]()


def synthetic(records):
    """A trace of ``records`` rows and as many events, of every kind in
    turn, whose fields take the edge values of their declared types."""
    rows = [(s, pick(INTS, s), pick(INTS, s + 1), pick(TEXTS, s),
             pick(INTS, s + 2), pick(DRAWS, s), pick(DRAWS, s + 1))
            for s in range(records)]
    kinds = list(tr.EVENTS)
    events = [tuple(tr.EVENTS[kind](s, kind, **edge_fields(kind, s)))
              for s, kind in zip(range(records), cycle(kinds))]
    return tr.Trace(meta={"n": 3, "name": "synthétic\n"}, rows=rows,
                    events=events, snapshots={0: {"label": "start"},
                                              records: {"label": "final"}},
                    summary={"steps": records, "u": [5e-324, -0.0]})


def kernel_trace(path, seed=3):
    sc = scenario.load(path)
    return kernel.run(sc.cfg, seed)


TRACES = [pytest.param(lambda r=r: synthetic(r), id=f"synthetic-{r}")
          for r in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)]
TRACES += [pytest.param(lambda p=p: kernel_trace(p), id=p.split("/")[-1])
           for p in SCENARIOS]


@pytest.mark.parametrize("make", TRACES)
def test_write_only_sink_gets_the_reference_bytes(make):
    trace = make()
    assert written(trace) == reference_text(trace)


def test_payload_with_a_record_boundary_inside_still_matches():
    trace = synthetic(CHUNK + 5)
    assert any(ev.kind == "mark" and isinstance(ev.data, list)
               for ev in map(tr.named, trace.events))
    assert written(trace) == reference_text(trace)


@pytest.mark.parametrize("make", TRACES)
def test_a_trace_read_back_equals_the_trace_written(make):
    trace = make()
    assert tr.Trace.read_jsonl(io.StringIO(written(trace))) == trace


def test_save_and_load_round_trip(tmp_path):
    trace = kernel_trace(SCENARIOS[1])
    path = str(tmp_path / "t.jsonl")
    tr.save(trace, path)
    with open(path, encoding="utf-8") as fp:
        assert fp.read() == reference_text(trace)
    assert tr.load(path) == trace


# the kinds whose fields hold only atomic values, or tuples of them
ATOMIC_KINDS = (tr.EV_CLOCK, tr.EV_ARRIVE, tr.EV_CONSUME, tr.EV_WFREE,
                tr.EV_SPEND, tr.EV_DROP, tr.EV_DREMOVE)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.split("/")[-1])
def test_events_are_plain_tuples_the_cycle_collector_lets_go(path):
    """Every event the kernel records and every event a trace file loads is
    a plain tuple equal, field by field, to its kind's named form. The
    cycle collector stops tracking an event of a kind holding only atomic
    values, so it does not walk it again: at the first collection that sees
    it, or for a clock event, whose clocks are tuples, at the next one."""
    trace = kernel_trace(path)
    loaded = tr.Trace.read_jsonl(io.StringIO(written(trace)))
    gc.collect()  # lets go of the clocks' tuples, placed after their events
    gc.collect()
    for events in (trace.events, loaded.events):
        assert all(type(ev) is tuple for ev in events)
        for ev in events:
            view = tr.named(ev)
            assert [getattr(view, fld) for fld in view._fields] == list(ev)
        atomic = [ev for ev in events if ev[1] in ATOMIC_KINDS]
        assert {ev[1] for ev in atomic} >= {tr.EV_CLOCK, tr.EV_WFREE}
        assert [ev for ev in atomic if gc.is_tracked(ev)] == []


def test_rc_changes_load_back_as_rc_change_rows(tmp_path):
    """Both sides hold an rc event's changes as plain tuples of the fields
    RcChange declares, in order, and a reloaded row equals the one
    written."""
    trace = kernel_trace(SCENARIOS[1])
    path = str(tmp_path / "t.jsonl")
    tr.save(trace, path)
    written_rows, loaded_rows = (
        [ch for _, _, _, _, changes in t.iter_events(tr.EV_RC)
         for ch in changes]
        for t in (trace, tr.load(path)))
    assert {tr.RcChange._make(ch).slot for ch in written_rows} == {"free",
                                                                  "dep"}
    assert loaded_rows == written_rows
    assert all(type(ch) is tuple and len(ch) == len(tr.RcChange._fields)
               for ch in written_rows + loaded_rows)


def lines_of(trace):
    return written(trace).splitlines(keepends=True)


def refusal(lines):
    with pytest.raises(TraceFormatError) as err:
        tr.Trace.read_jsonl(io.StringIO("".join(lines)))
    return str(err.value)


def test_blank_lines_are_skipped_and_later_lines_keep_their_numbers():
    trace = synthetic(20)
    lines = lines_of(trace)
    padded = lines[:3] + ["\n", "   \n"] + lines[3:10] + ["\t\n"] + lines[10:]
    assert tr.Trace.read_jsonl(io.StringIO("".join(padded))) == trace
    bad = padded[:15] + ["{nope\n"] + padded[15:]
    assert refusal(bad).startswith("line 16: not valid JSON")


def test_two_values_on_one_line_are_refused_with_that_line():
    lines = lines_of(synthetic(20))
    bad = lines[:6] + [lines[6].rstrip("\n") + " " + lines[7]] + lines[8:]
    assert refusal(bad).startswith("line 7: not valid JSON: Extra data")
    bad = lines[:6] + [lines[6].rstrip("\n") + lines[7]] + lines[8:]
    assert refusal(bad).startswith("line 7: not valid JSON: Extra data")


def test_a_value_split_across_two_lines_is_refused_at_its_first_line():
    lines = lines_of(synthetic(20))
    cut = lines[9].index('"data":') + 7
    bad = lines[:9] + [lines[9][:cut] + "\n", lines[9][cut:]] + lines[10:]
    assert refusal(bad).startswith("line 10: not valid JSON")


def test_a_malformed_line_deep_in_a_kernel_trace_names_its_line():
    lines = lines_of(kernel_trace(SCENARIOS[1]))
    deep = len(lines) - 40
    assert deep > 3 * CHUNK
    bad = lines[:deep] + [lines[deep][:-3] + "\n"] + lines[deep + 1:]
    assert refusal(bad).startswith(f"line {deep + 1}: not valid JSON")
    bad = lines[:deep] + ['{"rec":"event","data":{"step":1,"ev":"zz"}}\n'] \
        + lines[deep + 1:]
    assert refusal(bad) == f"line {deep + 1}: unknown event kind 'zz'"


def test_the_synthetic_trace_holds_every_kind_and_edge_value():
    trace = synthetic(2 * CHUNK + 3)
    assert {ev[1] for ev in trace.events} == set(tr.EVENTS)
    assert {repr(row[5]) for row in trace.rows} == set(map(repr, DRAWS))
    for kind in tr.EVENTS:
        evs = list(trace.iter_events(kind))
        for fld, t in tr.EVENTS[kind].types.items():
            vals = [getattr(tr.named(ev), fld) for ev in evs]
            if t == tr._OPT_INT or t is tr.OPT_PID:
                assert None in vals, (kind, fld)
            elif t is tr._INTS:
                assert () in vals, (kind, fld)
            elif t is str or isinstance(t, tr.Name) and t.type is str:
                assert set(TEXTS) <= set(vals), (kind, fld)
            elif t is int or isinstance(t, tr.Name) and t.type is int:
                assert set(INTS) <= set(vals), (kind, fld)


# values to put where they do not belong; a list field also gets a list
# holding one that is not an item of it
WRONG = (2.5, 2.0, True, False, None, "5", "true", "null", 1, 0, {"a": 1})


def misplaced(types):
    """Each (field, value) pair where the value is not of the field's
    declared type; fields of any JSON value are left out."""
    for fld, t in types.items():
        if t is object:
            continue
        admits = tr._admits(t)
        wrong = [w for w in WRONG if type(w) not in admits]
        if isinstance(t, tr._List):
            wrong += [[w] for w in WRONG if t.load([w]) is None]
        for w in wrong:
            yield fld, w


def test_a_value_of_another_type_is_never_written_as_its_declared_type():
    """Writing raises TypeError, or gives a line the loader refuses."""
    base = synthetic(len(tr.EVENTS))
    cases = [(0, dict(zip(ROW_KEYS, base.rows[0])), fld, w)
             for fld, w in misplaced({"step": int, **tr._ROW_TYPES})]
    for s, ev in enumerate(base.events):
        cases += [(s, ev, fld, w) for fld, w in misplaced(
            {"step": int, **tr.EVENTS[ev[1]].types})]
    assert len(cases) > 300
    for s, rec, fld, w in cases:
        trace = synthetic(len(tr.EVENTS))
        if isinstance(rec, dict):
            trace.rows[s] = tuple({**rec, fld: w}.values())
        else:
            trace.events[s] = tuple(tr.named(rec)._replace(**{fld: w}))
        try:
            lines = lines_of(trace)
        except TypeError:
            continue
        with pytest.raises(TraceFormatError):
            tr.Trace.read_jsonl(lines)


def row_line(lines, step):
    head = f'{{"rec":"row","data":{{"step":{step},'
    return next(i for i, line in enumerate(lines) if line.startswith(head))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_number_is_not_valid_json(constant):
    lines = lines_of(synthetic(20))
    at = row_line(lines, 5)
    rec = json.loads(lines[at])
    rec["data"]["u1"] = float(constant.lower().replace("infinity", "inf"))
    bad = lines[:at] + [json.dumps(rec, separators=(",", ":")) + "\n"] \
        + lines[at + 1:]
    assert f'"u1":{constant},' in bad[at]
    assert refusal(bad) == (f"line {at + 1}: not valid JSON: {constant} "
                            "is not a JSON number")
    mark = ('{"rec":"event","data":{"step":3,"ev":"mark","mark_kind":"m",'
            f'"pid":0,"data":{{"x":[1,{constant}]}}}}}}\n')
    assert refusal(lines[:at] + [mark] + lines[at + 1:]) == (
        f"line {at + 1}: not valid JSON: {constant} is not a JSON number")


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_canon_refuses_a_number_that_is_not_json(value):
    """A run stops at the value instead of writing a trace that its own
    check refuses."""
    for payload in (value, [1, value], {"x": (value,)}, {"y": {value}}):
        with pytest.raises(TraceFormatError, match="cannot be recorded in a trace"):
            tr.canon(payload)
    assert tr.canon([0.5, -2.0, 1e308]) == [0.5, -2.0, 1e308]


def test_a_number_too_long_to_read_is_refused_with_its_line():
    lines = lines_of(synthetic(20))
    at = row_line(lines, 5)
    bad = lines[:at] + [lines[at].replace('"d":', '"d":' + "9" * 5000, 1)] \
        + lines[at + 1:]
    assert refusal(bad).startswith(f"line {at + 1}: not valid JSON: Exceeds")


def test_a_second_meta_or_summary_record_is_refused():
    lines = lines_of(synthetic(20))
    assert refusal(lines[:5] + lines[:1] + lines[5:]) == (
        "line 6: a second meta record")
    assert refusal(lines + lines[-1:]) == (
        f"line {len(lines) + 1}: a second summary record")


def test_a_second_snapshot_of_a_step_is_refused():
    trace = synthetic(20)
    lines = lines_of(trace)
    at = next(i for i, line in enumerate(lines)
              if line.startswith('{"rec":"snapshot"'))
    forged = lines[at].replace('"start"', '"forged"')
    assert tr.Trace.read_jsonl(lines[:at] + [forged] + lines[at + 1:]) \
        .snapshots[0] == {"label": "forged"}
    assert refusal(lines[:at] + [forged] + lines[at:]) == (
        f"line {at + 2}: a second snapshot at step 0")
