"""Trace files: the bytes written, the round trip, and line-exact refusals."""
import io
import json

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
    out += [line("event", dict(zip(("step", "ev", *ev._fields[2:]), ev)))
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


def synthetic(records):
    """A trace of ``records`` rows and as many events of every kind, with
    payloads that hold the text and the nesting a record boundary has."""
    rows = [(s, s % 3, s % 2 - 1, "act" if s % 2 else "", 1 + s % 4,
             s / 7, 0.5) for s in range(records)]
    E = tr.EVENTS
    payloads = [None, '},{"step":', "é\"\\\n", [{"step": 1}, {"step": 2}],
                {"step": 3, "a": [1.25, -2]}]
    makers = [
        lambda s: E["clock"](s, "clock", t=s, g_region=s // 5,
                             locals=(s, s + 1), regions=(0, 1)),
        lambda s: E["rc"](s, "rc", pid=1, new_region=2, changes=(
            ("free", None, "c", 1, 2, 3, False),
            ("dep", "pend", 7, 1, 2, 3, True))),
        lambda s: E["send"](s, "send", mid=s, src=0, dst=1, msg_kind="REQ",
                            cells={"stamp": 3}, vars={"v": [1, 2]},
                            send_region_local=1, send_region_global=1,
                            arrival_step=s + 3, drop_step=None),
        lambda s: E["mark"](s, "mark", mark_kind="m", pid=0,
                            data=payloads[s % len(payloads)]),
        lambda s: E["var"](s, "var", pid=2, name="x",
                           value=payloads[(s + 1) % len(payloads)]),
        lambda s: E["fault"](s, "fault", fault_kind="overwrite_free", pid=None,
                             target="clk", detail={"new": 5}, applied=True),
    ]
    events = [makers[s % len(makers)](s) for s in range(records)]
    return tr.Trace(meta={"n": 3, "name": "synthetic"}, rows=rows,
                    events=events, snapshots={0: {"label": "start"},
                                              records: {"label": "final"}},
                    summary={"steps": records})


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
               for ev in trace.events)
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
