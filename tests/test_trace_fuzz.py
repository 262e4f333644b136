"""Doctored traces of the shipped scenarios: every mutant is refused with
exit 2, fails a check with exit 1, or passes; none crashes.

Each mutant changes one thing in a kernel trace's JSON lines: it drops a
field or a list item, gives a value another JSON type, pushes a value out
of range, or replaces an event line, or a cell or message row of a snapshot
or a fault record, with another one of the same trace. The verdict is
computed as ``regionbound check`` computes it: load the lines, match the
trace to its scenario, then ``analysis.check``. A second test mutates only
the fault lines of the two faulted scenarios, whose records carry the
edited process or message row.
"""
import functools
import io
import json

from hypothesis import given, settings, strategies as st

from regionbound import analysis, cli, kernel, scenario
from regionbound import trace as tr
from regionbound.errors import ConfigError, TraceFormatError

SCENARIOS = (
    "scenarios/logical_clocks_drift.json",
    "scenarios/mutex_fault_recovery.json",
    "scenarios/consensus_clean.json",
    "scenarios/diffusing_ring_faults.json",
)

# one value of every JSON type, to retype a field with
OTHER_TYPES = (None, True, 7, 2.5, "x", [], [1], {}, {"x": 1})


@functools.lru_cache(maxsize=None)
def kernel_trace(path):
    """The scenario, its trace's lines, their indices by record tag (and,
    for events, by kind), and every message and cell row of its snapshots
    and fault records. The unmutated lines must pass, or no verdict on a
    mutant says anything."""
    sc = scenario.load(path)
    buf = io.StringIO()
    kernel.run(sc.cfg, sc.seed).write_jsonl(buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert exit_code(sc, lines) == cli.EXIT_OK
    recs = [json.loads(line) for line in lines]
    groups = {"event": {}}
    for i, r in enumerate(recs):
        if r["rec"] == "event":
            groups["event"].setdefault(r["data"]["ev"], []).append(i)
        else:
            groups.setdefault(r["rec"], []).append(i)
    rows = []
    for r in recs:
        if r["rec"] == "snapshot":
            state = r["data"]["state"]
            rows += state["in_flight"] + sum(state["inboxes"], [])
            for proc in state["procs"]:
                rows += sum(proc["colls"].values(), [])
        elif r["rec"] == "event" and r["data"]["ev"] == "fault":
            edit = r["data"]["detail"]
            rows += [edit["msg"]] if "msg" in edit else []
            if "proc" in edit:
                rows += sum(edit["proc"]["colls"].values(), [])
    return sc, tuple(lines), groups, tuple(rows)


def exit_code(sc, lines) -> int:
    try:
        trace = tr.Trace.read_jsonl(lines)
        cli._match_trace(sc, trace)
        report = analysis.check(sc, trace)
    except (ConfigError, TraceFormatError):
        return cli.EXIT_CONFIG
    return cli.EXIT_OK if report.ok else cli.EXIT_FAIL


def out_of_range(val):
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        return None
    return "zz" if isinstance(val, str) else [-1 - val, val + 99, 10 ** 6]


def mutate(draw, lines, groups, rows) -> list:
    """``lines`` with one change, in a line of a record tag drawn first (and,
    for an event, of a kind drawn next), so that rare records are hit."""
    lines = list(lines)
    tag = draw(st.sampled_from(sorted(groups)))
    if tag == "event":
        events = groups["event"]
        i = draw(st.sampled_from(events[draw(st.sampled_from(sorted(events)))]))
        if not draw(st.integers(0, 3)):
            lines[i] = lines[draw(st.sampled_from(sum(events.values(), [])))]
            return lines
    else:
        i = draw(st.sampled_from(groups[tag]))
    rec = json.loads(lines[i])
    # walk down from the record's data to one container and a key in it
    box, key = rec, "data"
    for _ in range(6):
        val = box[key]
        keys = (list(val) if isinstance(val, dict)
                else range(len(val)) if isinstance(val, list) else [])
        if not keys or not draw(st.integers(0, 3)):
            break
        box, key = val, draw(st.sampled_from(keys))
    val = box[key]
    op = draw(st.sampled_from(("drop", "retype", "range", "row")))
    if op == "drop" and box is not rec:
        del box[key]
    elif op == "range" and out_of_range(val) is not None:
        new = out_of_range(val)
        box[key] = draw(st.sampled_from(new)) if isinstance(new, list) else new
    elif op == "row" and isinstance(box, list) and rows:
        box[key] = draw(st.sampled_from(rows))
    else:
        box[key] = draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(val)]))
    lines[i] = json.dumps(rec, separators=(",", ":")) + "\n"
    return lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SCENARIOS), st.data())
def test_a_doctored_trace_exits_0_1_or_2_and_never_crashes(path, data):
    sc, lines, groups, rows = kernel_trace(path)
    mutant = mutate(data.draw, lines, groups, rows)
    assert exit_code(sc, mutant) in (cli.EXIT_OK, cli.EXIT_FAIL,
                                     cli.EXIT_CONFIG)


FAULTED = (SCENARIOS[1], SCENARIOS[3])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FAULTED), st.data())
def test_a_doctored_fault_record_exits_0_1_or_2_and_never_crashes(path, data):
    sc, lines, groups, rows = kernel_trace(path)
    faults_only = {"event": {"fault": groups["event"]["fault"]}}
    mutant = mutate(data.draw, lines, faults_only, rows)
    assert exit_code(sc, mutant) in (cli.EXIT_OK, cli.EXIT_FAIL,
                                     cli.EXIT_CONFIG)
