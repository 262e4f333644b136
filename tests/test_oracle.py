"""Replay checks: the plain-integer reference must agree with recorded runs."""
import copy
import io

import pytest

from regionbound import analysis, scenario
from regionbound import trace as tr
from regionbound.oracle import OracleDivergence, Replayer

from conftest import build_scenario, run_scenario, scenario_doc


def replay(sc, trace, start=0):
    return Replayer(sc.prog, trace, start).run()


def test_clean_runs_replay_end_to_end(any_protocol):
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    assert replay(sc, trace) == sc.cfg.total_steps


def test_parsed_trace_replays_like_the_original():
    sc = build_scenario("mutual_exclusion")
    trace = run_scenario(sc)
    buf = io.StringIO()
    trace.write_jsonl(buf)
    again = tr.Trace.read_jsonl(io.StringIO(buf.getvalue()))
    assert replay(sc, again) == sc.cfg.total_steps


def test_tampered_event_field_is_caught():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    doctored = copy.deepcopy(trace)
    for i, ev in enumerate(map(tr.named, doctored.events)):
        if ev.kind == tr.EV_WFREE:
            doctored.events[i] = tuple(ev._replace(residue=ev.residue + 1))
            break
    else:
        pytest.fail("run recorded no free-counter writes")
    with pytest.raises(OracleDivergence) as exc:
        replay(sc, doctored)
    assert "recorded event" in str(exc.value)


def test_a_divergence_names_the_first_field_that_differs():
    """A recorded event that differs from the reference's in its residue
    prints both events by their declarations, then the residue field with
    both values."""
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    doctored = copy.deepcopy(trace)
    i = next(i for i, ev in enumerate(trace.events) if ev[1] == tr.EV_WFREE)
    want = tr.named(trace.events[i])
    got = want._replace(residue=want.residue + 1)
    doctored.events[i] = tuple(got)
    with pytest.raises(OracleDivergence) as exc:
        replay(sc, doctored)
    assert exc.value.step == want.step
    assert exc.value.detail == (
        f"recorded event {got!r} != reference {want!r}; field 'residue': "
        f"recorded {got.residue}, reference {want.residue}")


def test_deleted_event_is_caught():
    sc = build_scenario("diffusing")
    trace = run_scenario(sc)
    doctored = copy.deepcopy(trace)
    idx = next(i for i, ev in enumerate(doctored.events)
               if ev[1] == tr.EV_SEND)
    del doctored.events[idx]
    with pytest.raises(OracleDivergence):
        replay(sc, doctored)


def test_an_event_recorded_under_the_next_step_is_caught():
    sc = build_scenario("mutual_exclusion")
    doctored = copy.deepcopy(run_scenario(sc))
    idx = next(i for i, ev in enumerate(doctored.events)
               if ev[1] == tr.EV_CONSUME)
    step, *fields = doctored.events[idx]
    doctored.events[idx] = (step + 1, *fields)
    with pytest.raises(OracleDivergence, match="records no event") as exc:
        replay(sc, doctored)
    assert exc.value.step == step


def test_an_event_repeated_at_the_end_of_its_step_is_caught():
    sc = build_scenario("mutual_exclusion")
    doctored = copy.deepcopy(run_scenario(sc))
    events = doctored.events
    idx = next(i for i, ev in enumerate(events)
               if ev[1] == tr.EV_SEND and events[i + 1][0] != ev[0])
    events.insert(idx + 1, events[idx])
    with pytest.raises(OracleDivergence, match="extra event") as exc:
        replay(sc, doctored)
    assert exc.value.step == events[idx][0]


def test_tampered_snapshot_is_caught():
    sc = build_scenario("vector_clocks")
    trace = run_scenario(sc)
    doctored = copy.deepcopy(trace)
    final = doctored.snapshots[sc.cfg.total_steps]
    name, res = next(iter(final["procs"][0]["free"].items()))
    final["procs"][0]["free"][name] = res + 1
    with pytest.raises(OracleDivergence) as exc:
        replay(sc, doctored)
    assert exc.value.step == sc.cfg.total_steps


@pytest.mark.parametrize("tamper", [
    lambda s: s["budgets"].update({k: v + 1 for k, v in s["budgets"].items()}),
    lambda s: s.update(next_mid=s["next_mid"] + 1),
    lambda s: s["procs"][-1]["vars"].update(extra=1),
    lambda s: s["inboxes"].append([]),
    lambda s: s["in_flight"].append(["not a message"]),
], ids=["budgets", "next_mid", "vars", "inbox-count", "in-flight"])
def test_every_snapshot_part_is_compared(tamper):
    sc = build_scenario("vector_clocks")
    doctored = copy.deepcopy(run_scenario(sc))
    tamper(doctored.snapshots[sc.cfg.total_steps])
    with pytest.raises(OracleDivergence) as exc:
        replay(sc, doctored)
    assert exc.value.step == sc.cfg.total_steps


@pytest.mark.parametrize("field,value,msg", [
    ("d", 0, "row draws"), ("d", 4, "row draws"), ("u1", 1.0, "row draws"),
    ("u2", -0.25, "row draws"), ("acting", "repeat", "twice in the block"),
])
def test_schedule_the_kernel_cannot_draw_is_caught(field, value, msg):
    sc = build_scenario("logical_clocks")  # n = 4, maxinc 3
    doctored = copy.deepcopy(run_scenario(sc))
    at = 2 * sc.n + 1
    keys = ("step", "acting", "action_idx", "action", "d", "u1", "u2")
    row = dict(zip(keys, doctored.rows[at]))
    row[field] = doctored.rows[at - 1][1] if value == "repeat" else value
    doctored.rows[at] = tuple(row.values())
    with pytest.raises(OracleDivergence, match=msg) as exc:
        replay(sc, doctored)
    assert exc.value.step == at


@pytest.mark.parametrize("tamper", [
    lambda ev: ev._replace(t=ev.t + 1),
    lambda ev: ev._replace(g_region=ev.g_region + 1),
    lambda ev: ev._replace(regions=(*ev.regions[:-1], ev.regions[-1] + 1)),
], ids=["t", "g_region", "regions"])
def test_a_clock_record_at_odds_with_itself_is_caught(tamper):
    """Each tick's ``clock`` record must follow the last one and agree with
    its own local clocks; a doctored field is caught at its step."""
    sc = build_scenario("logical_clocks")
    doctored = copy.deepcopy(run_scenario(sc))
    idx = [i for i, ev in enumerate(doctored.events)
           if ev[1] == tr.EV_CLOCK][2]
    doctored.events[idx] = tuple(tamper(tr.named(doctored.events[idx])))
    with pytest.raises(OracleDivergence,
                       match="internally inconsistent") as exc:
        replay(sc, doctored)
    assert exc.value.step == doctored.events[idx][0]


def test_suffix_replay_knows_who_acted_earlier_in_its_block():
    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [{"when_kind": "region", "when": 10,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 0, "value": 7}],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    start = analysis.snapshot_step_for_region(
        trace, sc.derived["boundary_region"])
    assert start % sc.n != 0, "pick a scenario whose suffix starts mid-block"
    doctored = copy.deepcopy(trace)
    row = list(doctored.rows[start])
    row[1] = doctored.rows[start - 1][1]
    doctored.rows[start] = tuple(row)
    with pytest.raises(OracleDivergence, match="twice in the block"):
        replay(sc, doctored, start=start)


def test_fault_inside_the_segment_diverges():
    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [{"when_kind": "region", "when": 10,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 0, "value": 7}],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    assert trace.has_faults()
    with pytest.raises(OracleDivergence) as exc:
        replay(sc, trace)
    assert "fault" in str(exc.value)


def _fault_at(trace, step: int) -> None:
    """Record a fault at ``step`` in ``trace``, after the events recorded at
    ``step`` and before any later one."""
    at = sum(ev[0] <= step for ev in trace.events)
    trace.events.insert(at, (step, tr.EV_FAULT, "overwrite_free", 0, "cl", {},
                             False))


@pytest.mark.parametrize("offset,verdict", [
    (-1, "PASS suffix-replay: suffix from step {start} (region {region}), "
         "{steps} steps match the unbounded reference"),
    (0, "FAIL suffix-replay: suffix from step {start} (region {region}) "
        "diverges at step {start}: fault injection inside the replayed "
        "segment"),
], ids=["just-before-the-start", "at-the-start"])
def test_a_fault_at_a_suffix_start_is_replayed_only_from_the_start(
        offset, verdict):
    """A suffix replay skips a fault recorded just before its start step,
    the last event before the start's, and refuses one at its start."""
    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [{"when_kind": "region", "when": 10,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 0, "value": 7}],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    region = sc.derived["boundary_region"]
    start = analysis.snapshot_step_for_region(trace, region)
    _fault_at(trace, start + offset)
    report = analysis.suffix_check(sc.prog, trace, region)
    assert report.lines() == [verdict.format(
        start=start, region=region, steps=trace.steps() - start)]


def test_a_fault_as_the_last_event_diverges_at_the_last_step():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    last = trace.steps() - 1
    _fault_at(trace, last)
    assert trace.events[-1][1] == tr.EV_FAULT
    with pytest.raises(OracleDivergence) as exc:
        replay(sc, trace)
    assert exc.value.step == last
    assert exc.value.detail == "fault injection inside the replayed segment"


def test_suffix_after_faults_replays_clean():
    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [{"when_kind": "region", "when": 10,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 0, "value": 7}],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    boundary = sc.derived["boundary_region"]
    start = analysis.snapshot_step_for_region(trace, boundary)
    assert start is not None
    checked = replay(sc, trace, start=start)
    assert checked == sc.cfg.total_steps - start


def test_replay_requires_a_snapshot_at_the_start_step():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    with pytest.raises(ValueError):
        Replayer(sc.prog, trace, start_step=17)
