"""Interval geometry, trace scans, and the counter-sizing sweep."""
import copy
import io

import pytest
from hypothesis import given, settings, strategies as st

from regionbound import analysis, counters, scenario
from regionbound import trace as tr
from regionbound.counters import CounterParams
from regionbound.errors import ConfigError

from conftest import build_scenario, run_scenario, scenario_doc


# -- interval geometry -------------------------------------------------------


def test_interval_index_frozen_examples():
    narrow = CounterParams(maxinc=1, r_b=0, r_f=0)  # cycle spans 11 regions
    assert [analysis.interval_index(r, narrow) for r in (0, 3, 4, 7, 8)] \
        == [0, 0, 1, 1, 2]
    wide = CounterParams(maxinc=5, r_b=4, r_f=0)  # cycle spans 23 regions
    assert analysis.interval_index(7, wide) == 0
    assert analysis.interval_index(8, wide) == 1


def test_convergence_boundary_single_family():
    fams = {"f": CounterParams(maxinc=1, r_b=0, r_f=0)}
    assert analysis.convergence_boundary(fams, 5) == 15


def test_convergence_boundary_takes_the_slowest_family():
    fams = {"fast": CounterParams(maxinc=1, r_b=0, r_f=0),
            "slow": CounterParams(maxinc=1, r_b=6, r_f=0)}
    b = analysis.convergence_boundary(fams, 9)
    for p in fams.values():
        assert (analysis.interval_index(b, p)
                >= analysis.interval_index(9, p) + 3)
    assert b == analysis.convergence_boundary({"slow": fams["slow"]}, 9)


def test_the_boundary_follows_the_modulus(monkeypatch):
    """The interval index reads the register geometry from the modulus
    alone, so a modulus of two dependent-window widths in place of three
    moves the boundary."""
    fams = {"a": CounterParams(maxinc=3, r_b=6, r_f=3)}
    assert analysis.convergence_boundary(fams, 20) == 51
    monkeypatch.setattr(counters, "maxbound_of",
                        lambda maxinc, max_r: 2 * maxinc * (11 + 3 * max_r))
    fams = {"a": CounterParams(maxinc=3, r_b=6, r_f=3)}
    assert fams["a"].maxbound == 228
    assert analysis.convergence_boundary(fams, 20) == 43


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=8),
       st.integers(min_value=1, max_value=20))
def test_convergence_boundary_is_tight(fstop, max_r, maxinc):
    fams = {"f": CounterParams(maxinc=maxinc, r_b=max_r, r_f=0)}
    b = analysis.convergence_boundary(fams, fstop)
    p = fams["f"]
    want = analysis.interval_index(fstop, p) + 3
    assert analysis.interval_index(b, p) >= want
    assert b == fstop + 1 or analysis.interval_index(b - 1, p) < want


# -- scans on real and doctored traces ---------------------------------------


def test_closure_check_passes_a_clean_run(any_protocol):
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    report = analysis.closure_check(sc.prog, trace)
    assert report.ok
    assert [r.name for r in report.results] == ["closure-replay"]


def test_closure_check_refuses_faulted_traces():
    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [{"when_kind": "region", "when": 10,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 0, "value": 7}],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    with pytest.raises(ConfigError, match="fault-free"):
        analysis.closure_check(sc.prog, trace)


@pytest.mark.parametrize("where", ["first", "last"])
def test_closure_check_refuses_a_fault_at_either_end(where):
    """A fault as the first or the last event of a fault-free run is found
    by the search that stops at the first fault."""
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    fault = tr.EVENTS[tr.EV_FAULT]
    if where == "first":
        trace.events.insert(0, fault(0, tr.EV_FAULT, "overwrite_free", 0,
                                     "cl", {}, False))
    else:
        trace.events.append(fault(trace.steps() - 1, tr.EV_FAULT,
                                  "overwrite_free", 0, "cl", {}, False))
    with pytest.raises(ConfigError) as exc:
        analysis.closure_check(sc.prog, trace)
    assert str(exc.value) == ("closure check applies to fault-free runs "
                              "only; this trace records fault injections")


def test_convergence_check_on_a_campaign():
    doc = scenario_doc("mutual_exclusion", faults={
        "mode": "campaign", "regions": [14, 15], "seed": 3, "per_family": 1,
    }, run_regions=46)
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    report = analysis.convergence_check(sc.prog, trace,
                                        sc.derived["fault_stop_region"])
    assert report.ok, "\n".join(report.lines())
    names = {r.name for r in report.results}
    assert {"free-containment", "suffix-replay"} <= names


def test_snapshot_step_for_region_finds_the_boundary_label():
    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [{"when_kind": "region", "when": 10,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 1, "value": 3}],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    boundary = sc.derived["boundary_region"]
    step = analysis.snapshot_step_for_region(trace, boundary)
    assert step in trace.snapshots
    assert trace.snapshots[step]["label"] == f"region:{boundary}"
    assert analysis.snapshot_step_for_region(trace, boundary + 999) is None


def test_region_gap_scan_without_drift_is_zero():
    sc = build_scenario("logical_clocks", drift_policy="none")
    trace = run_scenario(sc)
    assert analysis.max_region_gap(trace) == 0


def test_region_gap_scan_with_drift_stays_within_one():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    report = analysis.scan_region_gaps(trace, 1)
    assert report.ok


def test_region_gap_scan_catches_a_clock_two_regions_ahead():
    # the kernel's shared-cap tick asserts nothing itself, so this scan is
    # the independent check of the skew guarantee
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    doctored = copy.deepcopy(trace)
    rs = trace.meta["rs"]
    i, ev = next((i, ev) for i, ev in enumerate(doctored.events)
                 if ev.kind == tr.EV_CLOCK and min(ev.regions) == ev.g_region)
    locals_ = list(ev.locals)
    locals_[0] = (ev.g_region + 2) * rs  # two regions past the lowest clock
    doctored.events[i] = ev._replace(
        locals=tuple(locals_), regions=tuple(x // rs for x in locals_))
    report = analysis.scan_region_gaps(doctored, 1)
    assert report.lines() == [
        "FAIL region-gaps: max inter-process region gap 2 (allowed 1)"]
    assert analysis.scan_region_gaps(trace, 1).ok


def _gap_by_record(trace) -> int:
    """The reference :func:`analysis.max_region_gap`: the spread of every
    snapshot and every clock record, each probed on its own."""
    states = [(snap["g_region"], snap["regions"])
              for snap in trace.snapshots.values()]
    states += [(ev.g_region, ev.regions)
               for ev in trace.iter_events(tr.EV_CLOCK)]
    return max((max(*regions, g) - min(*regions, g) for g, regions in states),
               default=0)


@st.composite
def clock_traces(draw):
    """A trace of clock records, with other events between some of them:
    runs of equal records, repeats of a record after others, records that
    differ from the one before only in ``g_region``, and a snapshot whose
    regions may spread wider than any record's."""
    n = draw(st.integers(min_value=1, max_value=4))
    region = st.integers(min_value=0, max_value=3)
    pool = draw(st.lists(st.tuples(region, st.tuples(*[region] * n)),
                         min_size=1, max_size=4))
    records = []
    for idx, run, shift in draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=len(pool) - 1),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=-1, max_value=1)), max_size=12)):
        g_region, regions = pool[idx]
        records += [(g_region, regions)] * run
        if shift:
            records.append((g_region + shift, regions))
    clock, arrive = tr.EVENTS[tr.EV_CLOCK], tr.EVENTS[tr.EV_ARRIVE]
    events = []
    for step, (g_region, regions) in enumerate(records):
        events.append(clock(step, tr.EV_CLOCK, step, g_region, regions,
                            regions))
        if draw(st.booleans()):
            events.append(arrive(step, tr.EV_ARRIVE, step))
    wide = st.integers(min_value=0, max_value=6)
    snap = {"g_region": draw(wide), "regions": draw(st.lists(
        wide, min_size=n, max_size=n))}
    return tr.Trace(meta={}, events=events, snapshots={0: snap})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clock_traces())
def test_region_gap_probes_each_run_of_equal_records_as_each_record(trace):
    assert analysis.max_region_gap(trace) == _gap_by_record(trace)


def test_msg_lifetime_scan_passes_real_runs(any_protocol):
    sc = build_scenario(any_protocol)
    report = analysis.scan_msg_lifetime(run_scenario(sc))
    assert report.ok


def test_msg_lifetime_scan_catches_a_stale_arrival():
    sc = build_scenario("mutual_exclusion")
    trace = run_scenario(sc)
    doctored = copy.deepcopy(trace)
    arrived = {ev.mid for ev in doctored.iter_events(tr.EV_ARRIVE)}
    for i, ev in enumerate(doctored.events):
        if ev.kind == tr.EV_SEND and ev.mid in arrived:
            doctored.events[i] = ev._replace(send_region_global=0)
            break
    report = analysis.scan_msg_lifetime(doctored)
    assert not report.ok


def test_dep_lifetime_scan_passes_real_runs(any_protocol):
    sc = build_scenario(any_protocol)
    report = analysis.scan_dep_lifetimes(sc.prog, run_scenario(sc))
    assert report.ok


def test_dep_lifetime_scan_notes_runs_without_cells():
    sc = build_scenario("logical_clocks")
    report = analysis.scan_dep_lifetimes(sc.prog, run_scenario(sc))
    assert "no dependent cell" in report.results[0].detail


# -- sizing ------------------------------------------------------------------


def test_lifetime_regions_worked_examples():
    assert analysis.lifetime_regions_for(3600, 100) == 36
    assert analysis.lifetime_regions_for(1, 100) == 1
    assert analysis.lifetime_regions_for(100, 100) == 1
    assert analysis.lifetime_regions_for(101, 100) == 2
    with pytest.raises(ConfigError):
        analysis.lifetime_regions_for(0, 100)


def test_sweep_row_count_and_determinism():
    rows = analysis.sweep(100, [900, 1800, 3600], [1, 10, 100])
    assert len(rows) == 9
    assert rows == analysis.sweep(100, [900, 1800, 3600], [1, 10, 100])


def test_sweep_bits_grow_monotonically():
    rows = analysis.sweep(50, [100, 200, 400, 800], [1, 4, 16])
    by_rate = {}
    by_delay = {}
    for row in rows:
        by_rate.setdefault(row["rate"], []).append(row["bits"])
        by_delay.setdefault(row["delay"], []).append(row["bits"])
    for bits in by_rate.values():
        assert bits == sorted(bits)
    for bits in by_delay.values():
        assert bits == sorted(bits)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=500),
       st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 9))
def test_doubling_the_delay_costs_at_most_two_bits(rs, delay, rate):
    one, two = analysis.sweep(rs, [delay, 2 * delay], [rate])
    assert two["bits"] - one["bits"] <= 2


def test_sweep_rejects_bad_grid():
    with pytest.raises(ConfigError):
        analysis.sweep(0, [10], [1])
    with pytest.raises(ConfigError):
        analysis.sweep(10, [10], [0])


def test_sweep_csv_shape():
    rows = analysis.sweep(100, [900], [1, 10])
    buf = io.StringIO()
    analysis.write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == list(rows[0])
