"""Shipping gate: one check, and one printed verdict line, per criterion.

Criteria 4 and 5 run large seeded batches once (module-scoped fixtures) and
later criteria scan the aggregates those batches collected, so the whole file
stays within the stated time budgets.
"""
import time
from collections import defaultdict

import pytest

from regionbound import analysis, kernel, scenario
from regionbound.counters import (
    CounterParams,
    bits_required,
    dep_window,
    free_window,
    lift_dep,
    lift_free,
    maxbound_of,
)

from conftest import PROTOCOLS, scenario_doc

CLOSURE_SEEDS = 20
CAMPAIGNS = 20


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_example_sizes():
    maxbound_of(10, 5)  # warm any lazy import cost out of the timed call
    t0 = time.perf_counter()
    m = maxbound_of(10, 5)
    b = bits_required(10, 5)
    dt = time.perf_counter() - t0
    ok = (m, b) == (780, 10) and dt < 0.001
    verdict(1, ok, f"maxbound_of(10,5)={m}, bits_required(10,5)={b}, "
                   f"{dt * 1e6:.0f}us")


def test_criterion_2_free_window_bounds():
    params = CounterParams(maxinc=10, r_b=5, r_f=0)
    t0 = time.perf_counter()
    bad = [r for r in range(101)
           if free_window(r, params) != (30 * r, 30 * (r + 1) + 19)]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 0.001
    verdict(2, ok, f"free windows for maxinc=10 match (30r, 30(r+1)+19) on "
                   f"r in [0,100], {dt * 1e6:.0f}us"
                   + (f"; first mismatch r={bad[0]}" if bad else ""))


def test_criterion_3_lifts_match_brute_force():
    t0 = time.perf_counter()
    mismatches = checked = 0
    for maxinc in (1, 2, 10):
        for max_r in (0, 2, 5):
            params = CounterParams(maxinc=maxinc, r_b=max_r, r_f=0)
            m = params.maxbound
            start = 2 + max_r
            for region in range(start, start + 51):
                for bounds, lift in ((free_window(region, params), lift_free),
                                     (dep_window(region, params), lift_dep)):
                    lo, hi = bounds
                    # brute force: enumerate the window, keep the first
                    # (hence unique-or-only) value per residue class
                    table = {}
                    for v in range(lo, hi + 1):
                        table.setdefault(v % m, v)
                    for x in range(m):
                        if lift(x, region, params) != table.get(x, lo):
                            mismatches += 1
                        checked += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 10.0
    verdict(3, ok, f"{checked} lifts vs brute force, {mismatches} mismatches,"
                   f" {dt:.2f}s")


def collect(out: dict, key, report) -> None:
    """File ``report``'s failures: dependent lifetimes under ``dep_notes``
    (criterion 6), safety under ``safety`` when collected, the rest under
    ``failures``."""
    for r in report.results:
        if r.name == "protocol-safety" and "safety" in out:
            out["safety"][key[0]].append((key[1], r.ok, r.detail))
        elif not r.ok:
            notes = "dep_notes" if r.name == "dep-lifetime" else "failures"
            out[notes].append((*key, r.line()))


@pytest.fixture(scope="module")
def closure_batch():
    out = {"failures": [], "dep_notes": [], "gap_max": 0, "elapsed": 0.0,
           "runs": 0, "steps": None}
    for protocol in PROTOCOLS:
        sc = scenario.parse(scenario_doc(protocol, run_regions=200))
        out["steps"] = sc.cfg.total_steps
        for i in range(CLOSURE_SEEDS):
            seed = 1000 + i
            t0 = time.perf_counter()
            trace = kernel.run(sc.cfg, seed)
            report = analysis.check(sc, trace)
            out["elapsed"] += time.perf_counter() - t0
            out["runs"] += 1
            collect(out, (protocol, seed), report)
            out["gap_max"] = max(out["gap_max"],
                                 analysis.max_region_gap(trace))
    return out


@pytest.fixture(scope="module")
def campaign_batch():
    out = {"failures": [], "dep_notes": [], "gap_max": 0, "elapsed": 0.0,
           "runs": 0, "coverage_gaps": [], "safety": defaultdict(list)}
    for protocol in PROTOCOLS:
        base = scenario.parse(scenario_doc(protocol))
        start = base.cfg.start_region
        fstop = start + 4
        boundary = analysis.convergence_boundary(base.prog.families, fstop)
        rr = boundary - start + 10  # room for a few hundred suffix steps
        for i in range(CAMPAIGNS):
            doc = scenario_doc(protocol, run_regions=rr, faults={
                "mode": "campaign", "regions": [start + 3, start + 4],
                "seed": i})
            sc = scenario.parse(doc)
            thirds = defaultdict(set)
            for e in sc.cfg.faults:
                if "third" in e.note:
                    thirds[e.note["family"]].add(e.note["third"])
            if any(thirds[f] != {0, 1, 2} for f in sc.prog.families):
                out["coverage_gaps"].append((protocol, i))
            seed = 3000 + i
            t0 = time.perf_counter()
            trace = kernel.run(sc.cfg, seed)
            report = analysis.check(sc, trace)
            out["elapsed"] += time.perf_counter() - t0
            out["runs"] += 1
            collect(out, (protocol, i), report)
            out["gap_max"] = max(out["gap_max"],
                                 analysis.max_region_gap(trace))
    return out


def test_criterion_4_closure_across_protocols(closure_batch):
    b = closure_batch
    ok = (not b["failures"] and b["runs"] == 6 * CLOSURE_SEEDS
          and b["steps"] >= 10 ** 4 and b["elapsed"] < 60.0)
    verdict(4, ok, f"{b['runs']} fault-free runs x {b['steps']} steps, "
                   f"{len(b['failures'])} failed replay, scan or safety "
                   f"checks, {b['elapsed']:.1f}s"
                   + (f"; first: {b['failures'][0]}" if b["failures"] else ""))


def test_criterion_5_convergence_after_campaigns(campaign_batch):
    b = campaign_batch
    ok = (not b["failures"] and not b["coverage_gaps"]
          and b["runs"] == 6 * CAMPAIGNS and b["elapsed"] < 300.0)
    verdict(5, ok, f"{b['runs']} fault campaigns, every family corrupted in "
                   f"all 3 residue classes, {len(b['failures'])} failed "
                   f"containment, suffix or scan checks, {b['elapsed']:.1f}s"
                   + (f"; first: {b['failures'][0]}" if b["failures"] else ""))


def test_criterion_6_dependent_lifetimes(closure_batch, campaign_batch):
    notes = closure_batch["dep_notes"] + campaign_batch["dep_notes"]
    runs = closure_batch["runs"] + campaign_batch["runs"]
    verdict(6, not notes,
            f"{runs} traces scanned, {len(notes)} dependent cells seen past "
            f"their lifetime" + (f"; first: {notes[0]}" if notes else ""))


def test_criterion_7_protocol_safety_in_suffixes(campaign_batch):
    safety = campaign_batch["safety"]
    bad = [(p, i, detail) for p, results in safety.items()
           for i, ok, detail in results if not ok]
    counts = {p: len(results) for p, results in safety.items()}
    ok = (not bad and counts.get("mutual_exclusion") == CAMPAIGNS
          and counts.get("consensus") == CAMPAIGNS)
    verdict(7, ok, f"stabilized suffixes: {counts.get('mutual_exclusion', 0)}"
                   f" exclusion checks, {counts.get('consensus', 0)} "
                   f"agreement checks, {len(bad)} violations"
                   + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_8_region_skew_is_exactly_the_model(closure_batch,
                                                      campaign_batch):
    drift_gap = max(closure_batch["gap_max"], campaign_batch["gap_max"])
    still_gap = 0
    for protocol in PROTOCOLS:
        sc = scenario.parse(scenario_doc(protocol, drift_policy="none",
                                         run_regions=40))
        trace = kernel.run(sc.cfg, seed=77)
        still_gap = max(still_gap, analysis.max_region_gap(trace))
    ok = drift_gap == 1 and still_gap == 0
    verdict(8, ok, f"max region gap {drift_gap} with drift (want exactly 1), "
                   f"{still_gap} without (want 0)")


def test_criterion_9_sizing_grows_logarithmically():
    delays = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4000]
    rates = [10 ** k for k in range(10)]
    rows = analysis.sweep(100, delays, rates)
    bits = {(row["delay"], row["rate"]): row["bits"] for row in rows}
    problems = []
    for rate in rates:
        spread = bits[(4000, rate)] - bits[(1, rate)]
        if spread > 6:
            problems.append(f"rate {rate}: {spread} bits over 4000x delay")
        for lo, hi in zip(delays, delays[1:]):
            if bits[(hi, rate)] - bits[(lo, rate)] > 1:
                problems.append(f"rate {rate}: doubling delay {lo}->{hi} "
                                f"costs more than 1 bit")
    for delay in delays:
        spread = bits[(delay, 10 ** 9)] - bits[(delay, 1)]
        if not 29 <= spread <= 31:
            problems.append(f"delay {delay}: {spread} bits over 10^9x rate, "
                            "not logarithmic")
    example = bits[(4000, 10 ** 9)] - bits[(1, 10 ** 9)]
    verdict(9, not problems,
            f"{len(rows)} grid points; 4000x delay costs <= 6 bits "
            f"(e.g. {example} at rate 10^9), 10^9x rate costs ~30"
            + (f"; first problem: {problems[0]}" if problems else ""))
