import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from regionbound import kernel, regions
from regionbound.regions import DriftPolicy, advance_clocks, draw

from conftest import build_scenario


class Clocks(NamedTuple):
    """Global time and the local clocks at one instant."""

    t: int
    local: list


def at_region_start(n, rs, start_region):
    t0 = start_region * rs
    return Clocks(t0, [t0] * n)


def tick(clocks, rs, policy, rng):
    return Clocks(clocks.t + 1,
                  advance_clocks(clocks.t, clocks.local, rs, policy, rng))


def test_initial_clocks_share_the_start_region():
    sc = build_scenario("logical_clocks")
    k = kernel.Kernel(sc.cfg, 0)
    start = sc.cfg.start_region
    assert k.t == start * sc.cfg.rs
    assert k.locals == [k.t] * sc.prog.n
    assert k.regions == [start] * sc.prog.n
    assert k.regions == [x // sc.cfg.rs for x in k.locals]


def test_lockstep_advance_keeps_zero_gap():
    clocks = at_region_start(3, rs=10, start_region=3)
    rng = random.Random(0)
    policy = DriftPolicy("none")
    for _ in range(250):
        clocks = tick(clocks, 10, policy, rng)
        assert all(x == clocks.t for x in clocks.local)


def test_advance_leaves_its_input_alone():
    local = [30, 31, 35]
    advance_clocks(31, local, 10,
                   DriftPolicy("bounded_jitter", max_step_skew=3),
                   random.Random(0))
    assert local == [30, 31, 35]


def drive(seed, steps, n=3, rs=10, skew=4):
    clocks = at_region_start(n, rs, start_region=5)
    rng = random.Random(seed)
    policy = DriftPolicy("bounded_jitter", max_step_skew=skew)
    states = [clocks]
    for _ in range(steps):
        clocks = tick(clocks, rs, policy, rng)
        states.append(clocks)
    return rs, states


def test_drift_respects_both_skew_invariants():
    rs, states = drive(seed=42, steps=1000)
    max_pair = 0
    max_global = 0
    for s in states:
        gr = s.t // rs
        rlist = [x // rs for x in s.local]
        max_pair = max(max_pair, max(rlist) - min(rlist))
        max_global = max(max_global, max(abs(r - gr) for r in rlist))
    assert max_pair == 1
    assert max_global == 1


def test_local_clocks_never_run_backwards():
    _, states = drive(seed=7, steps=500)
    for a, b in zip(states, states[1:]):
        for x, y in zip(a.local, b.local):
            assert y >= x


def test_all_processes_visit_every_region():
    # nobody enters region r+1 until everyone has been inside region r
    rs, states = drive(seed=3, steps=1500)
    first_seen = {}
    for s in states:
        rlist = [x // rs for x in s.local]
        hi = max(rlist)
        if hi not in first_seen:
            first_seen[hi] = True
            assert min(rlist) >= hi - 1


def test_clamp_holds_leader_back():
    # one process about to leave region 5 while another sits in region 4:
    # the leader gets pinned to the last instant of region 5
    clocks = Clocks(t=59, local=[59, 40, 59])
    rng = random.Random(1)
    policy = DriftPolicy("bounded_jitter", max_step_skew=3)
    for _ in range(40):
        clocks = tick(clocks, 10, policy, rng)
        rlist = [x // 10 for x in clocks.local]
        assert max(rlist) - min(rlist) <= 1


def test_advance_is_deterministic_per_seed():
    _, a = drive(seed=11, steps=300)
    _, b = drive(seed=11, steps=300)
    assert [s.local for s in a] == [s.local for s in b]
    _, c = drive(seed=12, steps=300)
    assert [s.local for s in a] != [s.local for s in c]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_drift_invariants_hold_for_arbitrary_seeds(seed):
    rs, states = drive(seed=seed, steps=200, n=4, rs=8, skew=7)
    for s in states:
        gr = s.t // rs
        rlist = [x // rs for x in s.local]
        assert max(rlist) - min(rlist) <= 1
        assert all(abs(r - gr) <= 1 for r in rlist)


def _reference_advance(clocks, rs, policy, rng):
    """The clamp as specified: clock j against every other clock one pair at
    a time (new value for k < j, old value for k > j) and the global region."""
    t2 = clocks.t + 1
    gr = t2 // rs
    n = len(clocks.local)
    new_local = list(clocks.local)
    regions = [x // rs for x in clocks.local]
    for j in range(n):
        if policy.kind == "none":
            tj = clocks.local[j] + 1
        else:
            lo_step = max(0, 1 - policy.max_step_skew)
            tj = clocks.local[j] + rng.randint(lo_step, 1 + policy.max_step_skew)
        others_lo, others_hi = gr - 1, gr + 1
        for k in range(n):
            if k != j:
                rk = new_local[k] // rs if k < j else regions[k]
                others_lo = max(others_lo, rk - 1)
                others_hi = min(others_hi, rk + 1)
        tj = max(tj, others_lo * rs, clocks.local[j])
        new_local[j] = min(tj, (others_hi + 1) * rs - 1)
    return Clocks(t2, new_local)


@pytest.mark.parametrize("n,rs,skew", [(1, 4, 3), (3, 4, 3), (4, 25, 3),
                                       (5, 6, 5), (9, 3, 2), (32, 10, 9),
                                       (8, 10, 1), (64, 25, 1)])
def test_advance_matches_pairwise_reference(n, rs, skew, monkeypatch):
    # skew 1 draws increments from [0, 2], so clocks lag the global region
    # on some ticks and the pid-order clamp runs beside the shared cap
    clamps = {}
    real_clamp = regions._clamp

    def counting_clamp(*args):
        clamps[policy.kind] = clamps.get(policy.kind, 0) + 1
        return real_clamp(*args)

    monkeypatch.setattr(regions, "_clamp", counting_clamp)
    ticks = 300
    for policy in (DriftPolicy("none"),
                   DriftPolicy("bounded_jitter", max_step_skew=skew)):
        for seed in range(5):
            fast_rng, ref_rng = random.Random(seed), random.Random(seed)
            clocks = at_region_start(n, rs, start_region=3)
            for _ in range(ticks):
                want = _reference_advance(clocks, rs, policy, ref_rng)
                clocks = tick(clocks, rs, policy, fast_rng)
                assert clocks == want
            assert fast_rng.getstate() == ref_rng.getstate()
    # lockstep enters each new region through the clamp and stays in one
    # region through the cap in between
    assert clamps["none"] == 5 * (ticks // rs)
    jittered = clamps.get("bounded_jitter", 0)
    assert jittered < 5 * ticks
    if skew == 1:
        assert jittered > 0


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_draw_matches_randint(seed):
    mine, ref = random.Random(seed), random.Random(seed)
    # every width 1..70 (so each power of two up to 64 and the width one past
    # it), plus wide ranges where the rejection loop draws many bits
    widths = list(range(1, 71)) + [2**20, 2**20 + 1, 2**31 + 1]
    for width in widths:
        for lo in (0, 1, -3, 1000):
            for _ in range(5):
                hi = lo + width - 1
                assert draw(mine, lo, hi) == ref.randint(lo, hi)
                assert mine.getstate() == ref.getstate()


def test_draw_refuses_an_empty_range():
    with pytest.raises(ValueError):
        draw(random.Random(0), 3, 2)
