import random

import pytest
from hypothesis import given, settings, strategies as st

from regionbound.errors import ConfigError
from regionbound.regions import (
    ClockState,
    DriftPolicy,
    RegionParams,
    advance_clocks,
    draw,
)

RS100 = RegionParams(rs=100, start_region=7)


def test_initial_clocks_share_the_start_region():
    clocks = ClockState.at_region_start(4, RegionParams(rs=10, start_region=9))
    assert clocks.t == 90
    assert clocks.local == [90, 90, 90, 90]


def test_lockstep_advance_keeps_zero_gap():
    params = RegionParams(rs=10, start_region=3)
    clocks = ClockState.at_region_start(3, params)
    rng = random.Random(0)
    policy = DriftPolicy("none")
    for _ in range(250):
        clocks = advance_clocks(clocks, 1, params, policy, rng)
        assert all(x == clocks.t for x in clocks.local)


def drive(seed, steps, n=3, rs=10, skew=4):
    params = RegionParams(rs=rs, start_region=5)
    clocks = ClockState.at_region_start(n, params)
    rng = random.Random(seed)
    policy = DriftPolicy("bounded_jitter", max_step_skew=skew)
    states = [clocks]
    for _ in range(steps):
        clocks = advance_clocks(clocks, 1, params, policy, rng)
        states.append(clocks)
    return params, states


def test_drift_respects_both_skew_invariants():
    params, states = drive(seed=42, steps=1000)
    max_pair = 0
    max_global = 0
    for s in states:
        gr = s.t // params.rs
        rlist = [x // params.rs for x in s.local]
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
    params, states = drive(seed=3, steps=1500)
    first_seen = {}
    for s in states:
        rlist = [x // params.rs for x in s.local]
        hi = max(rlist)
        if hi not in first_seen:
            first_seen[hi] = True
            assert min(rlist) >= hi - 1


def test_clamp_holds_leader_back():
    # one process about to leave region 5 while another sits in region 4:
    # the leader gets pinned to the last instant of region 5
    params = RegionParams(rs=10, start_region=4)
    clocks = ClockState(t=59, local=[59, 40, 59])
    rng = random.Random(1)
    policy = DriftPolicy("bounded_jitter", max_step_skew=3)
    for _ in range(40):
        clocks = advance_clocks(clocks, 1, params, policy, rng)
        rlist = [x // params.rs for x in clocks.local]
        assert max(rlist) - min(rlist) <= 1


def test_advance_is_deterministic_per_seed():
    _, a = drive(seed=11, steps=300)
    _, b = drive(seed=11, steps=300)
    assert [s.local for s in a] == [s.local for s in b]
    _, c = drive(seed=12, steps=300)
    assert [s.local for s in a] != [s.local for s in c]


def test_dt_must_stay_below_region_size():
    params = RegionParams(rs=5, start_region=1)
    clocks = ClockState.at_region_start(2, params)
    with pytest.raises(ConfigError):
        advance_clocks(clocks, 5, params, DriftPolicy("none"), random.Random(0))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_drift_invariants_hold_for_arbitrary_seeds(seed):
    params, states = drive(seed=seed, steps=200, n=4, rs=8, skew=7)
    for s in states:
        gr = s.t // params.rs
        rlist = [x // params.rs for x in s.local]
        assert max(rlist) - min(rlist) <= 1
        assert all(abs(r - gr) <= 1 for r in rlist)


def _reference_advance(clocks, dt, params, policy, rng):
    """The clamp as specified: clock j against every other clock one pair at
    a time (new value for k < j, old value for k > j) and the global region."""
    rs = params.rs
    t2 = clocks.t + dt
    gr = t2 // rs
    n = len(clocks.local)
    new_local = list(clocks.local)
    regions = [x // rs for x in clocks.local]
    for j in range(n):
        if policy.kind == "none":
            tj = clocks.local[j] + dt
        else:
            lo_step = max(0, dt - policy.max_step_skew)
            tj = clocks.local[j] + rng.randint(lo_step, dt + policy.max_step_skew)
        others_lo, others_hi = gr - 1, gr + 1
        for k in range(n):
            if k != j:
                rk = new_local[k] // rs if k < j else regions[k]
                others_lo = max(others_lo, rk - 1)
                others_hi = min(others_hi, rk + 1)
        tj = max(tj, others_lo * rs, clocks.local[j])
        new_local[j] = min(tj, (others_hi + 1) * rs - 1)
    return ClockState(t=t2, local=new_local)


@pytest.mark.parametrize("n,rs,skew", [(1, 4, 3), (3, 4, 3), (4, 25, 3),
                                       (5, 6, 5), (9, 3, 2), (32, 10, 9)])
def test_advance_matches_pairwise_reference(n, rs, skew):
    params = RegionParams(rs=rs, start_region=3)
    for policy in (DriftPolicy("none"),
                   DriftPolicy("bounded_jitter", max_step_skew=skew)):
        for seed in range(5):
            fast_rng, ref_rng = random.Random(seed), random.Random(seed)
            clocks = ClockState.at_region_start(n, params)
            for _ in range(300):
                want = _reference_advance(clocks, 1, params, policy, ref_rng)
                clocks = advance_clocks(clocks, 1, params, policy, fast_rng)
                assert (clocks.t, clocks.local) == (want.t, want.local)
            assert fast_rng.random() == ref_rng.random()


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
