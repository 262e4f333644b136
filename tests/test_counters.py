import pytest
from hypothesis import given, settings, strategies as st

from regionbound.counters import (
    CounterParams,
    check_dep,
    check_free,
    dep_window,
    free_window,
    lift_dep,
    lift_free,
    maxbound_of,
    to_residue,
)
from regionbound.errors import ConfigError

P10_5 = CounterParams(maxinc=10, r_b=5, r_f=0)
P1_0 = CounterParams(maxinc=1, r_b=0, r_f=0)


def brute_lift(residue, lo, hi, m):
    """Independent oracle: scan the window for values congruent to residue.

    Returns (lift, count) where count is how many congruent values the window
    holds. The implementation under test must agree with the unique lift when
    count == 1 and fall back to lo when count == 0.
    """
    hits = [y for y in range(lo, hi + 1) if y % m == residue]
    assert len(hits) <= 1, "window wider than modulus would break uniqueness"
    return (hits[0] if hits else lo), len(hits)


def test_maxbound_worked_example():
    assert maxbound_of(10, 5) == 780


def test_maxbound_smallest():
    assert maxbound_of(1, 0) == 33


def test_maxbound_large():
    assert maxbound_of(100, 36) == 35700


def test_maxbound_rejects_bad_params():
    with pytest.raises(ConfigError):
        maxbound_of(0, 5)
    with pytest.raises(ConfigError):
        maxbound_of(10, -1)


def test_params_carry_derived_modulus():
    assert P10_5.maxbound == 780
    assert P1_0.maxbound == 33
    assert P10_5.min_usable_region() == 7


def test_free_window_examples():
    assert free_window(0, P10_5) == (0, 49)
    assert free_window(10, P10_5) == (300, 349)
    assert free_window(0, P1_0) == (0, 4)


def test_free_window_width_is_five_maxinc():
    for r in range(0, 200, 7):
        lo, hi = free_window(r, P10_5)
        assert hi - lo + 1 == 5 * P10_5.maxinc


def test_free_window_minimum_advances_three_maxinc_per_region():
    for r in range(0, 50):
        assert free_window(r + 1, P10_5)[0] == free_window(r, P10_5)[0] + 3 * P10_5.maxinc


def test_dep_window_examples():
    assert dep_window(10, P10_5) == (90, 349)
    assert dep_window(7, P10_5) == (0, 259)
    assert dep_window(13, P10_5) == (180, 439)


def test_dep_window_width_is_third_of_modulus():
    for r in range(7, 60):
        lo, hi = dep_window(r, P10_5)
        assert 3 * (hi - lo + 1) == P10_5.maxbound


def test_dep_window_requires_late_enough_region():
    with pytest.raises(ConfigError):
        dep_window(6, P10_5)


def test_check_free_examples():
    assert check_free(25, 0, P10_5) == 25
    assert check_free(50, 0, P10_5) == 0
    assert check_free(-3, 0, P10_5) == 0


def test_check_dep_examples():
    assert check_dep(90, 10, P10_5) == 90
    assert check_dep(80, 10, P10_5) == 90
    assert check_dep(400, 10, P10_5) == 90


@pytest.mark.parametrize("maxinc,max_r", [(1, 0), (3, 2), (10, 5)])
def test_checks_match_their_windows(maxinc, max_r):
    """``check_free`` and ``check_dep`` compute their window in place: they
    agree with ``free_window`` and ``dep_window`` at and around both edges,
    and refuse a region the window refuses with the window's error."""
    params = CounterParams(maxinc=maxinc, r_b=max_r, r_f=0)
    for region in range(-2, params.min_usable_region() + 4):
        for check, window in ((check_free, free_window),
                              (check_dep, dep_window)):
            try:
                lo, hi = window(region, params)
            except ConfigError as exc:
                with pytest.raises(ConfigError) as got:
                    check(0, region, params)
                assert str(got.value) == str(exc)
                continue
            for value in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
                expect = value if lo <= value <= hi else lo
                assert check(value, region, params) == expect


def test_to_residue_examples():
    assert to_residue(320, P10_5) == 320
    assert to_residue(910, P10_5) == 130
    assert to_residue(-80, P10_5) == 700


def test_lift_free_examples():
    assert lift_free(320, 10, P10_5) == 320
    # residue 130 at region 30: true value one full modulus up
    assert lift_free(130, 30, P10_5) == 910
    # residue 500 has no lift in [900, 949]; falls back to the window minimum
    assert lift_free(500, 30, P10_5) == 900


def test_lift_dep_examples():
    assert lift_dep(100, 10, P10_5) == 100
    assert lift_dep(700, 13, P10_5) == 180
    assert lift_dep(85, 10, P10_5) == 90


def test_counter_params_validation():
    assert CounterParams(maxinc=10, r_b=2, r_f=3).max_r == 5
    for r_b, r_f in ((-1, 2), (2, -1)):
        with pytest.raises(ConfigError):
            CounterParams(maxinc=10, r_b=r_b, r_f=r_f)


@pytest.mark.parametrize("maxinc", [1, 2, 10])
@pytest.mark.parametrize("max_r", [0, 2, 5])
def test_lifts_match_brute_force_oracle(maxinc, max_r):
    """Exhaustive agreement with the window-scan oracle over all residues."""
    params = CounterParams(maxinc=maxinc, r_b=max_r, r_f=0)
    m = params.maxbound
    start = params.min_usable_region()
    for region in range(start, start + 12):
        flo, fhi = free_window(region, params)
        dlo, dhi = dep_window(region, params)
        for residue in range(m):
            expect_f, _ = brute_lift(residue, flo, fhi, m)
            expect_d, _ = brute_lift(residue, dlo, dhi, m)
            assert lift_free(residue, region, params) == expect_f
            assert lift_dep(residue, region, params) == expect_d


@given(
    maxinc=st.integers(min_value=1, max_value=50),
    max_r=st.integers(min_value=0, max_value=12),
    region=st.integers(min_value=0, max_value=500),
    value=st.integers(min_value=-10**6, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_round_trip_and_idempotence(maxinc, max_r, region, value):
    params = CounterParams(maxinc=maxinc, r_b=max_r, r_f=0)
    region = max(region, params.min_usable_region())

    lo, hi = free_window(region, params)
    v = check_free(value, region, params)
    assert lo <= v <= hi
    # checking is idempotent and in-window values are fixed points
    assert check_free(v, region, params) == v
    # round trip: store the checked value, lift it back, get it back exactly
    assert lift_free(to_residue(v, params), region, params) == v

    dlo, dhi = dep_window(region, params)
    w = check_dep(value, region, params)
    assert dlo <= w <= dhi
    assert check_dep(w, region, params) == w
    assert lift_dep(to_residue(w, params), region, params) == w


@given(
    maxinc=st.integers(min_value=1, max_value=50),
    max_r=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_window_algebra(maxinc, max_r):
    params = CounterParams(maxinc=maxinc, r_b=max_r, r_f=0)
    r = params.min_usable_region() + 3
    flo, fhi = free_window(r, params)
    dlo, dhi = dep_window(r, params)
    assert fhi - flo + 1 == 5 * maxinc
    assert 3 * (dhi - dlo + 1) == params.maxbound
    # the free window sits inside the dependent window (same upper edge)
    assert dlo <= flo and dhi == fhi


def test_lift_free_is_exact_inverse_on_full_modulus_range():
    # every residue either lifts congruently or falls back to the minimum
    params = P10_5
    for region in (7, 11, 30):
        lo, hi = free_window(region, params)
        for residue in range(params.maxbound):
            y = lift_free(residue, region, params)
            assert lo <= y <= hi
            if y != lo:
                assert y % params.maxbound == residue
