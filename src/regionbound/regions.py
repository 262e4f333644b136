"""Discrete global time, per-process drifting clocks, and region bookkeeping.

Time is integer-valued. A region is a block of ``rs`` consecutive time units;
the region of time ``t`` is ``t // rs``. The whole scheme rests on two skew
guarantees that the drift model must never break:

* a process clock is at most one region away from global time, and
* any two process clocks are at most one region apart.

Drift is generated, then clamped (never rejected) so both invariants hold at
every instant. The clamp is specified in process-id order, which makes the
outcome a pure function of the RNG stream. While every clock is in the new
global region or the one above it, that clamp is one shared cap, and only a
tick on which some clock lags the global region runs it pid by pid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class DriftPolicy:
    """How process clocks move relative to global time.

    ``none``: lockstep, every local clock equals global time.
    ``bounded_jitter``: each advance draws a per-process increment
    uniformly from ``[0, 1 + max_step_skew]``, with mean
    ``(1 + max_step_skew) / 2``, then clamps.
    """

    kind: str = "none"
    max_step_skew: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "bounded_jitter"):
            raise ConfigError(f"unknown drift policy {self.kind!r}")
        if self.max_step_skew < 0:
            raise ConfigError("max_step_skew must be >= 0")
        if self.kind == "bounded_jitter" and self.max_step_skew == 0:
            raise ConfigError("bounded_jitter needs max_step_skew >= 1")


def draw(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: the same value, the same generator state.

    This is the draw CPython (3.10 and later) makes under ``randint``: the
    offset above ``lo`` is ``getrandbits`` of the width's bit length, drawn
    again while it is not below the width. Calling it directly skips
    ``randrange``'s argument checks, which the kernel would otherwise pay on
    every drift draw, every ``d`` and every message delay.
    """
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range for draw({lo}, {hi})")
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


def draw_onto(rng: random.Random, lo: int, hi: int, bases: list[int],
              cap: int) -> list[int]:
    """``[min(b + draw(rng, lo, hi), cap) for b in bases]``, the draws made
    in order, in one pass."""
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range for draw({lo}, {hi})")
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for b in bases:
        r = bits(k)
        while r >= width:
            r = bits(k)
        b += lo + r
        out.append(b if b < cap else cap)
    return out


def advance_clocks(
    t: int,
    local: list[int],
    rs: int,
    policy: DriftPolicy,
    rng: random.Random,
) -> list[int]:
    """The local clocks after global time moves from ``t`` to ``t + 1`` and
    every local clock by about 1, in regions of ``rs`` (at least 2) units.

    Local clocks never decrease. Each is clamped, in process-id order, so that
    after the update its region stays within 1 of the new global region and
    within 1 of every other clock's region (already-updated clocks count with
    their new value, the rest with their old one). While every old clock is
    in the new global region or the one above it, that clamp is one shared
    cap; otherwise :func:`_clamp` runs it clock by clock.
    """
    gr = (t + 1) // rs
    # When every old clock is in region ``gr`` or ``gr + 1``, the pid-order
    # clamp is one cap for all. No clock moves backwards, so every region it
    # compares, old or new, is at least ``gr``: its lower bound ``lo`` is
    # ``gr``. The cap then keeps each new region at most ``gr + 1``, so the
    # upper bound ``hi`` is too, and the floor ``(hi - 1)*rs <= gr*rs``
    # never rises above an old clock. What is left is the cap
    # ``(lo + 2)*rs - 1``, and it puts every clock in ``gr`` or ``gr + 1``,
    # which is both skew guarantees.
    cap = (gr + 2) * rs - 1
    shared = gr * rs <= min(local) and max(local) <= cap
    # Each clock is drawn and capped in one pass (a conditional, since a
    # builtin ``min`` call per clock costs several times as much). The cap
    # leaves :func:`_clamp`'s result alone: its own cap ``(lo + 2)*rs - 1``
    # comes last and is at most this one, as its ``lo`` is at most ``gr``.
    if policy.kind == "none":
        moved = [x + 1 if x < cap else cap for x in local]
    else:  # bounded_jitter's skew s >= 1 floors 1 - s at 0
        moved = draw_onto(rng, 0, 1 + policy.max_step_skew, local, cap)
    return moved if shared else _clamp(local, moved, gr, rs)


def _clamp(old: list[int], moved: list[int], gr: int, rs: int) -> list[int]:
    """Clamp each drifted clock, in process-id order, against the global
    region and every other clock: the new value of clocks before it, the
    old value of clocks after it. :func:`advance_clocks` calls it only on a
    tick where some old clock is outside regions ``gr`` and ``gr + 1``. The
    same pass asserts both skew guarantees on the result."""
    n = len(old)
    # extremes of the old regions of clocks j..n-1, seeded with ``gr`` so
    # the global bound folds into the same max/min
    suf_hi = [gr] * (n + 1)
    suf_lo = [gr] * (n + 1)
    hi = lo = gr
    for k in range(n - 1, -1, -1):
        rk = old[k] // rs
        if rk > hi:
            hi = rk
        if rk < lo:
            lo = rk
        suf_hi[k] = hi
        suf_lo[k] = lo
    pre_hi = pre_lo = gr  # the same over the new regions of clocks 0..j-1
    new_local = [0] * n
    for j in range(n):
        hi = suf_hi[j + 1] if suf_hi[j + 1] > pre_hi else pre_hi
        lo = suf_lo[j + 1] if suf_lo[j + 1] < pre_lo else pre_lo
        # floor first (may raise the clock), then cap; no drift increment is
        # negative, so only the cap could take a clock below its old value
        tj = moved[j]
        if tj < (hi - 1) * rs:
            tj = (hi - 1) * rs
        if tj > (lo + 2) * rs - 1:
            tj = (lo + 2) * rs - 1
        if tj < old[j]:  # pragma: no cover - guarded by rs >= 2
            raise ConfigError("drift clamp would move a clock backwards")
        new_local[j] = tj
        rj = tj // rs
        if rj > pre_hi:
            pre_hi = rj
        if rj < pre_lo:
            pre_lo = rj
    # the new regions and ``gr`` span at most two adjacent regions exactly
    # when each is within 1 of ``gr`` and any two are within 1 of each other
    assert pre_hi - pre_lo <= 1, (
        f"region gap in {[x // rs for x in new_local]} around global region {gr}")
    return new_local
