"""Bounded counter arithmetic: windows, range checks, and residue lifting.

Counters come in two flavours. A *free* counter is permanent and only ever
grows (a logical clock, a sequence number). A *dependent* cell is a temporary
copy of some recent free-counter value (a message timestamp, a queue entry);
it is immutable while present and is removed again within a bounded number of
regions.

Both kinds are stored as residues modulo ``maxbound``. Recovering the real
value from a residue works because, for a process currently in region ``r``,
the set of values the counter can legitimately hold is an interval (its
*window*) that is narrower than the modulus, so at most one lift of the
residue lands inside it:

* free window:       ``[3*r*maxinc, 3*(r+1)*maxinc + 2*maxinc - 1]``
  (width ``5*maxinc``)
* dependent window:  ``[3*(r - 2 - max_r)*maxinc, 3*(r+1)*maxinc + 2*maxinc - 1]``
  (width ``maxinc*(11 + 3*max_r)``, exactly a third of the modulus)

``maxinc`` bounds how much a free counter may grow per global region, and
``max_r`` bounds how far back in regions a dependent cell's value may have
originated plus how long the cell may linger. The modulus
``3*maxinc*(11 + 3*max_r)`` is three dependent-window widths, which is what
makes recovery after arbitrary corruption converge: once enough regions pass,
every surviving value is from the previous third of the value circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


def maxbound_of(maxinc: int, max_r: int) -> int:
    """Modulus for residue storage: ``3 * maxinc * (11 + 3*max_r)``."""
    if maxinc < 1:
        raise ConfigError(f"maxinc must be >= 1, got {maxinc}")
    if max_r < 0:
        raise ConfigError(f"max_r must be >= 0, got {max_r}")
    return 3 * maxinc * (11 + 3 * max_r)


@dataclass(frozen=True)
class CounterParams:
    """One counter family's declared bounds, the only place they are held.

    ``maxinc`` bounds a free counter's growth per global region. Every
    dependent collection of the family shares ``r_b`` and ``r_f``: a cell's
    value was copied from a free counter at most r_b regions before the
    cell was created, and the cell is removed within r_f global regions of
    its creation. ``max_r`` (r_b + r_f) and ``maxbound`` are derived.
    """

    maxinc: int
    r_b: int
    r_f: int
    max_r: int = field(init=False)
    maxbound: int = field(init=False)

    def __post_init__(self) -> None:
        if self.r_b < 0 or self.r_f < 0:
            raise ConfigError(f"dependent bounds must be >= 0, got ({self.r_b}, {self.r_f})")
        object.__setattr__(self, "max_r", self.r_b + self.r_f)
        object.__setattr__(self, "maxbound", maxbound_of(self.maxinc, self.max_r))

    def min_usable_region(self) -> int:
        """Smallest region where dependent windows are defined (non-negative)."""
        return 2 + self.max_r


def free_window(region: int, params: CounterParams) -> tuple[int, int]:
    """Inclusive bounds a free counter can legitimately hold at ``region``."""
    if region < 0:
        raise ConfigError(f"region must be >= 0, got {region}")
    mi = params.maxinc
    return 3 * region * mi, 3 * (region + 1) * mi + 2 * mi - 1


def dep_window(region: int, params: CounterParams) -> tuple[int, int]:
    """Inclusive bounds a dependent cell can legitimately hold at ``region``.

    Only defined from ``params.min_usable_region()`` on; before that the
    lower bound would be negative and no dependent cell can legitimately
    exist that early in a run that starts at a later region anyway.
    """
    floor = params.min_usable_region()
    if region < floor:
        raise ConfigError(
            f"dependent window needs region >= {floor}, got {region}")
    mi = params.maxinc
    return 3 * (region - floor) * mi, 3 * (region + 1) * mi + 2 * mi - 1


def to_residue(value: int, params: CounterParams) -> int:
    """Store a value as its non-negative remainder modulo ``maxbound``."""
    return value % params.maxbound


def check_free(value: int, region: int, params: CounterParams) -> int:
    """Reset an out-of-window free value to the window minimum.

    Total over all integers; in-window values pass through untouched. This is
    the self-correction step: after corruption the counter restarts from the
    smallest value a well-behaved process in this region could hold.
    """
    if region < 0:
        free_window(region, params)  # raises the window's ConfigError
    # free_window's bounds, computed in place as in lift_free: checks run
    # on every write
    mi = params.maxinc
    lo = 3 * region * mi
    if value < lo or value > lo + 5 * mi - 1:
        return lo
    return value


def check_dep(value: int, region: int, params: CounterParams) -> int:
    """Reset an out-of-window dependent value to the window minimum."""
    # dep_window's bounds, computed in place as in lift_dep
    mi = params.maxinc
    lo = 3 * (region - 2 - params.max_r) * mi
    if lo < 0:
        dep_window(region, params)  # raises the window's ConfigError
    if value < lo or value > 3 * (region + 1) * mi + 2 * mi - 1:
        return lo
    return value


def lift_free(residue: int, region: int, params: CounterParams) -> int:
    """Recover a free counter's value from its residue at ``region``.

    Returns the unique integer congruent to ``residue`` inside the free
    window, or the window minimum when no lift lands inside (which only
    happens after corruption). O(1): the window is narrower than the modulus,
    so one candidate suffices.
    """
    if region < 0:
        free_window(region, params)  # raises the window's ConfigError
    # free_window's bounds, computed in place: lifts run on every read
    mi = params.maxinc
    lo = 3 * region * mi
    y = lo + (residue - lo) % params.maxbound
    return y if y <= lo + 5 * mi - 1 else lo


def lift_dep(residue: int, region: int, params: CounterParams) -> int:
    """Recover a dependent cell's value from its residue at ``region``.

    Same scheme as :func:`lift_free` over the (wider) dependent window. The
    window is exactly a third of the modulus, so the lift is still unique.
    """
    # dep_window's bounds, computed in place as in lift_free
    mi = params.maxinc
    lo = 3 * (region - 2 - params.max_r) * mi
    if lo < 0:
        dep_window(region, params)  # raises the window's ConfigError
    y = lo + (residue - lo) % params.maxbound
    return y if y <= 3 * (region + 1) * mi + 2 * mi - 1 else lo


def fits_free(residue: int, region: int, params: CounterParams) -> bool:
    """True when some value congruent to ``residue`` lies in the free window."""
    return lift_free(residue, region, params) % params.maxbound == residue


def bits_required(maxinc: int, max_r: int) -> int:
    """Bits needed to store one residue: ceil(log2(maxbound))."""
    return (maxbound_of(maxinc, max_r) - 1).bit_length()
