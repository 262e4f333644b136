"""Shared declaration types for the bundled protocols.

A protocol is data: counter family declarations, dependent-cell collection
declarations, message shapes, and a list of guarded actions. The simulation
kernel owns execution; the unbounded reference replay runs the same action
objects against plain-integer state. Protocol code must therefore go through
the context object for every read and write and never assume values are
residues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..counters import CounterParams
from ..errors import ConfigError
from ..transform import ActionSpec


@dataclass(frozen=True)
class CollDecl:
    """A named collection of dependent cells.

    Its ``family`` bounds how stale a value may be at cell creation (r_b)
    and how many regions the cell may then live (r_f). ``expiry`` is the
    automatic removal age in owner regions, which must be below the family's
    r_f. The kernel sweeps out older cells whenever
    the owner changes region, and before an activation only when a fault or
    a snapshot load has touched the owner since it last acted: no other
    cell can age between region changes.
    """

    family: str
    expiry: int


@dataclass(frozen=True)
class MsgDecl:
    """Message shape: which payload fields carry counter values.

    ``cell_fields`` maps field name to counter family; an instance may carry
    any subset of the declared fields. Non-counter payload goes in the
    free-form ``vars`` dict of the send call and must stay in small bounded
    domains.
    """

    cell_fields: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ProcInit:
    """One process's start: the free counters it owns, each of which starts
    at its window floor in the start region, and its variables."""

    free: tuple[str, ...] = ()
    vars: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ProtocolDef:
    name: str
    n: int
    families: dict[str, CounterParams]
    free_cells: dict[str, str]
    colls: dict[str, CollDecl]
    msgs: dict[str, MsgDecl]
    actions: list[ActionSpec]
    budget_family: str
    init: Callable[[int], ProcInit]
    neighbors: tuple[tuple[int, ...], ...]
    var_domains: dict[str, tuple] = field(default_factory=dict)
    safety: Optional[Callable] = None


@dataclass(frozen=True)
class BuildInfo:
    """Everything a protocol builder gets from the scenario.

    ``families`` carries each family's CounterParams (maxinc, r_b, r_f).
    ``params`` holds every name of the protocol module's ``PARAMS``,
    scenario values over defaults. Builders validate that a family's
    bounds cover their staleness and reach needs and raise ConfigError
    naming the family otherwise; :func:`..transform.wrap_program` checks
    each collection's expiry against its family's r_f.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    families: dict[str, CounterParams]
    start_region: int
    lifetime_regions: int
    params: dict

    def family(self, name: str) -> CounterParams:
        try:
            return self.families[name]
        except KeyError:
            raise ConfigError(f"scenario declares no counter family {name!r}") from None

    def require_lookback(self, fam: str, needed: int, why: str) -> None:
        r_b = self.families[fam].r_b
        if r_b < needed:
            raise ConfigError(
                f"family {fam!r}: r_b={r_b} too small for {why} (needs >= {needed})")


def on_msg(name: str, kind: str, body: Callable,
           also: Optional[Callable] = None) -> ActionSpec:
    """Action ``name`` handling the oldest waiting ``kind`` message.

    It is enabled while such a message is in the inbox and ``also(ctx)``, if
    given, holds. It consumes the message, then runs ``body(ctx, m)``.
    """
    def run(ctx):
        m = ctx.first_msg(kind)
        ctx.consume(m.mid)
        body(ctx, m)

    return ActionSpec(name, also, run, msg_kind=kind)


def replace_single(ctx, coll: str, value: int, tag=None) -> None:
    """Make ``value`` the one cell of ``coll``, removing the first live one."""
    cur = ctx.first_cell(coll)
    if cur is not None:
        ctx.remove_cell(coll, cur[0])
    ctx.create_cell(coll, value, tag=tag)

