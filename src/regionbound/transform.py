"""Wrapping protocol actions in the bounded-counter discipline.

The pieces here sit between the raw counter arithmetic and the simulation
kernel:

* process-local state (:class:`ProcState`, :class:`Cell`), holding residues
  in the kernel and plain integers in the unbounded reference replay,
* what happens to every stored residue when a process enters a new region
  (:func:`region_shift`, the kernel's ``_shift``),
* deterministic action selection (:func:`choose_action`), shared by both,
  which tests for a handler's waiting message kind before its guard, and
* static validation of a protocol's declarations (:func:`wrap_program`).

Guard and statement code never sees residues directly. Both sides hand it
the same context (:class:`.sim.Ctx`), which reads and writes counters
through its simulator's hooks: the kernel's lift residues into plain
integers on read and range-check then reduce on write, the reference
replay's keep plain integers, so the same protocol code runs unchanged on
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .counters import CounterParams, lift_dep, lift_free
from .errors import ConfigError


@dataclass(frozen=True)
class ActionSpec:
    """One guarded action: ``guard(ctx) -> bool`` and ``body(ctx) -> None``.

    Bodies run only when their guard held; both must be deterministic in the
    context (state plus the step's pre-drawn randomness), and guards only
    read it. A message handler names the ``msg_kind`` it consumes: it is
    enabled while such a message waits and its ``guard``, if not None, holds.
    :func:`choose_action` reads the inbox once per activation.
    """

    name: str
    guard: Optional[Callable]
    body: Callable
    msg_kind: Optional[str] = None


class Cell:
    """One dependent-counter slot: a value, created-at bookkeeping, and an
    optional small tag (e.g. the process a queue entry belongs to).

    ``value`` holds a residue in the bounded run and the true integer in the
    unbounded reference run. The value is immutable while the cell exists;
    mutation is modelled as remove-then-create.
    """

    __slots__ = ("value", "created_local", "tag")

    def __init__(self, value: int, created_local: int, tag=None):
        self.value = value
        self.created_local = created_local
        self.tag = tag


class ProcState:
    """Everything one process owns: free counters, dependent-cell
    collections, plain bounded variables, and its clock position."""

    __slots__ = ("pid", "region", "free", "colls", "vars")

    def __init__(self, pid: int, region: int):
        self.pid = pid
        self.region = region
        self.free: dict[str, int] = {}
        self.colls: dict[str, dict[int, Cell]] = {}
        self.vars: dict[str, object] = {}


def region_shift(
    proc: ProcState,
    new_region: int,
    free_fams: dict[str, CounterParams],
    coll_fams: dict[str, CounterParams],
) -> list[tuple]:
    """Re-anchor every stored residue when ``proc`` enters ``new_region``.

    Free counters: lift at the new region and range-check; a counter that
    fell below the new window floor is raised to it (that is ordinary
    behaviour for an idle counter, indistinguishable from the counter being
    incremented at will). Dependent cells keep their value whenever it still
    lifts congruently; otherwise they are reset to the window floor.

    Returns the change rows, each a plain tuple of
    :data:`.trace.RcChange`'s fields in order. ``corrected`` is True only
    when the outcome is *not* explainable as normal unbounded behaviour (a
    pure raise for free counters, no change for dependent cells), i.e. only
    after corruption.
    """
    old_region = proc.region
    changes: list[tuple] = []

    free = proc.free
    for name, old_res in free.items():
        fam = free_fams[name]
        lifted = lift_free(old_res, new_region, fam)
        # what an uncorrupted counter would do: keep its value, or be raised
        # to the new window floor (free_window's lower bound) if it idled
        # below it
        mirror = max(lift_free(old_res, old_region, fam),
                     3 * new_region * fam.maxinc)
        new_res = lifted % fam.maxbound  # to_residue
        if new_res != old_res or lifted != mirror:
            changes.append(("free", None, name, old_res, new_res, lifted,
                            lifted != mirror))
            free[name] = new_res

    for coll, cells in proc.colls.items():
        if not cells:
            continue
        fam = coll_fams[coll]
        for cid in sorted(cells):
            cell = cells[cid]
            old_res = cell.value
            lifted = lift_dep(old_res, new_region, fam)
            new_res = lifted % fam.maxbound  # to_residue
            if new_res != old_res:
                changes.append(("dep", coll, cid, old_res, new_res,
                                lifted, True))
                cell.value = new_res

    proc.region = new_region
    return changes


def choose_action(actions: list[ActionSpec], ctx) -> Optional[int]:
    """Index of the first enabled action, or None for a self-loop. The inbox
    is read at the first handler, so a handler-free list needs no context."""
    inbox = None
    for idx, act in enumerate(actions):
        kind = act.msg_kind
        if kind is not None:
            if inbox is None:
                inbox = ctx.sim.inboxes[ctx.pid]
            if not inbox:
                continue
            for msg in inbox.values():
                if msg.kind == kind:
                    break
            else:
                continue
        guard = act.guard
        if guard is None or guard(ctx):
            return idx
    return None


def wrap_program(prog) -> None:
    """Validate a protocol's declarations; raises ConfigError.

    Every collection and message field must reference a declared family,
    and a collection's auto-expiry must fire strictly before its family's
    lifetime bound ``r_f`` runs out, with one region of slack for clock
    skew. Every message handler must consume a declared message kind, and
    the budget family must be declared.
    """
    if prog.n < 1:
        raise ConfigError(f"protocol {prog.name}: needs at least one process")
    for cell_name, fam_name in prog.free_cells.items():
        if fam_name not in prog.families:
            raise ConfigError(
                f"protocol {prog.name}: free counter {cell_name!r} references "
                f"undeclared family {fam_name!r}")
    for coll_name, decl in prog.colls.items():
        fam = prog.families.get(decl.family)
        if fam is None:
            raise ConfigError(
                f"protocol {prog.name}: collection {coll_name!r} references "
                f"undeclared family {decl.family!r}")
        if not 1 <= decl.expiry < fam.r_f:
            raise ConfigError(
                f"protocol {prog.name}: collection {coll_name!r} expiry "
                f"{decl.expiry} must be at least 1 and below r_f={fam.r_f} "
                f"of family {decl.family!r}")
    for kind, mdecl in prog.msgs.items():
        for field_name, fam_name in mdecl.cell_fields.items():
            if fam_name not in prog.families:
                raise ConfigError(
                    f"protocol {prog.name}: message {kind!r} field {field_name!r} "
                    f"references undeclared family {fam_name!r}")
    for act in prog.actions:
        if act.msg_kind is not None and act.msg_kind not in prog.msgs:
            raise ConfigError(
                f"protocol {prog.name}: action {act.name!r} handles "
                f"undeclared message kind {act.msg_kind!r}")
    if prog.budget_family not in prog.families:
        raise ConfigError(
            f"protocol {prog.name}: budget family {prog.budget_family!r} undeclared")
    if len(prog.neighbors) != prog.n:
        raise ConfigError(f"protocol {prog.name}: neighbor table size mismatch")
