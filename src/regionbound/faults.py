"""Transient state-corruption faults and campaign generation.

A fault overwrites, inserts, or deletes part of one process's state (a free
counter, a cell or a variable) or an in-flight message at a scheduled point
in the run. Clocks are never touched: the model is state corruption under a
correct timing substrate. A fault is an edit of one part of a snapshot, a
process's ``PROC`` dict or the in-flight ``MsgRow`` rows:
:meth:`FaultEntry.apply` returns the edited part, which the simulator loads
back through the loader every snapshot goes through, and which the fault
event records. Nothing here reads or writes a simulator.

Every entry is fully determined up front (no randomness inside ``apply``),
so a scenario plus seed still fixes the whole run. Dynamic slot selectors
("the k-th live cell") resolve against whatever exists at firing time and
report ``applied=False`` when nothing matches, which the trace records
verbatim.
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from . import trace as tr
from .counters import bits_required
from .errors import ConfigError, is_int


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled corruption.

    when_kind: "region" fires when the global region first equals ``when``;
        "step" fires at the top of step ``when``.
    target: kind-specific.
        overwrite_free: free-counter name.
        overwrite_dep / delete_dep: (collection, k) picking the k-th live
            cell in cid order (modulo the live count).
        insert_dep: collection name.
        scramble_var: variable name.
        overwrite_msg: (k, field) picking the k-th in-flight message in mid
            order; when the message lacks ``field``, the k-th of its fields
            whose register holds ``value`` stands in, if it has one.
        delete_msg: k.
    value: what the corruption writes, where it applies: a residue that
        fits the target family's register for overwrite_free, insert_dep,
        overwrite_dep and overwrite_msg; a member of the variable's declared
        domain for scramble_var.
    pid: owning process, or None for message faults.
    """

    when_kind: str
    when: int
    kind: str
    target: object
    pid: Optional[int] = None
    value: Optional[object] = None
    tag: object = None
    age: int = 0
    note: dict = field(default_factory=dict)

    def apply(self, prog, part, region: Optional[int],
              next_cid: int) -> Optional[dict]:
        """This fault's edit of ``part`` of a snapshot, the
        :data:`.trace.PROC` of process ``pid`` at ``region`` or, for a
        message fault, the in-flight :class:`.trace.MsgRow` rows in mid
        order, with ``next_cid`` the next
        cell id. Returns the edited part as the fault event records it,
        ``{"proc": ...}``, ``{"msg": row}`` or ``{"mid": m}`` of a deleted
        message, or None when the selector finds nothing."""
        part, kind, value = deepcopy(part), self.kind, self.value
        if kind == "overwrite_free":
            part["free"][self.target] = value
        elif kind == "insert_dep":
            part["colls"][self.target].append([
                next_cid, value, max(0, region - self.age),
                tr.canon(self.tag)])
        elif kind == "scramble_var":
            part["vars"][self.target] = tr.canon(value)
        elif kind in ("overwrite_dep", "delete_dep"):
            coll, k = self.target
            rows = part["colls"][coll]
            if not rows:
                return None
            if kind == "delete_dep":
                del rows[k % len(rows)]
            else:
                rows[k % len(rows)][1] = value  # the cell's residue
        else:  # a message fault picks the k-th row in flight
            k = self.target if kind == "delete_msg" else self.target[0]
            if not part:
                return None
            msg = tr.MsgRow._make(part[k % len(part)])
            if kind == "delete_msg":
                return {"mid": msg.mid}
            fld = self.target[1]
            if fld not in msg.cells:  # the k-th that can hold value stands in
                fams = {f: prog.families[fam] for f, fam
                        in prog.msgs[msg.kind].cell_fields.items()}
                flds = [f for f in sorted(msg.cells) if value
                        < 1 << bits_required(fams[f].maxinc, fams[f].max_r)]
                if not flds:
                    return None
                fld = flds[k % len(flds)]
            return {"msg": list(msg._replace(cells={**msg.cells, fld: value}))}
        return {"proc": part}


def _is_nat(v) -> bool:
    return is_int(v) and v >= 0


def _is_str(v) -> bool:
    return isinstance(v, str)


def _pair(first, second):
    return lambda t: (isinstance(t, (list, tuple)) and len(t) == 2
                      and first(t[0]) and second(t[1]))


class _Kind(NamedTuple):
    """The shape of one fault kind's entries. Selectors ``k`` are
    non-negative integers."""

    target: str  # the shape ``target`` must have, as the error names it
    fits: Callable
    writes_residue: bool  # so ``value`` must be a register's residue
    record: str  # the one key of an applied fault's detail: what it edits


_KINDS = {
    "overwrite_free": _Kind("a free-counter name", _is_str, True, "proc"),
    "overwrite_dep": _Kind("a [collection, k] pair", _pair(_is_str, _is_nat),
                           True, "proc"),
    "insert_dep": _Kind("a collection name", _is_str, True, "proc"),
    "delete_dep": _Kind("a [collection, k] pair", _pair(_is_str, _is_nat),
                        False, "proc"),
    "scramble_var": _Kind("a variable name", _is_str, False, "proc"),
    "overwrite_msg": _Kind("a [k, field] pair", _pair(_is_nat, _is_str), True,
                           "msg"),
    "delete_msg": _Kind("an integer k", _is_nat, False, "mid"),
}


def validate_entries(prog, entries) -> None:
    """Reject statically malformed fault plans before the run starts.

    Each entry's fields must have the types and shape its kind needs, its
    target must exist, and the value it writes must fit: a residue its
    family's register can hold, or a member of a variable's domain.
    """
    for i, e in enumerate(entries):
        kind = _KINDS.get(e.kind) if _is_str(e.kind) else None
        if kind is None:
            raise ConfigError(f"fault {i}: unknown fault kind {e.kind!r}")
        where = f"fault {i} ({e.kind})"
        if e.when_kind not in ("region", "step"):
            raise ConfigError(f"{where}: when_kind must be 'region' or 'step'")
        for name in ("when", "age"):
            if not _is_nat(getattr(e, name)):
                raise ConfigError(f"fault {i}.{name} must be a non-negative "
                                  f"integer, got {getattr(e, name)!r}")
        if not kind.fits(e.target):
            raise ConfigError(f"fault {i}.target must be {kind.target} for "
                              f"{e.kind}, got {e.target!r}")
        if kind.writes_residue and not is_int(e.value):
            raise ConfigError(f"fault {i}.value must be an integer residue "
                              f"for {e.kind}, got {e.value!r}")
        if kind.record != "proc":
            if e.pid is not None:
                raise ConfigError(f"{where}: message faults take no pid")
        elif not (is_int(e.pid) and 0 <= e.pid < prog.n):
            raise ConfigError(f"fault {i}.pid must be a process id below "
                              f"{prog.n}: {e.pid!r} out of range")
        if e.kind == "overwrite_free":
            if e.target not in prog.init(e.pid).free:
                raise ConfigError(
                    f"{where}: pid {e.pid} has no free counter {e.target!r}")
            fams = [prog.free_cells[e.target]]
        elif e.kind in ("overwrite_dep", "delete_dep", "insert_dep"):
            coll = e.target if e.kind == "insert_dep" else e.target[0]
            if coll not in prog.colls:
                raise ConfigError(f"{where}: unknown collection {coll!r}")
            fams = [prog.colls[coll].family]
        elif e.kind == "overwrite_msg":
            fams = [decl.cell_fields[e.target[1]] for decl in prog.msgs.values()
                    if e.target[1] in decl.cell_fields]
            if not fams:
                raise ConfigError(f"{where}: no message kind has a cell "
                                  f"field {e.target[1]!r}")
        elif e.kind == "scramble_var":
            if e.target not in prog.var_domains:
                raise ConfigError(
                    f"{where}: variable {e.target!r} has no declared domain "
                    "to scramble within")
            if e.target not in prog.init(e.pid).vars:
                raise ConfigError(
                    f"{where}: pid {e.pid} has no variable {e.target!r}")
            if not any(type(v) is type(e.value) and v == e.value
                       for v in prog.var_domains[e.target]):
                raise ConfigError(
                    f"{where}: value {e.value!r} is outside the declared "
                    f"domain of {e.target!r}")
        if not kind.writes_residue:
            continue
        for fam in fams:
            params = prog.families[fam]
            bits = bits_required(params.maxinc, params.max_r)
            if not 0 <= e.value < 1 << bits:
                raise ConfigError(
                    f"{where}: value {e.value!r} is no residue of family "
                    f"{fam!r}, whose {bits}-bit registers hold 0 to "
                    f"{(1 << bits) - 1}")


def _third_bounds(maxbound: int, third: int) -> tuple[int, int]:
    lo = third * maxbound // 3
    hi = (third + 1) * maxbound // 3
    return lo, hi


def make_campaign(prog, *, fault_regions, seed: int,
                  per_family: int = 1) -> list[FaultEntry]:
    """Build a corruption campaign guaranteed to hit every counter family in
    every third of its modulus.

    For each family and each third of [0, maxbound), ``per_family`` entries
    write a residue from that third into a slot of the family: a free
    counter where the family has one, otherwise an inserted dependent cell
    (both always apply). On top of that coverage core, one best-effort entry
    per applicable structural kind (overwrite_dep, delete_dep, scramble_var,
    overwrite_msg, delete_msg) adds churn; those may hit nothing and then
    record applied=False.

    Schedules are drawn from ``fault_regions``, which must be non-empty.
    """
    regions = sorted(fault_regions)
    if not regions:
        raise ConfigError("fault campaign needs at least one fault region")
    rng = random.Random(seed)

    free_slots: dict[str, list[tuple[int, str]]] = {}
    for pid in range(prog.n):
        for name in prog.init(pid).free:
            free_slots.setdefault(prog.free_cells[name], []).append((pid, name))
    coll_slots: dict[str, list[str]] = {}
    for coll, decl in prog.colls.items():
        coll_slots.setdefault(decl.family, []).append(coll)

    entries: list[FaultEntry] = []
    for fam, params in sorted(prog.families.items()):
        if fam not in free_slots and fam not in coll_slots:
            raise ConfigError(
                f"family {fam!r} has no free counter or collection slot; "
                "a campaign cannot guarantee corrupting it")
        for third in range(3):
            lo, hi = _third_bounds(params.maxbound, third)
            for _ in range(per_family):
                value = rng.randrange(lo, hi)
                when = rng.choice(regions)
                if fam in free_slots:
                    pid, name = rng.choice(free_slots[fam])
                    entries.append(FaultEntry(
                        "region", when, "overwrite_free", name, pid=pid,
                        value=value, note={"family": fam, "third": third}))
                else:
                    coll = rng.choice(coll_slots[fam])
                    entries.append(FaultEntry(
                        "region", when, "insert_dep", coll,
                        pid=rng.randrange(prog.n), value=value,
                        tag=["bogus", third], age=rng.randrange(2),
                        note={"family": fam, "third": third}))

    for fam, colls in sorted(coll_slots.items()):
        params = prog.families[fam]
        coll = rng.choice(colls)
        pid = rng.randrange(prog.n)
        k = rng.randrange(4)
        entries.append(FaultEntry(
            "region", rng.choice(regions), "overwrite_dep", (coll, k),
            pid=pid, value=rng.randrange(params.maxbound),
            note={"family": fam}))
        entries.append(FaultEntry(
            "region", rng.choice(regions), "delete_dep", (coll, k), pid=pid,
            note={"family": fam}))
    for name, domain in sorted(prog.var_domains.items()):
        owners = [pid for pid in range(prog.n) if name in prog.init(pid).vars]
        entries.append(FaultEntry(
            "region", rng.choice(regions), "scramble_var", name,
            pid=rng.choice(owners), value=rng.choice(list(domain))))
    if prog.msgs:
        fam_of = {kind: decl.cell_fields for kind, decl in prog.msgs.items()}
        any_field = sorted({fld for flds in fam_of.values() for fld in flds})
        if any_field:
            fld = rng.choice(any_field)
            fams = [prog.families[flds[fld]] for flds in fam_of.values()
                    if fld in flds]
            entries.append(FaultEntry(
                "region", rng.choice(regions), "overwrite_msg",
                (rng.randrange(4), fld),
                value=rng.randrange(fams[0].maxbound)))
        entries.append(FaultEntry(
            "region", rng.choice(regions), "delete_msg", rng.randrange(4)))

    validate_entries(prog, entries)
    return entries
