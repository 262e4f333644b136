"""Transient state-corruption faults and campaign generation.

A fault overwrites, inserts, or deletes part of one process's counter state
(or an in-flight message) at a scheduled point in the run. Clocks are never
touched: the model is state corruption under a correct timing substrate.

Every entry is fully determined up front (no randomness inside ``apply``),
so a scenario plus seed still fixes the whole run. Dynamic slot selectors
("the k-th live cell") resolve against whatever exists at firing time and
report ``applied=False`` when nothing matches, which the trace records
verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from . import trace as tr
from .counters import bits_required
from .errors import ConfigError, is_int
from .transform import Cell


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

    def apply(self, kern) -> tuple[bool, dict]:
        return _KINDS[self.kind].apply(self, kern)


def _apply_overwrite_free(entry: FaultEntry, kern) -> tuple[bool, dict]:
    proc = kern.procs[entry.pid]
    old = proc.free[entry.target]
    proc.free[entry.target] = entry.value
    return True, {"old": old, "new": entry.value}


def _pick_cell(entry: FaultEntry, kern):
    coll, k = entry.target
    store = kern.procs[entry.pid].colls[coll]
    cids = sorted(store)
    if not cids:
        return None, None
    cid = cids[k % len(cids)]
    return cid, store


def _apply_overwrite_dep(entry: FaultEntry, kern) -> tuple[bool, dict]:
    cid, store = _pick_cell(entry, kern)
    if cid is None:
        return False, {}
    old = store[cid].value
    store[cid].value = entry.value
    return True, {"coll": entry.target[0], "cid": cid,
                  "old": old, "new": entry.value}


def _apply_insert_dep(entry: FaultEntry, kern) -> tuple[bool, dict]:
    proc = kern.procs[entry.pid]
    cid = kern.next_cid
    kern.next_cid += 1
    created_local = max(0, proc.region - entry.age)
    created_global = max(0, kern.g_region - entry.age)
    proc.colls[entry.target][cid] = Cell(entry.value, created_local,
                                         created_global, tr.canon(entry.tag))
    return True, {"coll": entry.target, "cid": cid, "new": entry.value,
                  "tag": tr.canon(entry.tag), "created_local": created_local,
                  "created_global": created_global}


def _apply_delete_dep(entry: FaultEntry, kern) -> tuple[bool, dict]:
    cid, store = _pick_cell(entry, kern)
    if cid is None:
        return False, {}
    old = store.pop(cid).value
    return True, {"coll": entry.target[0], "cid": cid, "old": old}


def _apply_scramble_var(entry: FaultEntry, kern) -> tuple[bool, dict]:
    proc = kern.procs[entry.pid]
    old = proc.vars.get(entry.target)
    proc.vars[entry.target] = tr.canon(entry.value)
    return True, {"old": tr.canon(old), "new": tr.canon(entry.value)}


def _apply_overwrite_msg(entry: FaultEntry, kern) -> tuple[bool, dict]:
    k, fld = entry.target
    mids = sorted(kern.in_flight)
    if not mids:
        return False, {}
    msg = kern.in_flight[mids[k % len(mids)]]
    if fld not in msg.cells:
        fams = kern.msg_fams[msg.kind]
        flds = [f for f in sorted(msg.cells) if entry.value
                < 1 << bits_required(fams[f].maxinc, fams[f].max_r)]
        if not flds:
            return False, {}
        fld = flds[k % len(flds)]
    old = msg.cells[fld]
    # a new dict: the message shares its old one with the recorded send
    kern.in_flight[msg.mid] = msg._replace(cells={**msg.cells, fld: entry.value})
    return True, {"mid": msg.mid, "field": fld, "old": old, "new": entry.value}


def _apply_delete_msg(entry: FaultEntry, kern) -> tuple[bool, dict]:
    k = entry.target
    mids = sorted(kern.in_flight)
    if not mids:
        return False, {}
    msg = kern.in_flight.pop(mids[k % len(mids)])
    return True, {"mid": msg.mid, "dst": msg.dst, "msg_kind": msg.kind}


def _is_nat(v) -> bool:
    return is_int(v) and v >= 0


def _is_str(v) -> bool:
    return isinstance(v, str)


def _pair(first, second):
    return lambda t: (isinstance(t, (list, tuple)) and len(t) == 2
                      and first(t[0]) and second(t[1]))


class _Kind(NamedTuple):
    """How one fault kind fires, and the shape of its entries. Selectors
    ``k`` are non-negative integers."""

    apply: Callable
    target: str  # the shape ``target`` must have, as the error names it
    fits: Callable
    writes_residue: bool  # so ``value`` must be a register's residue


_KINDS = {
    "overwrite_free": _Kind(_apply_overwrite_free, "a free-counter name",
                            _is_str, True),
    "overwrite_dep": _Kind(_apply_overwrite_dep, "a [collection, k] pair",
                           _pair(_is_str, _is_nat), True),
    "insert_dep": _Kind(_apply_insert_dep, "a collection name", _is_str, True),
    "delete_dep": _Kind(_apply_delete_dep, "a [collection, k] pair",
                        _pair(_is_str, _is_nat), False),
    "scramble_var": _Kind(_apply_scramble_var, "a variable name", _is_str,
                          False),
    "overwrite_msg": _Kind(_apply_overwrite_msg, "a [k, field] pair",
                           _pair(_is_nat, _is_str), True),
    "delete_msg": _Kind(_apply_delete_msg, "an integer k", _is_nat, False),
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
        if e.kind in ("overwrite_msg", "delete_msg"):
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
        entries.append(FaultEntry(
            "region", rng.choice(regions), "scramble_var", name,
            pid=rng.randrange(prog.n), value=rng.choice(list(domain))))
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
