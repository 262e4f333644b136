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
from typing import Optional

from . import trace as tr
from .counters import bits_required
from .errors import ConfigError
from .transform import Cell

KINDS = ("overwrite_free", "overwrite_dep", "insert_dep", "delete_dep",
         "scramble_var", "overwrite_msg", "delete_msg")


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
            order; ``field`` falls back to the k-th declared cell field when
            the message lacks it.
        delete_msg: k.
    value: residue (or variable value) the corruption writes, where it
        applies.
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
        return _APPLY[self.kind](self, kern)


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
        flds = sorted(msg.cells)
        if not flds:
            return False, {}
        fld = flds[k % len(flds)]
    old = msg.cells[fld]
    msg.cells[fld] = entry.value
    return True, {"mid": msg.mid, "field": fld, "old": old, "new": entry.value}


def _apply_delete_msg(entry: FaultEntry, kern) -> tuple[bool, dict]:
    k = entry.target
    mids = sorted(kern.in_flight)
    if not mids:
        return False, {}
    msg = kern.in_flight.pop(mids[k % len(mids)])
    return True, {"mid": msg.mid, "dst": msg.dst, "msg_kind": msg.kind}


_APPLY = {
    "overwrite_free": _apply_overwrite_free,
    "overwrite_dep": _apply_overwrite_dep,
    "insert_dep": _apply_insert_dep,
    "delete_dep": _apply_delete_dep,
    "scramble_var": _apply_scramble_var,
    "overwrite_msg": _apply_overwrite_msg,
    "delete_msg": _apply_delete_msg,
}


def _check_residue(prog, where: str, value, fams) -> None:
    """``value`` must fit a register of every family in ``fams``."""
    for fam in fams:
        params = prog.families[fam]
        bits = bits_required(params.maxinc, params.max_r)
        if not (isinstance(value, int) and 0 <= value < 1 << bits):
            raise ConfigError(
                f"{where}: value {value!r} is no residue of family {fam!r}, "
                f"whose {bits}-bit registers hold 0 to {(1 << bits) - 1}")


def validate_entries(prog, entries) -> None:
    """Reject statically malformed fault plans before the run starts. A
    fault that writes a counter must write a residue its family's register
    can hold."""
    for i, e in enumerate(entries):
        where = f"fault {i} ({e.kind})"
        if e.kind not in KINDS:
            raise ConfigError(f"{where}: unknown fault kind")
        if e.when_kind not in ("region", "step"):
            raise ConfigError(f"{where}: when_kind must be 'region' or 'step'")
        if e.when < 0:
            raise ConfigError(f"{where}: negative schedule point")
        if e.kind in ("overwrite_msg", "delete_msg"):
            if e.pid is not None:
                raise ConfigError(f"{where}: message faults take no pid")
            if e.kind == "overwrite_msg":
                fld = e.target[1]
                fams = [decl.cell_fields[fld] for decl in prog.msgs.values()
                        if fld in decl.cell_fields]
                if not fams:
                    raise ConfigError(
                        f"{where}: no message kind has a cell field {fld!r}")
                _check_residue(prog, where, e.value, fams)
            continue
        if e.pid is None or not 0 <= e.pid < prog.n:
            raise ConfigError(f"{where}: pid {e.pid!r} out of range")
        if e.kind == "overwrite_free":
            if e.target not in prog.init(e.pid).free:
                raise ConfigError(
                    f"{where}: pid {e.pid} has no free counter {e.target!r}")
            _check_residue(prog, where, e.value, [prog.free_cells[e.target]])
        elif e.kind == "insert_dep":
            if e.target not in prog.colls:
                raise ConfigError(f"{where}: unknown collection {e.target!r}")
            _check_residue(prog, where, e.value, [prog.colls[e.target].family])
        elif e.kind in ("overwrite_dep", "delete_dep"):
            coll, k = e.target
            if coll not in prog.colls:
                raise ConfigError(f"{where}: unknown collection {coll!r}")
            if not isinstance(k, int) or k < 0:
                raise ConfigError(f"{where}: bad cell selector {k!r}")
            if e.kind == "overwrite_dep":
                _check_residue(prog, where, e.value,
                               [prog.colls[coll].family])
        elif e.kind == "scramble_var":
            if e.target not in prog.var_domains:
                raise ConfigError(
                    f"{where}: variable {e.target!r} has no declared domain "
                    "to scramble within")


def _third_bounds(maxbound: int, third: int) -> tuple[int, int]:
    lo = third * maxbound // 3
    hi = (third + 1) * maxbound // 3
    return lo, hi


def make_campaign(prog, *, fault_regions, seed: int,
                  per_family: int = 1) -> tuple[list[FaultEntry], int]:
    """Build a corruption campaign guaranteed to hit every counter family in
    every third of its modulus.

    For each family and each third of [0, maxbound), ``per_family`` entries
    write a residue from that third into a slot of the family: a free
    counter where the family has one, otherwise an inserted dependent cell
    (both always apply). On top of that coverage core, one best-effort entry
    per applicable structural kind (overwrite_dep, delete_dep, scramble_var,
    overwrite_msg, delete_msg) adds churn; those may hit nothing and then
    record applied=False.

    Returns (entries, fstop) where fstop is the last region any entry fires
    in. Schedules are drawn from ``fault_regions``, which must be non-empty.
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
    fstop = max(e.when for e in entries)
    return entries, fstop
