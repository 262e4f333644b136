"""Simulation machinery shared by the bounded kernel and the unbounded oracle.

Both sides run the same protocol over the same network and clocks: messages
in flight and in inboxes, cell expiry, arrivals, region entry after a clock
tick (:meth:`Sim._move_clocks`, overridden by neither) with the lag-aware
budget refill and the message-lifetime drop at every global region change,
the action-facing context API and send path, and the snapshot form of the
state, which is how both start (:meth:`Sim._load`) and what both take at the
end of a step. A process is loaded and written in that form by one pair of
methods (:meth:`Sim._load_proc`, :meth:`Sim._proc_state`) and a message by
another (:meth:`Sim._load_msg`, :meth:`Sim._msg_rows`); a fault is an edit
of one such part between the two, after a tick and before arrivals. They
differ only in counter arithmetic, in where the delivery draws come from,
and in what becomes of an effect.

A message in flight or in an inbox is a ``trace.MsgRow`` tuple, its cells
in this side's arithmetic; a change puts a new tuple in its place, never
mutating one. Protocols read messages through the lifted :class:`MsgView`.

A cell expires once its owner's region passes its creation region by more
than the collection's expiry. The program creates a cell at its owner's
current region, so only a region change can age one, and every region change
sweeps its process. A cell can also arrive already stale from outside the
program: in a loaded snapshot, or in a process a fault edited (an insert
with an old ``age``), which is loaded back the same way. Every process that
:meth:`Sim._load_proc` loads is flagged in ``Sim.may_hold_stale``, and only
a flagged process is swept again, at the region it holds the cell in, before
it next acts or enters a region, whichever comes first; so no stale cell
reaches a region shift. The kernel's start is a loaded snapshot, so it
sweeps each process once, emptily.

* One context, :class:`Ctx`, and one send path serve both sides, checks
  included. Counter arithmetic and the delivery draws stay per side, in
  the simulator hooks ``_held_free``, ``_held_dep``, ``_read_free``,
  ``_read_dep``, ``_write_free``, ``_write_dep``, ``_stored``, ``_shift``,
  ``_encode`` and ``_delivery`` (see :class:`Sim`).
* Every effect is built by its kind's emitter, ``Sim.emit_<kind>``, which
  takes the fields ``trace.EVENTS`` declares by name and builds the plain
  tuple ``(step, kind, *fields)`` in declaration order, and goes to
  ``emit``: the kernel appends it to the trace, the replayer checks it
  against the next recorded event.
"""

from __future__ import annotations

from itertools import compress, count
from operator import gt
from typing import Optional

from . import trace as tr
from .errors import KernelInvariantError, ProtocolBug
from .transform import Cell, ProcState


class MsgView:
    """Read-only message payload with counter fields lifted for the reader."""

    __slots__ = ("mid", "src", "kind", "_cells", "_vars")

    def __init__(self, mid, src, kind, cells, vars):
        self.mid = mid
        self.src = src
        self.kind = kind
        self._cells = cells
        self._vars = vars

    def cell(self, fld: str) -> int:
        return self._cells[fld]

    def cell_fields(self) -> list[str]:
        return sorted(self._cells)

    def var(self, name: str):
        return self._vars[name]


_ANY = object()  # Ctx.first_cell's "any tag"
_new = tuple.__new__  # builds a named tuple from its fields in order


class Ctx:
    """Action-facing API over one process's state during one activation.

    The same class serves both sides, :meth:`mint` and :meth:`fold` (the
    two writes of a free counter, neither of which lowers it) included. It
    reads and writes counters only through its simulator's hooks
    ``_read_free``, ``_read_dep``, ``_write_free`` and ``_write_dep``.

    A run makes one context, a local of its step loop, and rebinds its
    ``proc``, ``pid``, ``step``, ``d``, ``u1`` and ``u2`` at every
    activation, so a guard or body must not keep it past the activation it
    runs in. No simulator holds the context: the context holds its
    simulator, and an attribute the other way would be a cycle that
    outlives the run until the cycle collector finds it.
    """

    __slots__ = ("sim", "proc", "pid", "step", "d", "u1", "u2")

    def __init__(self, sim, proc, step, d, u1, u2):
        self.sim = sim
        self.proc = proc
        self.pid = proc.pid
        self.step = step
        self.d = d
        self.u1 = u1
        self.u2 = u2

    @property
    def n(self) -> int:
        return self.sim.prog.n

    @property
    def region(self) -> int:
        return self.proc.region

    @property
    def neighbors(self) -> tuple:
        return self.sim.prog.neighbors[self.pid]

    def free(self, name: str) -> int:
        return self.sim._read_free(self.proc.free[name], self.proc.region,
                                   self.sim.free_fams[name])

    def can_mint(self) -> bool:
        """Whether the family budget still pays for one :meth:`mint`."""
        return self.sim.budgets[self.sim.prog.budget_family] >= self.d

    def mint(self, name: str, floor: int = 0) -> int:
        """Spend ``d`` from the family budget and raise free counter
        ``name`` to ``max(value, floor) + d``; returns that value."""
        sim, fam = self.sim, self.sim.prog.budget_family
        sim.budgets[fam] -= self.d
        if sim.budgets[fam] < 0:
            raise KernelInvariantError(
                f"step {self.step}: family {fam!r} spent past its per-region "
                f"growth budget")
        sim.emit_spend(family=fam, amount=self.d)
        return self._raise_free(name, floor, self.d)

    def fold(self, name: str, value: int) -> int:
        """Raise free counter ``name`` to ``max(value_now, value)``, which
        costs no budget; returns that value."""
        return self._raise_free(name, value, 0)

    def _raise_free(self, name: str, floor: int, inc: int) -> int:
        sim, value = self.sim, max(self.free(name), floor) + inc
        held, res, lifted, corrected = sim._write_free(
            value, self.proc.region, sim.free_fams[name])
        self.proc.free[name] = held
        sim.emit_wfree(pid=self.pid, name=name, residue=res, lifted=lifted,
                       corrected=corrected)
        return value

    def cells(self, coll: str) -> list[tuple]:
        """Live cells as (cid, value, tag, age) with age in owner regions."""
        sim, r = self.sim, self.proc.region
        read, fam = sim._read_dep, sim.coll_fams[coll]
        return [(cid, read(c.value, r, fam), c.tag, r - c.created_local)
                for cid, c in sorted(self.proc.colls[coll].items())]

    def create_cell(self, coll: str, value: int, tag=None) -> int:
        """Create a cell of ``coll`` holding ``value`` at this process's
        region; returns its id."""
        if coll not in self.proc.colls:
            raise ProtocolBug(f"undeclared collection {coll!r}")
        sim, r = self.sim, self.proc.region
        held, res, lifted, corrected = sim._write_dep(value, r,
                                                      sim.coll_fams[coll])
        cid = sim.next_cid
        sim.next_cid += 1
        tag = tr.canon(tag)
        self.proc.colls[coll][cid] = Cell(held, r, tag)
        sim.emit_dcreate(pid=self.pid, coll=coll, cid=cid, residue=res,
                         lifted=lifted, created_local=r, tag=tag,
                         corrected=corrected)
        return cid

    def remove_cell(self, coll: str, cid: int) -> None:
        del self.proc.colls[coll][cid]
        self.sim.emit_dremove(pid=self.pid, coll=coll, cid=cid, reason="stmt")

    def var(self, name: str):
        return self.proc.vars[name]

    def set_var(self, name: str, value) -> None:
        if name not in self.proc.vars:
            raise ProtocolBug(f"pid {self.pid} holds no variable {name!r}")
        value = tr.canon(value)
        self.proc.vars[name] = value
        self.sim.emit_var(pid=self.pid, name=name, value=value)

    def first_cell(self, coll: str, tag=_ANY) -> Optional[tuple]:
        """The live cell of ``coll`` with the lowest id, among those tagged
        ``tag`` when one is given, as (cid, value, tag, age) like
        :meth:`cells`; None if there is none. Only that cell is lifted."""
        store = self.proc.colls[coll]
        cid = None
        for key, c in store.items():
            if (tag is _ANY or c.tag == tag) and (cid is None or key < cid):
                cid = key
        if cid is None:
            return None
        c, r = store[cid], self.proc.region
        return (cid, self.sim._read_dep(c.value, r, self.sim.coll_fams[coll]),
                c.tag, r - c.created_local)

    def has_cell(self, coll: str, tag=_ANY) -> bool:
        """Whether ``coll`` holds a live cell, tagged ``tag`` when one is
        given; lifts nothing."""
        store = self.proc.colls[coll]
        if tag is _ANY:
            return bool(store)
        for c in store.values():
            if c.tag == tag:
                return True
        return False

    def first_msg(self, kind: str) -> Optional[MsgView]:
        inbox = self.sim.inboxes[self.pid]
        first = None
        for mid, msg in inbox.items():
            if msg.kind == kind and (first is None or mid < first):
                first = mid
        if first is None:
            return None
        msg, read, r = inbox[first], self.sim._read_dep, self.proc.region
        fams = self.sim.msg_fams[kind]
        return MsgView(first, msg.src, kind,
                       {fld: read(held, r, fams[fld])
                        for fld, held in msg.cells.items()}, msg.vars)

    def consume(self, mid: int) -> None:
        del self.sim.inboxes[self.pid][mid]
        self.sim.emit_consume(mid=mid, pid=self.pid)

    def send(self, dst: int, kind: str, cells: dict, vars: Optional[dict] = None) -> None:
        if dst == self.pid or dst not in self.neighbors:
            raise ProtocolBug(
                f"step {self.step}: pid {self.pid} sends to non-neighbor {dst}")
        self.sim.send_from(self, (dst,), kind, cells, vars or {})

    def broadcast(self, kind: str, cells: dict, vars: Optional[dict] = None) -> None:
        self.sim.send_from(self, self.neighbors, kind, cells, vars or {})

    def peek_free(self, pid: int, name: str) -> int:
        """Free counter ``name`` of process ``pid``, read in this side's
        arithmetic."""
        sim, proc = self.sim, self.sim.procs[pid]
        return sim._read_free(proc.free[name], proc.region,
                              sim.free_fams[name])

    def mark(self, kind: str, data=None) -> None:
        self.sim.emit_mark(mark_kind=kind, pid=self.pid, data=tr.canon(data))


class Sim:
    """Program, family maps, state and the phases that touch no counter.

    :meth:`_load` builds the state (``procs``, ``inboxes``, ``in_flight``,
    ``budgets``, the id counters and the clocks ``t``, ``g_region``,
    ``locals`` and ``regions``) from a snapshot. Subclasses set ``step``
    and implement ``emit(ev)`` and the hooks of their arithmetic:
    ``_held_free(res, region, fam)`` and ``_held_dep`` give what a loaded
    residue is held as; ``_read_free(held, region, fam)`` and ``_read_dep``
    give the value a held counter stands for; ``_write_free(value, region,
    fam)`` and ``_write_dep`` give ``(held, residue, lifted, corrected)``,
    what a write holds and what its event records; :meth:`_stored` and
    :meth:`_shift`; and the two of :meth:`send_from`: ``_encode(kind,
    cells)`` gives the residues a ``send`` records, in field order, and the
    cells its messages hold; ``_delivery()`` gives the next destination's
    ``(arrival, drop)`` step, one of them None. A message enters
    ``in_flight`` only through :meth:`_put_in_flight`, which files it
    under the step it arrives or is lost at; it may leave by any route.
    """

    def __init__(self, prog, lifetime: int, snap: dict):
        self.prog = prog
        self.lifetime = lifetime  # message lifetime in global regions
        self.maxinc = prog.families[prog.budget_family].maxinc  # the largest d
        self.free_fams = {name: prog.families[fam]
                          for name, fam in prog.free_cells.items()}
        self.coll_fams = {coll: prog.families[decl.family]
                          for coll, decl in prog.colls.items()}
        self.msg_fams = {kind: {fld: prog.families[fam]
                                for fld, fam in decl.cell_fields.items()}
                         for kind, decl in prog.msgs.items()}
        # step -> ids of the messages that arrive or are lost at that step;
        # ids that have since left ``in_flight`` are skipped when it comes
        self.due: dict[int, list[int]] = {}
        # pids that may hold a stale cell no region change has swept yet
        self.may_hold_stale: set[int] = set()
        self._load(snap)

    def _load(self, snap: dict) -> None:
        """Build the state ``snap`` records, through :meth:`_load_proc` and
        :meth:`_load_msg`."""
        self.t = snap["t"]
        self.g_region = snap["g_region"]
        self.regions = list(snap["regions"])
        self.locals = list(snap["locals"])
        self.budgets = dict(snap["budgets"])
        self.next_mid = snap["next_mid"]
        self.next_cid = snap["next_cid"]
        self.procs = [self._load_proc(pid, pstate)
                      for pid, pstate in enumerate(snap["procs"])]
        self.in_flight: dict[int, tr.MsgRow] = {}
        for row in snap["in_flight"]:
            self._put_in_flight(self._load_msg(row))
        self.inboxes: list[dict[int, tr.MsgRow]] = [
            {m.mid: m for m in map(self._load_msg, rows)}
            for rows in snap["inboxes"]]

    def _load_proc(self, pid: int, pstate: dict) -> ProcState:
        """Process ``pid`` as ``pstate``, a :data:`.trace.PROC`, records it,
        each residue held through ``_held_free`` or ``_held_dep`` at its
        region, flagged in ``may_hold_stale`` (state from outside the program
        may hold a stale cell); no loaded cell id is handed out again."""
        proc = ProcState(pid, self.regions[pid])
        for name, res in pstate["free"].items():
            proc.free[name] = self._held_free(res, proc.region,
                                              self.free_fams[name])
        proc.colls = {coll: {} for coll in self.prog.colls}
        for coll, rows in pstate["colls"].items():
            fam = self.coll_fams[coll]
            for row in map(tr.CellRow._make, rows):
                proc.colls[coll][row.cid] = Cell(
                    self._held_dep(row.residue, proc.region, fam),
                    row.created_local, row.tag)
                self.next_cid = max(self.next_cid, row.cid + 1)
        proc.vars = dict(pstate["vars"])
        self.may_hold_stale.add(pid)
        return proc

    def _load_msg(self, row: list) -> tr.MsgRow:
        """The message of ``row``, a :class:`.trace.MsgRow`, each cell held
        through ``_held_dep`` at its destination's region."""
        row = tr.MsgRow._make(row)
        fams, region = self.msg_fams[row.kind], self.regions[row.dst]
        return row._replace(cells={fld: self._held_dep(res, region, fams[fld])
                                   for fld, res in row.cells.items()})

    def _stored(self, fam, value: int) -> int:
        """The residue a bounded run stores for counter ``value``."""
        raise NotImplementedError

    def _state(self) -> dict:
        """Clock, process and network state as a snapshot records it."""
        return {"t": self.t, "g_region": self.g_region,
                "regions": list(self.regions), "locals": list(self.locals),
                "procs": list(map(self._proc_state, self.procs)),
                "in_flight": self._msg_rows(self.in_flight),
                "inboxes": [self._msg_rows(box) for box in self.inboxes],
                "next_mid": self.next_mid, "next_cid": self.next_cid,
                "budgets": dict(self.budgets)}

    def _proc_state(self, proc: ProcState) -> dict:
        """``proc`` as a snapshot records it, a :data:`.trace.PROC`."""
        res = self._stored
        return {"free": {name: res(self.free_fams[name], value)
                         for name, value in proc.free.items()},
                "colls": {coll: [list(tr.CellRow(
                                     cid, res(self.coll_fams[coll], c.value),
                                     c.created_local, tr.canon(c.tag)))
                                 for cid, c in sorted(store.items())]
                          for coll, store in proc.colls.items()},
                "vars": dict(proc.vars)}

    def _msg_rows(self, store: dict[int, tr.MsgRow]) -> list:
        rows = []
        for mid, m in sorted(store.items()):
            fams = self.msg_fams[m.kind]
            rows.append(list(m._replace(cells={
                fld: self._stored(fams[fld], value)
                for fld, value in sorted(m.cells.items())})))
        return rows

    def _expire_cells(self, proc) -> None:
        for coll, decl in self.prog.colls.items():
            store = proc.colls[coll]
            if not store:
                continue
            oldest = proc.region - decl.expiry  # cells created before it expire
            stale = [cid for cid, cell in store.items()
                     if cell.created_local < oldest]
            for cid in sorted(stale):
                del store[cid]
                self.emit_dremove(pid=proc.pid, coll=coll, cid=cid,
                                  reason="expired")

    def _sweep_flagged(self, proc) -> None:
        """Expire ``proc``'s cells, at its region, if something from outside
        the program may have left one stale since its last sweep: before it
        acts, and before it enters a region, so that no stale cell reaches
        the shift."""
        if proc.pid in self.may_hold_stale:
            self.may_hold_stale.discard(proc.pid)
            self._expire_cells(proc)

    def send_from(self, ctx: Ctx, dsts, kind: str, cells: dict,
                  vars: dict) -> None:
        """Check and encode the payload once, then post one message to each
        of ``dsts`` in order, each with its own delivery and ``cells``.
        :meth:`Ctx.send` and :meth:`Ctx.broadcast` both come here."""
        decl = self.prog.msgs.get(kind)
        if decl is None:
            raise ProtocolBug(f"undeclared message kind {kind!r}")
        if not decl.cell_fields.keys() >= cells.keys():
            extra = cells.keys() - decl.cell_fields.keys()
            raise ProtocolBug(f"message {kind!r} has no field {min(extra)!r}")
        recorded, held = self._encode(kind, cells)
        if vars:
            vars = tr.canon(vars)
        src, g_region = ctx.pid, self.g_region
        for dst in dsts:
            arrival, drop = self._delivery()
            mid = self.next_mid
            self.next_mid += 1
            self.emit_send(mid=mid, src=src, dst=dst, msg_kind=kind,
                           cells=recorded, vars=vars,
                           send_region_global=g_region, arrival_step=arrival,
                           drop_step=drop)
            self._put_in_flight(_new(tr.MsgRow, (
                mid, src, dst, kind, dict(held), vars, g_region, arrival,
                drop)))

    def _put_in_flight(self, msg: tr.MsgRow) -> None:
        """File ``msg`` under the one step it arrives or is lost at: the
        kernel draws exactly one, and ``validate`` refuses a row with two."""
        self.in_flight[msg.mid] = msg
        step = msg.arrival_step if msg.drop_step is None else msg.drop_step
        self.due.setdefault(step, []).append(msg.mid)

    def _arrivals(self) -> None:
        due = self.due.pop(self.step, None)
        if due is None:
            return
        for mid in sorted(due):
            msg = self.in_flight.pop(mid, None)
            if msg is None:  # dropped or delivered already
                continue
            if msg.drop_step == self.step:
                self.emit_drop(mid=mid, reason="lost")
            else:
                self.inboxes[msg.dst][mid] = msg
                self.emit_arrive(mid=mid)

    def _shift(self, proc, new_region: int) -> list[tuple]:
        """Move ``proc`` into ``new_region`` in this side's arithmetic;
        returns the change rows its ``rc`` event records."""
        raise NotImplementedError

    def _move_clocks(self, t: int, g_region: int, locals, regions) -> None:
        """Enter the regions a clock tick reached: every process whose region
        grew, in pid order, is swept if flagged, shifted and then swept, and
        a new global region refills the budgets and drops expired
        messages."""
        before = self.regions
        self.t, self.locals, self.regions = t, locals, regions
        if regions != before:  # both lists, so equal regions compare equal
            procs = self.procs
            for pid in compress(count(), map(gt, regions, before)):
                proc, new = procs[pid], regions[pid]
                self._sweep_flagged(proc)
                self.emit_rc(pid=pid, new_region=new,
                             changes=tuple(self._shift(proc, new)))
                self._expire_cells(proc)
        if g_region != self.g_region:
            self.g_region = g_region
            self._on_global_region()

    def _on_global_region(self) -> None:
        """Budget refill and message-horizon drop on entering ``g_region``."""
        # Refill one increment short when a process still lags the new
        # global region: a leader may then draw on two consecutive refills
        # before the laggard's window catches up, and the window top leaves
        # room for exactly 2*maxinc - 1 of growth above the leader's floor.
        lag = any(p.region < self.g_region for p in self.procs)
        for fam, params in self.prog.families.items():
            self.budgets[fam] = params.maxinc - 1 if lag else params.maxinc
        horizon = self.g_region - self.lifetime
        for mid in sorted(self.in_flight):
            if self.in_flight[mid].send_region_global < horizon:
                del self.in_flight[mid]
                self.emit_drop(mid=mid, reason="expired")
        for box in self.inboxes:
            for mid in sorted(box):
                if box[mid].send_region_global < horizon:
                    del box[mid]
                    self.emit_drop(mid=mid, reason="expired")


# Sim.emit_<kind>: takes the kind's declared fields by name only, and emits
# them as a plain tuple in declaration order
for _kind, _event in tr.EVENTS.items():
    _fields = ", ".join(_event._fields[2:])
    exec(f"def emit_{_kind}(self, *, {_fields}):\n"
         f"    self.emit((self.step, {_kind!r}, {_fields}))", _scope := {})
    setattr(Sim, f"emit_{_kind}", _scope[f"emit_{_kind}"])
