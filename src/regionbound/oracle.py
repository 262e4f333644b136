"""Unbounded-counter replay used to check bounded runs.

The replayer reconstructs plain-integer state from a trace snapshot, then
re-executes the recorded schedule: same acting process, same draws, same
message delivery timing. Counters, however, are kept as arbitrary-precision
integers with no windows, checks, or reductions. At every recorded effect it
computes what the unbounded program would have written and requires the
bounded trace to agree modulo the family modulus (and, for lifted fields,
exactly). The first disagreement raises :class:`OracleDivergence`. So does a
schedule the kernel cannot have drawn: a row naming no process, a pid named
twice in one aligned block of n steps (the kernel activates each process
once per block, in a freshly shuffled order), a row whose ``d``, ``u1`` or
``u2`` lies outside the range the kernel draws it from, a send with both or
neither of an arrival and a drop step, or an event past the last row. The
trace's shape is not checked here: the replayer takes a kernel-made trace or
one that :func:`.analysis.validate` has checked against the program.

The network, inboxes, cell expiry, region entry, budget refill,
message-horizon drop, context, send path, snapshot layout and the loading
of state are the kernel's own, from :mod:`.sim`: the replayer reads each
tick's clocks from the recorded ``clock`` event and enters the regions it
reaches as the kernel does, reads each message's delivery from its recorded
``send`` (:meth:`Replayer._delivery`), and its ``emit`` checks each effect
instead of recording it. As in the kernel, :meth:`Replayer.run` is the one
step loop: it checks each tick's clock record, then each row's schedule
and draws, sweeps the acting process (``_sweep_flagged``) and compares the
action the reference selects, inline. It makes one context, a local that
no replayer attribute holds, and each activation rebinds it to the
recorded process, step and draws. An exception that
protocol code raises in the reference run is a divergence at its step,
naming the action. The counter algebra stays independent of the
kernel's, in the replayer's own simulator hooks: ``_read_free``/
``_read_dep`` return plain integers as held,
``_write_free``/``_write_dep`` keep them and take residues with
``% maxbound`` for the comparison, and its own region raise
(:meth:`Replayer._shift`) stands in for ``region_shift``. The only lifts
are in ``_held_free``/``_held_dep``, which hold the residues of the loaded
snapshot as integers.

Replaying from the initial snapshot checks that a fault-free bounded run is
the unbounded run reduced pointwise. Replaying a suffix from a later
snapshot, lifted back to integers, is the convergence check: after faults
stop and windows have moved on, the bounded run must again shadow the
unbounded dynamics started from the lifted state.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import indexOf, itemgetter, ne

from . import trace as tr
from .counters import lift_dep, lift_free
from .sim import Ctx, Sim
from .transform import choose_action

_NO_EVENT = ("bounded trace records no event where the reference run "
             "produces one")


def _mismatch(got: tuple, ev: tuple) -> str:
    """How the recorded event ``got`` differs from the reference ``ev``:
    both by their declarations, and, for two events of one kind, the first
    field they differ in."""
    got, ev = tr.named(got), tr.named(ev)
    detail = f"recorded event {got!r} != reference {ev!r}"
    if got.kind == ev.kind:
        fld, have, want = next(item for item in zip(got._fields, got, ev)
                               if item[1] != item[2])
        detail += f"; field {fld!r}: recorded {have!r}, reference {want!r}"
    return detail


class OracleDivergence(Exception):
    def __init__(self, step: int, detail: str):
        self.step = step
        self.detail = detail
        super().__init__(f"step {step}: {detail}")


class Replayer(Sim):
    """Replays a kernel-made or validated trace (:func:`.analysis.validate`)
    from its snapshot at ``start_step``, checking every recorded effect."""

    def __init__(self, prog, trace: tr.Trace, start_step: int = 0):
        if start_step not in trace.snapshots:
            raise ValueError(f"trace has no snapshot at step {start_step}")
        super().__init__(prog, trace.meta["lifetime_regions"],
                         trace.snapshots[start_step])
        self.trace = trace
        self.start_step = start_step
        self.sptu = trace.meta["sptu"]
        self.rs = trace.meta["rs"]
        self.step = start_step
        # the events of the step being replayed: events[_cursor:_end]
        self._events = trace.events
        self._cursor = self._end = 0

    # -- trace comparison --------------------------------------------------

    def _fail(self, detail: str):
        raise OracleDivergence(self.step, detail)

    def emit(self, ev: tuple) -> None:
        i = self._cursor
        if i >= self._end:
            self._fail(_NO_EVENT)
        self._cursor = i + 1
        if (got := self._events[i]) != ev:
            self._fail(_mismatch(got, ev))

    # -- counter arithmetic: plain integers, no windows, checks or reductions
    # The load hooks are the only lifts, and look ``lift_free``/``lift_dep``
    # up when called, as the kernel's read hooks do.

    def _held_free(self, res: int, region: int, fam) -> int:
        return lift_free(res, region, fam)

    def _held_dep(self, res: int, region: int, fam) -> int:
        return lift_dep(res, region, fam)

    def _read_free(self, held: int, region: int, fam) -> int:
        return held

    _read_dep = _read_free

    def _write_free(self, value: int, region: int, fam) -> tuple:
        return value, value % fam.maxbound, value, False

    _write_dep = _write_free

    # -- messaging ---------------------------------------------------------

    def _encode(self, kind: str, cells: dict) -> tuple[dict, dict]:
        fams = self.msg_fams[kind]
        return {fld: cells[fld] % fams[fld].maxbound
                for fld in sorted(cells)}, cells

    def _delivery(self) -> tuple:
        """The kernel's draws, read off the send record at the cursor, which
        :func:`.analysis.validate` has checked sets exactly one of them: a
        send's last two fields. Any other record gives neither, and the
        send fails to match it."""
        i = self._cursor
        if i < self._end and (got := self._events[i])[1] == tr.EV_SEND:
            return got[-2], got[-1]
        return None, None

    # -- region entry ------------------------------------------------------

    def _shift(self, proc, new_r: int) -> list[tuple]:
        """Raise each free counter below the new window floor to it, in
        integers; a counter at or above the floor keeps its value. Returns
        the change rows, as ``region_shift`` does."""
        changes = []
        free = proc.free
        for name, old in free.items():
            fam = self.free_fams[name]
            floor = 3 * new_r * fam.maxinc
            if old < floor:
                m = fam.maxbound
                if floor % m != old % m:
                    changes.append(("free", None, name, old % m, floor % m,
                                    floor, False))
                free[name] = floor
        proc.region = new_r
        return changes

    def _stored(self, fam, value: int) -> int:
        return value % fam.maxbound

    def _compare_snapshot(self, snap: dict) -> None:
        for key, want in self._state().items():
            have = snap.get(key)
            if key in ("procs", "inboxes") and have != want:
                for pid, (h, w) in enumerate(zip(have, want)):
                    if h != w:
                        self._fail(f"pid {pid}: snapshot {key} entry {h} != "
                                   f"reference {w}")
            if have != want:
                self._fail(f"snapshot {key} {have} != reference {want}")

    def run(self) -> int:
        """Replay to the end of the trace; returns the number of steps checked.

        Raises OracleDivergence at the first disagreement between the
        recorded bounded run and the unbounded reference dynamics, and at
        the step holding the first fault from its start on, which the
        prelude finds by one C-level scan that stops there. The step loop
        checks each step's clock record and activation inline.
        """
        rows, events, snapshots = self.trace.rows, self._events, self.trace.snapshots
        nev, n, rs, sptu = len(events), self.prog.n, self.rs, self.sptu
        procs, due, actions, maxinc = (self.procs, self.due, self.prog.actions,
                                       self.maxinc)
        fail = self._fail
        # A step's events are the run of consecutive events at the cursor
        # recorded at that step. ``ends`` holds where each run ends, in order.
        step_of = itemgetter(0)
        ends = list(compress(count(1), map(ne, map(step_of, events),
                                           map(step_of, islice(events, 1, None)))))
        ends.append(nev)
        lo = k = 0
        start = self.start_step
        while lo < nev and events[lo][0] < start:
            lo = ends[k]
            k += 1
        kinds = map(itemgetter(1), islice(events, lo, None))
        try:  # the first fault from the cursor on
            fault_at = lo + indexOf(kinds, tr.EV_FAULT)
        except ValueError:
            fault_at = nev
        # pids already activated in the block of n steps the replay starts in
        acted = {pid for _, pid, *_ in rows[start - start % n:start]}
        checked = 0
        # every activation rebinds its process and draws; a local, so no
        # cycle through the replayer keeps either alive after the run
        ctx = Ctx(self, procs[0], start, 1, 0.0, 0.0)
        for row in rows[start:]:
            step, pid, idx, name, d, u1, u2 = row
            self.step = step
            self._cursor = at = lo
            if lo < nev and events[lo][0] == step:
                lo = ends[k]
                k += 1
                if lo > fault_at:
                    fail("fault injection inside the replayed segment")
            self._end = lo
            if step and step % sptu == 0:  # enter this tick's recorded clocks
                if at >= lo:
                    fail(_NO_EVENT)
                got = events[at]
                self._cursor = at + 1
                if got[1] != tr.EV_CLOCK:
                    fail(f"expected a clock record, got {tr.named(got)!r}")
                _, _, t, g_region, local, recorded = got
                regions = [x // rs for x in local]
                if (t != self.t + 1 or t // rs != g_region
                        or recorded != tuple(regions)):
                    fail(f"clock record {tr.named(got)!r} is internally "
                         "inconsistent")
                self._move_clocks(t, g_region, local, regions)
            if step in due:
                self._arrivals()
            if not 0 <= pid < n:
                fail(f"row names acting pid {pid}, which is no process")
            if step % n == 0:
                acted = set()
            if pid in acted:
                fail(f"row names pid {pid} twice in the block of {n} steps "
                     f"from step {step - step % n}; the kernel activates "
                     "every process once per block")
            acted.add(pid)
            if not (1 <= d <= maxinc and 0 <= u1 < 1 and 0 <= u2 < 1):
                fail(f"row draws d={d}, u1={u1}, u2={u2}; the kernel draws "
                     f"d in [1, {maxinc}] and u1, u2 in [0, 1)")
            proc = procs[pid]
            self._sweep_flagged(proc)
            ctx.proc, ctx.pid, ctx.step, ctx.d, ctx.u1, ctx.u2 = (
                proc, pid, step, d, u1, u2)
            try:
                my_idx = choose_action(actions, ctx)
            except Exception as exc:
                fail(f"reference run raised {exc!r} in a guard")
            if my_idx != (None if idx == tr.SELF_LOOP else idx):
                my_name = "" if my_idx is None else actions[my_idx].name
                fail(f"action selection differs: recorded "
                     f"{name or 'self-loop'!r}, reference enables "
                     f"{my_name or 'self-loop'!r}")
            if my_idx is not None:
                act = actions[my_idx]
                try:
                    act.body(ctx)
                except OracleDivergence:
                    raise
                except Exception as exc:
                    fail(f"reference run raised {exc!r} in {act.name!r}")
            if self._cursor != lo:
                fail(f"bounded trace records extra event "
                     f"{tr.named(events[self._cursor])!r}")
            checked += 1
            if step + 1 in snapshots:
                self.step = step + 1
                self._compare_snapshot(snapshots[step + 1])
        if lo < nev:
            fail(f"bounded trace records event {tr.named(events[lo])!r} past "
                 "its last row")
        return checked
