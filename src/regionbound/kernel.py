"""Deterministic discrete-event simulator for bounded-counter protocols.

One kernel step is: the clock advance (every ``sptu`` steps) and the region
entries it reaches, the step's faults, the arrivals, exactly one process
activation chosen by a seeded shuffled round-robin, and a snapshot if one is
due. Both are keyed by step once: a region fault fires at the step whose
tick enters its region, ahead of that step's own, and a snapshot is taken
once the step before its key is done, where the replayer compares it. The
acting process evaluates its guards on lifted integers and executes the
first enabled action, or self-loops. :meth:`Kernel.run` is the one step
loop: the clock tick and the activation run inline, with the run's
invariants (sizes, generator methods, actions, the row list) bound to locals
once, and each activation calls ``_sweep_flagged`` on the acting process. It
reaches the tick's drift and the action choice through the module-level
names ``advance_clocks`` and ``choose_action``, looked up at each call, so a
rebinding of either (a counting test, perfbench's tracer) sees every call.
It makes one context for the run, a local that no kernel attribute holds,
and each activation rebinds it to the acting process, the step and the
step's draws.

The counter-free machinery (messages, inboxes, cell expiry, arrivals, the
clock state and region entry, budget refill and message-horizon drop, the
context and send path, the snapshot layout and the loading of state) comes
from :mod:`.sim`. The kernel starts from :func:`start_state`, loaded like
any snapshot. :class:`Kernel` adds the residue side through the simulator
hooks: its ``_held_free``/``_held_dep`` keep loaded residues as they are,
its ``_read_free``/``_read_dep`` lift, its ``_write_free``/``_write_dep``
range-check and reduce, ``_encode`` takes residues of a payload and
``_shift`` re-anchors residues on region change (``region_shift``). It
also draws the randomness (each message's delay and loss included, in
``_delivery``) and the clocks, and records every effect in the trace. A
fault is an edit of one part of the state in snapshot form, loaded back as
a snapshot loads (:meth:`Kernel._apply_fault`).

Everything random is drawn from one seeded generator in a fixed order and
recorded in the trace, so a run is a pure function of (config, seed) and the
unbounded reference replay never touches the generator. Integer draws (clock
drift, the activation's ``d``, message delays) go through
:func:`.regions.draw`, which gives exactly ``randint``'s value and generator
state at less cost; the activation's ``d`` is that draw written out in the
step loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import trace as tr
from .counters import (check_dep, check_free, free_window, lift_dep, lift_free,
                       to_residue)
from .errors import ConfigError
from .regions import DriftPolicy, advance_clocks, draw
from .sim import Ctx, Sim
from .transform import ProcState, choose_action, region_shift, wrap_program


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs besides the seed."""

    prog: object
    rs: int
    sptu: int
    start_region: int
    drift: DriftPolicy
    lifetime_regions: int
    loss_probability: float
    max_delay_steps: int
    total_steps: int
    faults: tuple = ()
    snapshot_regions: tuple = ()

    def validate(self) -> None:
        """What the scenario's own field checks cannot see: the program's
        declarations, and message fields whose family must cover the
        message lifetime."""
        wrap_program(self.prog)
        for kind, decl in self.prog.msgs.items():
            for fld, fam in decl.cell_fields.items():
                if self.prog.families[fam].max_r < self.lifetime_regions:
                    raise ConfigError(
                        f"message {kind!r} field {fld!r}: family {fam!r} max_r "
                        f"{self.prog.families[fam].max_r} cannot cover message "
                        f"lifetime {self.lifetime_regions}")


def region_of_step(step: int, start_region: int, rs: int, sptu: int) -> int:
    """The global region during ``step``: a tick every ``sptu`` steps."""
    return (start_region * rs + step // sptu) // rs


def entry_step(region: int, start_region: int, rs: int, sptu: int) -> int:
    """The step whose tick enters ``region``, a region above
    ``start_region``."""
    return (region - start_region) * rs * sptu


def trace_meta(cfg: RunConfig, seed: int) -> dict:
    """The meta record of the trace that ``cfg`` gives under ``seed``."""
    prog = cfg.prog
    return {
        "protocol": prog.name, "n": prog.n, "seed": seed, "rs": cfg.rs,
        "sptu": cfg.sptu, "start_region": cfg.start_region,
        "total_steps": cfg.total_steps,
        "lifetime_regions": cfg.lifetime_regions,
        "loss_probability": cfg.loss_probability,
        "max_delay_steps": cfg.max_delay_steps,
        "drift": {"kind": cfg.drift.kind,
                  "max_step_skew": cfg.drift.max_step_skew},
        "families": {fam: {"maxinc": p.maxinc, "max_r": p.max_r,
                           "maxbound": p.maxbound}
                     for fam, p in prog.families.items()},
        "fault_count": len(cfg.faults),
        "snapshot_regions": list(cfg.snapshot_regions),
    }


def start_state(cfg: RunConfig) -> dict:
    """The step-0 state in snapshot form: every process at the start region,
    the free counters it owns at their window floor; no cells or messages."""
    prog, r, t = cfg.prog, cfg.start_region, cfg.start_region * cfg.rs
    floor = {name: to_residue(free_window(r, prog.families[fam])[0],
                              prog.families[fam])
             for name, fam in prog.free_cells.items()}
    procs = [{"free": {name: floor[name] for name in init.free}, "colls": {},
              "vars": {k: tr.canon(v) for k, v in init.vars.items()}}
             for init in map(prog.init, range(prog.n))]
    return {"t": t, "g_region": r, "regions": [r] * prog.n,
            "locals": [t] * prog.n, "procs": procs, "in_flight": [],
            "inboxes": [[] for _ in procs], "next_mid": 0, "next_cid": 0,
            "budgets": {fam: p.maxinc for fam, p in prog.families.items()}}


class Kernel(Sim):
    def __init__(self, cfg: RunConfig, seed: int):
        super().__init__(cfg.prog, cfg.lifetime_regions, start_state(cfg))
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.step = 0
        start, at = cfg.start_region, (cfg.start_region, cfg.rs, cfg.sptu)
        # step -> the faults fired after its tick, a region's ahead of the
        # step's own, each in plan order; no tick enters the start region
        # or one below it
        self._faults: dict[int, list] = {}
        for e in sorted(cfg.faults, key=lambda e: e.when_kind == "step"):
            if e.when_kind == "step":
                self._faults.setdefault(e.when, []).append(e)
            elif e.when > start:
                self._faults.setdefault(entry_step(e.when, *at), []).append(e)
        # step -> the label of the snapshot taken once the step before is
        # done; a region entered by the last step's tick yields to "final"
        self._labels = {0: "start", **{entry_step(r, *at) + 1: f"region:{r}"
                                       for r in cfg.snapshot_regions
                                       if r > start},
                        cfg.total_steps: "final"}

        self.trace = tr.Trace(meta=trace_meta(cfg, seed))
        self.emit = self.trace.events.append  # the kernel records each event

    # -- counter arithmetic ------------------------------------------------
    # The read hooks look ``lift_free``/``lift_dep`` up when called, so a
    # rebinding of this module's names sees every kernel lift.

    def _held_free(self, res: int, region: int, fam) -> int:
        return res  # the kernel holds residues as stored

    _held_dep = _held_free

    def _read_free(self, held: int, region: int, fam) -> int:
        return lift_free(held, region, fam)

    def _read_dep(self, held: int, region: int, fam) -> int:
        return lift_dep(held, region, fam)

    def _write_free(self, value: int, region: int, fam) -> tuple:
        """Range-check a free-counter write, then reduce it to a residue."""
        checked = check_free(value, region, fam)
        res = checked % fam.maxbound  # to_residue
        return res, res, checked, checked != value

    def _write_dep(self, value: int, region: int, fam) -> tuple:
        """Range-check a new cell's value, then reduce it to a residue."""
        checked = check_dep(value, region, fam)
        res = checked % fam.maxbound  # to_residue
        return res, res, checked, checked != value

    def _stored(self, fam, value: int) -> int:
        return value  # the kernel holds residues already

    # -- trace plumbing ----------------------------------------------------

    def _snapshot(self, label: str) -> None:
        self.trace.snapshots[self.step] = {**self._state(), "label": label}

    # -- messaging ---------------------------------------------------------

    def _encode(self, kind: str, cells: dict) -> tuple[dict, dict]:
        fams = self.msg_fams[kind]
        res = {fld: cells[fld] % fams[fld].maxbound  # to_residue
               for fld in sorted(cells)}
        return res, res

    def _delivery(self) -> tuple:
        """Draw one destination's delay, then whether it is lost."""
        step = self.step + draw(self.rng, 1, self.cfg.max_delay_steps)
        if self.rng.random() < self.cfg.loss_probability:
            return None, step
        return step, None

    # -- region entry and faults ------------------------------------------

    def _shift(self, proc: ProcState, new_region: int) -> list[tuple]:
        return region_shift(proc, new_region, self.free_fams, self.coll_fams)

    def _apply_fault(self, entry) -> None:
        """Edit the part of the state ``entry`` corrupts in snapshot form,
        load it back and record the edited part."""
        pid = entry.pid
        if pid is None:
            part, region = self._msg_rows(self.in_flight), None
        else:
            part, region = self._proc_state(self.procs[pid]), self.regions[pid]
        edit = tr.canon(entry.apply(self.prog, part, region, self.next_cid)
                        or {})
        if "proc" in edit:
            self.procs[pid] = self._load_proc(pid, edit["proc"])
        elif "msg" in edit:  # a row's first field is its mid
            self.in_flight[edit["msg"][0]] = self._load_msg(edit["msg"])
        elif "mid" in edit:
            del self.in_flight[edit["mid"]]
        self.emit_fault(fault_kind=entry.kind, pid=pid,
                        target=tr.canon(entry.target), detail=edit,
                        applied=bool(edit))

    def run(self) -> tr.Trace:
        """The step loop: the clock tick and the activation run inline, with
        the run's invariants bound to locals once."""
        cfg, prog, procs, rng = self.cfg, self.prog, self.procs, self.rng
        n, sptu, rs, drift = prog.n, cfg.sptu, cfg.rs, cfg.drift
        random, bits, shuffle = rng.random, rng.getrandbits, rng.shuffle
        actions, record = prog.actions, self.trace.rows.append
        due, faults, labels = self.due, self._faults, self._labels
        width = self.maxinc  # d is draw(rng, 1, maxinc), made inline
        k = width.bit_length()
        order: list[int] = []
        # every activation rebinds its process and draws; a local, so no
        # cycle through the kernel keeps either alive after the run
        ctx = Ctx(self, procs[0], 0, 1, 0.0, 0.0)
        self._snapshot(labels[0])
        for step in range(cfg.total_steps):
            self.step = step
            if step and step % sptu == 0:
                t = self.t + 1
                local = advance_clocks(self.t, self.locals, rs, drift, rng)
                regions = [x // rs for x in local]
                self.emit_clock(t=t, g_region=t // rs, locals=tuple(local),
                                regions=tuple(regions))
                self._move_clocks(t, t // rs, local, regions)
            if step in faults:
                for entry in faults[step]:
                    self._apply_fault(entry)
            if step in due:
                self._arrivals()
            i = step % n  # one activation, in an order shuffled every n steps
            if i == 0:
                order = list(range(n))
                shuffle(order)
            pid = order[i]
            r = bits(k)
            while r >= width:
                r = bits(k)
            d, u1, u2 = 1 + r, random(), random()
            proc = procs[pid]
            self._sweep_flagged(proc)
            ctx.proc, ctx.pid, ctx.step, ctx.d, ctx.u1, ctx.u2 = (
                proc, pid, step, d, u1, u2)
            idx = choose_action(actions, ctx)
            if idx is None:
                record((step, pid, tr.SELF_LOOP, "", d, u1, u2))
            else:
                act = actions[idx]
                record((step, pid, idx, act.name, d, u1, u2))
                act.body(ctx)
            if step + 1 in labels:
                self.step = step + 1
                self._snapshot(labels[step + 1])
        summary = self.trace.summary
        summary["final_g_region"] = self.g_region
        summary["final_t"] = self.t
        summary["messages_sent"] = self.next_mid
        summary["cells_created"] = self.next_cid
        return self.trace


def run(cfg: RunConfig, seed: int) -> tr.Trace:
    """Simulate one scenario; the trace is a pure function of (cfg, seed)."""
    return Kernel(cfg, seed).run()
