import dataclasses
import gc
import io
import weakref
from collections import Counter

import pytest

from regionbound import analysis, faults, scenario
from regionbound import kernel as kernel_mod
from regionbound import oracle as oracle_mod
from regionbound import trace as tr
from regionbound.counters import free_window, to_residue
from regionbound.errors import ConfigError, KernelInvariantError, ProtocolBug
from regionbound.kernel import Kernel
from regionbound.oracle import OracleDivergence, Replayer
from regionbound.sim import Ctx, Sim
from regionbound.transform import ActionSpec

from conftest import PROTOCOLS, build_scenario, run_scenario

SIDES = ("kernel", "oracle")


def dump(trace):
    buf = io.StringIO()
    trace.write_jsonl(buf)
    return buf.getvalue()


def test_same_seed_gives_byte_identical_traces(any_protocol):
    sc = build_scenario(any_protocol)
    a = dump(run_scenario(sc, seed=5))
    b = dump(run_scenario(sc, seed=5))
    assert a == b


def test_different_seed_diverges():
    sc = build_scenario("logical_clocks")
    assert dump(run_scenario(sc, seed=5)) != dump(run_scenario(sc, seed=6))


def test_jsonl_round_trip(any_protocol):
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    text = dump(trace)
    again = tr.Trace.read_jsonl(io.StringIO(text))
    assert again.meta == trace.meta
    assert again.events == trace.events
    assert again.rows == trace.rows
    assert again.snapshots == trace.snapshots
    assert dump(again) == text


def test_every_process_acts_once_per_block():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    n = sc.n
    for start in range(0, sc.cfg.total_steps - n, n):
        block = [row[1] for row in trace.rows[start:start + n]]
        assert sorted(block) == list(range(n))


def test_every_process_acts_within_any_two_block_window():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    n = sc.n
    window = 2 * n - 1
    pids = [row[1] for row in trace.rows]
    for start in range(len(pids) - window + 1):
        assert set(pids[start:start + window]) == set(range(n))


def test_family_spend_stays_within_budget_per_region():
    sc = build_scenario("mutual_exclusion")
    trace = run_scenario(sc)
    budgets = {name: p.maxinc for name, p in sc.prog.families.items()}
    spent = Counter()
    for ev in map(tr.named, trace.events):
        if ev.kind == tr.EV_CLOCK and ev.t % sc.cfg.rs == 0:
            spent.clear()
        elif ev.kind == tr.EV_SPEND:
            spent[ev.family] += ev.amount
            assert spent[ev.family] <= budgets[ev.family]


def test_fault_free_runs_never_clamp_a_write(any_protocol):
    # the point of the budget: without injected faults, every value a
    # process writes already sits inside the target window, so no write
    # is ever corrected down to the window floor
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    assert not sc.has_faults
    clamps = [ev for ev in map(tr.named, trace.events)
              if ev.kind in (tr.EV_WFREE, tr.EV_DCREATE) and ev.corrected]
    assert clamps == []


def test_messages_never_arrive_past_lifetime(any_protocol):
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    lifetime = trace.meta["lifetime_regions"]
    sent = {}
    g_region = trace.meta["start_region"]
    for ev in map(tr.named, trace.events):
        if ev.kind == tr.EV_CLOCK:
            g_region = ev.g_region
        elif ev.kind == tr.EV_SEND:
            sent[ev.mid] = ev.send_region_global
        elif ev.kind == tr.EV_ARRIVE:
            assert g_region - sent[ev.mid] <= lifetime


def test_region_entry_follows_each_tick_in_pid_order(any_protocol):
    """A clock event is followed at once by the rc events of exactly the
    pids whose region grew, in pid order, each followed only by that pid's
    expiry sweep. In a fault-free run nothing else sweeps a cell."""
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    assert not sc.has_faults and sc.cfg.drift.kind == "bounded_jitter"
    by_step = {}
    for ev in map(tr.named, trace.events):
        by_step.setdefault(ev.step, []).append(ev)
    regions = trace.snapshots[0]["regions"]
    entered = swept = 0
    for clock in map(tr.named, trace.iter_events(tr.EV_CLOCK)):
        first, *rest = by_step[clock.step]
        assert first == clock
        k = 0
        while k < len(rest) and (rest[k].kind == tr.EV_RC or (
                rest[k].kind == tr.EV_DREMOVE and rest[k].reason == "expired")):
            k += 1
        entry, after = rest[:k], rest[k:]
        grew = [pid for pid, (old, new) in enumerate(zip(regions, clock.regions))
                if new > old]
        rcs = [ev for ev in entry if ev.kind == tr.EV_RC]
        assert [ev.pid for ev in rcs] == grew
        assert [ev.new_region for ev in rcs] == [clock.regions[p] for p in grew]
        assert not entry or entry[0].kind == tr.EV_RC
        owner = None
        for ev in entry:
            if ev.kind == tr.EV_RC:
                owner = ev.pid
            else:
                assert ev.pid == owner
                swept += 1
        assert not [ev for ev in after if ev.kind == tr.EV_RC or (
            ev.kind == tr.EV_DREMOVE and ev.reason == "expired")]
        entered += len(rcs)
        regions = clock.regions
    assert entered
    if sc.prog.colls:  # every collection expires its cells
        assert swept


def test_run_calls_advance_clocks_once_per_tick_step(monkeypatch):
    """The kernel reaches the tick through the module-level name
    ``kernel.advance_clocks``, once at each step ``step > 0`` with
    ``step % sptu == 0``; perfbench times the tick by wrapping that name."""
    sc = build_scenario("logical_clocks", run_regions=6)
    k = Kernel(sc.cfg, 3)
    calls = []
    real = kernel_mod.advance_clocks

    def counting(*args):
        calls.append(k.step)
        return real(*args)

    monkeypatch.setattr(kernel_mod, "advance_clocks", counting)
    trace = k.run()
    sptu = sc.cfg.sptu
    assert calls == [step for step in range(1, sc.cfg.total_steps)
                     if step % sptu == 0]
    assert calls == [step for step, *_ in trace.iter_events(tr.EV_CLOCK)]


@pytest.mark.parametrize("side", SIDES)
def test_each_activation_calls_choose_action_once(monkeypatch, side):
    """Each side's step loop reaches the action choice through its module's
    name ``choose_action``, once per activation, a suffix replay from its
    first step on; perfbench times the choice by wrapping those names."""
    sc = build_scenario("mutual_exclusion")
    cfg = dataclasses.replace(sc.cfg, snapshot_regions=(20,))
    trace = kernel_mod.run(cfg, 5)
    start = (0 if side == "kernel"
             else analysis.snapshot_step_for_region(trace, 20))
    mod = kernel_mod if side == "kernel" else oracle_mod
    calls = []
    real = mod.choose_action

    def counting(actions, ctx):
        calls.append(ctx.step)
        return real(actions, ctx)

    monkeypatch.setattr(mod, "choose_action", counting)
    if side == "kernel":
        kernel_mod.run(cfg, 5)
    else:
        Replayer(sc.prog, trace, start).run()
    assert calls == list(range(start, cfg.total_steps))


@pytest.mark.parametrize("side", SIDES)
def test_each_activation_sweeps_the_acting_process_once(monkeypatch,
                                                        any_protocol, side):
    """Each side calls ``Sim._sweep_flagged`` once per activation, on the
    acting process, after the region entries of the step, each of which
    calls it once for its process. A sweep skipped or inlined in either
    step loop fails here, so the test that swaps this method for a sweep at
    every activation cannot pass without exercising it."""
    sc = build_scenario(any_protocol)
    trace = None if side == "kernel" else run_scenario(sc)
    calls = []
    real = Sim._sweep_flagged

    def counting(self, proc):
        calls.append((self.step, proc.pid))
        return real(self, proc)

    monkeypatch.setattr(Sim, "_sweep_flagged", counting)
    if trace is None:
        trace = run_scenario(sc)
    else:
        Replayer(sc.prog, trace, 0).run()
    entered = {}
    for step, _, pid, _, _ in trace.iter_events(tr.EV_RC):
        entered.setdefault(step, []).append((step, pid))
    assert calls == [call for step, pid, *_ in trace.rows
                     for call in entered.get(step, []) + [(step, pid)]]


def test_snapshots_bracket_the_run(any_protocol):
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    labels = {snap["label"] for snap in trace.snapshots.values()}
    assert {"start", "final"} <= labels
    assert trace.snapshots[0]["label"] == "start"
    assert trace.snapshots[sc.cfg.total_steps]["label"] == "final"


def _unlabelled(snap):
    return {key: value for key, value in snap.items() if key != "label"}


def test_a_fresh_kernel_holds_the_start_snapshot(any_protocol):
    """The kernel's start is a snapshot, loaded as the replayer loads one."""
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc)
    assert Kernel(sc.cfg, sc.seed)._state() == _unlabelled(trace.snapshots[0])


def test_each_owned_free_counter_starts_at_its_window_floor(any_protocol):
    sc = build_scenario(any_protocol)
    prog, start = sc.prog, sc.cfg.start_region
    procs = run_scenario(sc).snapshots[0]["procs"]
    owned = 0
    for pid, proc in enumerate(procs):
        fams = {name: prog.families[prog.free_cells[name]]
                for name in prog.init(pid).free}
        assert proc["free"] == {
            name: to_residue(free_window(start, fam)[0], fam)
            for name, fam in fams.items()}
        owned += len(fams)
    assert owned


def test_a_replayer_loads_every_snapshot_as_recorded(any_protocol):
    """Loading a snapshot and writing the state back out gives the snapshot,
    mid-run ones with cells and messages in flight included."""
    sc = build_scenario(any_protocol)
    regions = tuple(range(sc.cfg.start_region + 1, sc.cfg.start_region + 40, 4))
    trace = kernel_mod.run(
        dataclasses.replace(sc.cfg, snapshot_regions=regions), sc.seed)
    assert len(trace.snapshots) == len(regions) + 2
    snaps = trace.snapshots.values()
    assert any(snap["in_flight"] for snap in snaps)
    assert not sc.prog.colls or any(rows for snap in snaps
                                    for proc in snap["procs"]
                                    for rows in proc["colls"].values())
    for step, snap in trace.snapshots.items():
        assert Replayer(sc.prog, trace, step)._state() == _unlabelled(snap)


def test_boundary_snapshot_taken_when_requested():
    sc = build_scenario(
        "logical_clocks",
        faults={"mode": "campaign", "regions": [9], "seed": 3},
        run_regions=40)
    trace = run_scenario(sc)
    boundary = sc.derived["boundary_region"]
    labels = [snap["label"] for snap in trace.snapshots.values()]
    assert f"region:{boundary}" in labels


def _labels(trace):
    return {step: snap["label"] for step, snap in trace.snapshots.items()}


def _regions_off_the_run(cfg):
    """Regions no tick of a run of ``cfg`` enters: its start region, the
    one below it and the one past its last."""
    span = cfg.rs * cfg.sptu
    return {"start": cfg.start_region, "below-start": cfg.start_region - 1,
            "past-the-run": cfg.start_region + cfg.total_steps // span}


@pytest.mark.parametrize("where", ["start", "below-start", "past-the-run"])
def test_a_snapshot_region_the_run_never_enters_takes_no_snapshot(where):
    sc = build_scenario("logical_clocks")
    region = _regions_off_the_run(sc.cfg)[where]
    cfg = dataclasses.replace(sc.cfg, snapshot_regions=(region,))
    trace = kernel_mod.run(cfg, sc.seed)
    assert _labels(trace) == {0: "start", cfg.total_steps: "final"}


def test_a_region_entered_at_the_last_step_leaves_only_the_final_snapshot():
    """A region snapshot is taken once its entry step is done; when that
    step is the last, the final snapshot stands in its place."""
    sc = build_scenario("logical_clocks")
    span = sc.cfg.rs * sc.cfg.sptu
    last, before = sc.cfg.start_region + 10, sc.cfg.start_region + 9
    cfg = dataclasses.replace(sc.cfg, total_steps=10 * span + 1,
                              snapshot_regions=(before, last))
    trace = kernel_mod.run(cfg, sc.seed)
    clock = tr.named(list(trace.iter_events(tr.EV_CLOCK))[-1])
    assert (clock.step, clock.g_region) == (cfg.total_steps - 1, last)
    assert _labels(trace) == {0: "start", 9 * span + 1: f"region:{before}",
                              cfg.total_steps: "final"}


@pytest.mark.parametrize("where", ["start", "below-start", "past-the-run"])
def test_a_region_fault_the_run_never_enters_records_no_fault(where):
    sc = build_scenario("logical_clocks")
    inside = sc.cfg.start_region + 2
    plan = tuple(faults.FaultEntry("region", region, "overwrite_free", "cl",
                                   pid=0, value=region)
                 for region in (_regions_off_the_run(sc.cfg)[where], inside))
    trace = kernel_mod.run(dataclasses.replace(sc.cfg, faults=plan), sc.seed)
    fired = [tr.named(ev).detail["proc"]["free"]
             for ev in trace.iter_events(tr.EV_FAULT)]
    assert fired == [{"cl": inside}]


def test_a_region_fault_fires_ahead_of_its_entry_steps_own_faults():
    """Listed first, a step fault still fires after a region fault whose
    region the same step's tick enters; each kind keeps its plan order."""
    sc = build_scenario("logical_clocks")
    region = sc.cfg.start_region + 2
    step = 2 * sc.cfg.rs * sc.cfg.sptu
    listed = (("step", step, 1), ("region", region, 2),
              ("step", step, 3), ("region", region, 4))
    plan = tuple(faults.FaultEntry(kind, when, "overwrite_free", "cl", pid=0,
                                   value=value)
                 for kind, when, value in listed)
    trace = kernel_mod.run(dataclasses.replace(sc.cfg, faults=plan), sc.seed)
    fired = [(ev.step, ev.detail["proc"]["free"]["cl"])
             for ev in map(tr.named, trace.iter_events(tr.EV_FAULT))]
    assert fired == [(step, 2), (step, 4), (step, 1), (step, 3)]
    entered = [ev for ev in map(tr.named, trace.iter_events(tr.EV_CLOCK))
               if ev.g_region == region]
    assert entered[0].step == step


def test_meta_records_the_run_shape(any_protocol):
    sc = build_scenario(any_protocol)
    trace = run_scenario(sc, seed=123)
    meta = trace.meta
    assert meta["protocol"] == any_protocol
    assert meta["n"] == sc.n
    assert meta["seed"] == 123
    assert meta["rs"] == sc.cfg.rs
    assert meta["sptu"] == sc.cfg.sptu
    assert meta["total_steps"] == sc.cfg.total_steps
    assert meta["fault_count"] == 0


def test_run_config_rejects_low_start_region():
    with pytest.raises(ConfigError, match="start_region"):
        build_scenario("logical_clocks", start_region=3)


def test_every_kind_is_emitted_by_name_through_its_emitter(monkeypatch):
    """Each event kind has one emitter, ``Sim.emit_<kind>``, generated from
    its declaration. Over a run and check of every protocol and of the two
    faulted shipped scenarios, the kernel emits all 13 kinds through them
    and the replayer every kind it does not read from the trace (clock and
    fault), and each recorded event holds its fields as they were named."""
    seen = set()

    def checked(kind, emitter):
        def wrapper(self, **fields):
            emitter(self, **fields)
            seen.add((type(self), kind))
            if type(self) is Kernel:
                ev = self.trace.events[-1]
                assert tr.named(ev)._asdict() == {"step": self.step,
                                                  "kind": kind, **fields}
        return wrapper

    for kind in tr.EVENTS:
        name = f"emit_{kind}"
        monkeypatch.setattr(Sim, name, checked(kind, getattr(Sim, name)))
    scens = [build_scenario(p) for p in PROTOCOLS]
    scens += [scenario.load(f"scenarios/{name}.json")
              for name in ("mutex_fault_recovery", "diffusing_ring_faults")]
    for sc in scens:
        trace = run_scenario(sc)
        assert analysis.check(sc, trace).ok
    replayed = set(tr.EVENTS) - {tr.EV_CLOCK, tr.EV_FAULT}
    assert seen == ({(Kernel, kind) for kind in tr.EVENTS}
                    | {(Replayer, kind) for kind in replayed})


@pytest.mark.parametrize("kind", tr.EVENTS)
def test_an_emitter_refuses_a_misspelled_or_missing_field(kind):
    """An emitter takes exactly the declared fields, by name only; any other
    call raises before an event is built."""
    kern = Kernel(build_scenario("logical_clocks").cfg, 5)
    emit = getattr(kern, f"emit_{kind}")
    fields = dict.fromkeys(tr.EVENTS[kind]._fields[2:], 0)
    first, *_ = fields
    missing = {k: v for k, v in fields.items() if k != first}
    for call in ({**missing, f"{first}_": 0}, missing):
        with pytest.raises(TypeError, match=first):
            emit(**call)
    with pytest.raises(TypeError, match="positional"):
        emit(*fields.values())
    assert kern.trace.events == []
    emit(**fields)
    assert kern.trace.events == [(0, kind, *fields.values())]


def test_has_cell_answers_as_first_cell_does(monkeypatch):
    """Guards test a collection through ``has_cell`` in place of
    ``first_cell(...) is None``. On both sides, over a run and check of
    every protocol and of the two faulted shipped scenarios, each call
    gives the answer the lifting read gives."""
    has_cell = Ctx.has_cell
    calls = Counter()

    def checked(ctx, coll, *tag):
        got = has_cell(ctx, coll, *tag)
        assert got == (ctx.first_cell(coll, *tag) is not None), (coll, tag)
        calls[got] += 1
        return got

    monkeypatch.setattr(Ctx, "has_cell", checked)
    scens = [build_scenario(p) for p in PROTOCOLS]
    scens += [scenario.load(f"scenarios/{name}.json")
              for name in ("mutex_fault_recovery", "diffusing_ring_faults")]
    for sc in scens:
        assert analysis.check(sc, run_scenario(sc)).ok
    assert calls[True] and calls[False]


def test_kernel_and_replayer_are_freed_by_reference_counting(any_protocol):
    """No reference cycle keeps a finished simulator alive: with the cycle
    collector off, each is gone once its last name is."""
    sc = build_scenario(any_protocol)
    gc.disable()
    try:
        kern = Kernel(sc.cfg, 5)
        trace = kern.run()
        gone = weakref.ref(kern)
        del kern
        assert gone() is None
        rep = Replayer(sc.prog, trace)
        assert rep.run() == sc.cfg.total_steps
        gone = weakref.ref(rep)
        del rep
        assert gone() is None
    finally:
        gc.enable()


def test_every_activation_sees_its_own_process_and_draws(any_protocol):
    """Each side makes one context per run and rebinds it at every
    activation: every guard and body sees the acting process, the step and
    the draws that the step's row records."""
    sc = build_scenario(any_protocol)
    seen = []  # (sim, sim.step, ctx.step, pid, d, u1, u2, proc) per call

    def spy(fn):
        def called(ctx):
            seen.append((ctx.sim, ctx.sim.step, ctx.step, ctx.pid, ctx.d,
                         ctx.u1, ctx.u2, ctx.proc))
            return fn(ctx)
        return called

    sc.prog.actions[:] = [
        dataclasses.replace(act, body=spy(act.body),
                            guard=act.guard and spy(act.guard))
        for act in sc.prog.actions]
    kern = Kernel(sc.cfg, 5)
    trace = kern.run()
    rep = Replayer(sc.prog, trace)
    assert rep.run() == sc.cfg.total_steps
    acted = {row[0] for row in trace.rows if row[2] != tr.SELF_LOOP}
    for sim in (kern, rep):
        calls = [call[1:] for call in seen if call[0] is sim]
        assert acted <= {call[0] for call in calls}
        for step, *fields, proc in calls:
            row = trace.rows[step]
            assert fields == [row[0], row[1], *row[4:]]
            assert proc is sim.procs[row[1]]


def test_a_message_fault_leaves_its_broadcast_siblings_alone():
    """A broadcast encodes its payload once, yet every message holds its own
    cells: overwriting one leaves the others and every recorded send as
    sent."""
    sc = build_scenario("mutual_exclusion")
    kern = Kernel(sc.cfg, 5)
    ctx = Ctx(kern, kern.procs[0], 0, 1, 0.5, 0.5)
    ctx.broadcast("REQ", {"stamp": ctx.free("clk")})
    sends = [tr.named(ev) for ev in kern.trace.events if ev[1] == tr.EV_SEND]
    assert [ev.dst for ev in sends] == [1, 2, 3]
    sent = [dict(ev.cells) for ev in sends]
    assert sent[0] == sent[1] == sent[2]
    own = {id(m.cells) for m in kern.in_flight.values()}
    assert len(own) == 3 and not own & {id(ev.cells) for ev in sends}
    hit = sorted(kern.in_flight)[1]
    modulus = kern.msg_fams["REQ"]["stamp"].maxbound
    entry = faults.FaultEntry(when_kind="step", when=0, kind="overwrite_msg",
                              target=[1, "stamp"],
                              value=(sent[1]["stamp"] + 1) % modulus)
    kern._apply_fault(entry)
    assert tr.named(kern.trace.events[-1]).detail == {
        "msg": kern._msg_rows({hit: kern.in_flight[hit]})[0]}
    assert kern.in_flight[hit].cells == {"stamp": entry.value}
    for mid, cells in zip(sorted(kern.in_flight), sent):
        if mid != hit:
            assert kern.in_flight[mid].cells == cells
    assert [dict(ev.cells) for ev in sends] == sent


def _mint_side(side: str, d: int, protocol: str = "logical_clocks"):
    """A context over pid 0 of ``protocol`` at step 0 on ``side``, with the
    events it emits collected in a list, and that list."""
    sc = build_scenario(protocol)
    kern = Kernel(sc.cfg, 5)
    if side == "kernel":
        sim = kern
    else:
        kern._snapshot("start")
        sim = Replayer(sc.prog, kern.trace, 0)
    events = []
    sim.emit = events.append  # record every effect instead of checking it
    return Ctx(sim, sim.procs[0], 0, d, 0.5, 0.5), events


@pytest.mark.parametrize("side", SIDES)
def test_a_unicast_to_the_sender_itself_is_a_protocol_bug(side):
    """Even on a complete graph a process is not its own neighbour, and both
    sides refuse the send before it emits anything."""
    ctx, events = _mint_side(side, d=1, protocol="mutual_exclusion")
    assert ctx.neighbors == (1, 2, 3)
    with pytest.raises(ProtocolBug, match="pid 0 sends to non-neighbor 0"):
        ctx.send(0, "REQ", {"stamp": ctx.free("clk")})
    assert events == []


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("above", [-1, 0, 1])
def test_mint_spends_d_then_raises_the_counter_past_its_floor(side, above):
    ctx, events = _mint_side(side, d=2)
    before = ctx.free("cl")
    budget = ctx.sim.budgets["clock"]
    assert ctx.can_mint()
    got = ctx.mint("cl", before + above)
    want = max(before, before + above) + 2
    assert got == want == ctx.free("cl")
    assert ctx.sim.budgets["clock"] == budget - 2
    spend, wfree = map(tr.named, events)
    assert (spend.kind, spend.family, spend.amount) == ("spend", "clock", 2)
    assert (wfree.kind, wfree.name, wfree.lifted, wfree.corrected) == (
        "wfree", "cl", want, False)
    assert wfree.residue == want % ctx.sim.free_fams["cl"].maxbound


@pytest.mark.parametrize("side", SIDES)
def test_fold_spends_nothing_and_never_lowers_a_counter(side):
    ctx, events = _mint_side(side, d=2)
    before = ctx.free("cl")
    budget = ctx.sim.budgets["clock"]
    assert ctx.fold("cl", before - 5) == before == ctx.free("cl")
    assert ctx.fold("cl", before + 1) == before + 1 == ctx.free("cl")
    assert ctx.sim.budgets["clock"] == budget
    assert [(ev.kind, ev.lifted) for ev in map(tr.named, events)] == [
        ("wfree", before), ("wfree", before + 1)]


@pytest.mark.parametrize("side", SIDES)
def test_mint_returns_the_requested_value_even_when_the_write_corrects_it(
        side):
    """A request past the free window is reset to the window floor by the
    kernel's write and kept by the oracle's; either way ``mint`` returns
    what was requested."""
    ctx, events = _mint_side(side, d=1)
    floor = ctx.free("cl")  # the start value is the window floor
    requested = floor + 100 + 1
    assert ctx.mint("cl", floor + 100) == requested
    wfree = tr.named(events[-1])
    if side == "kernel":
        assert (wfree.lifted, wfree.corrected) == (floor, True)
        assert ctx.free("cl") == floor
    else:
        assert (wfree.lifted, wfree.corrected) == (requested, False)
        assert ctx.free("cl") == requested


@pytest.mark.parametrize("side", SIDES)
def test_minting_past_the_budget_is_a_kernel_invariant_error(side):
    ctx, events = _mint_side(side, d=2)
    ctx.sim.budgets["clock"] = 1
    assert not ctx.can_mint()
    with pytest.raises(KernelInvariantError, match="spent past its per-region"):
        ctx.mint("cl")
    assert events == []


@pytest.mark.parametrize("side", SIDES)
def test_only_the_grown_pids_enter_a_region_in_pid_order(side):
    """A clock record in which pids 1 and 3 grow and pid 2 falls (a doctored
    record: the kernel's clocks never go back) shifts pids 1 and 3 alone,
    in pid order; pid 2 keeps its region and its counters."""
    ctx, events = _mint_side(side, d=1, protocol="consensus")
    sim, rs = ctx.sim, build_scenario("consensus").cfg.rs
    r = sim.g_region
    assert sim.regions == [r] * 5
    free = [dict(proc.free) for proc in sim.procs]
    regions = [r, r + 1, r - 1, r + 2, r]
    sim._move_clocks(sim.t + 1, r, [x * rs for x in regions], regions)
    assert [(kind, pid, new_region)
            for _, kind, pid, new_region, _ in events] == [
        ("rc", 1, r + 1), ("rc", 3, r + 2)]
    assert [proc.region for proc in sim.procs] == [r, r + 1, r, r + 2, r]
    assert sim.regions == regions
    assert [proc.free for proc in sim.procs][::2] == free[::2]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("lag", [True, False], ids=["lagging", "level"])
def test_a_new_global_region_refills_one_short_while_a_process_lags(side,
                                                                    lag):
    """Entering a global region refills every family to ``maxinc - 1`` while
    some process is still a region behind it, and to ``maxinc`` otherwise.
    No shipped workload has such a laggard, so this is the only test that
    tells the rule from a refill that always gives ``maxinc``."""
    sc = build_scenario("consensus")
    kern = Kernel(sc.cfg, 5)
    if side == "kernel":
        sim = kern
    else:
        kern._snapshot("start")
        sim = Replayer(sc.prog, kern.trace, 0)
    sim.emit = [].append
    sim.g_region += 1
    for proc in sim.procs:
        proc.region = sim.g_region
    if lag:
        sim.procs[1].region -= 1
    sim._on_global_region()
    assert len(sc.prog.families) > 1
    assert sim.budgets == {fam: params.maxinc - lag
                           for fam, params in sc.prog.families.items()}


def test_a_body_that_mints_unguarded_overspends_in_the_kernel():
    sc = build_scenario("logical_clocks")
    prog = dataclasses.replace(
        sc.prog, actions=[ActionSpec("tick", None, lambda ctx: ctx.mint("cl"))])
    with pytest.raises(KernelInvariantError, match="spent past its per-region"):
        kernel_mod.run(dataclasses.replace(sc.cfg, prog=prog), 5)


def _setting_mood(prog):
    """``prog`` with every body first setting a variable no process
    holds."""
    def wrap(act):
        def body(ctx):
            ctx.set_var("mood", 1)
            act.body(ctx)
        return dataclasses.replace(act, body=body)
    return dataclasses.replace(prog, actions=list(map(wrap, prog.actions)))


def test_a_body_that_sets_an_undeclared_var_aborts_the_kernel_run():
    sc = build_scenario("mutual_exclusion")
    cfg = dataclasses.replace(sc.cfg, prog=_setting_mood(sc.prog))
    with pytest.raises(ProtocolBug, match="holds no variable 'mood'"):
        kernel_mod.run(cfg, 5)


def test_a_body_that_sets_an_undeclared_var_diverges_in_the_replay():
    sc = build_scenario("mutual_exclusion")
    trace = kernel_mod.run(sc.cfg, 5)
    with pytest.raises(OracleDivergence, match=(
            "reference run raised ProtocolBug.*holds no variable 'mood'")):
        Replayer(_setting_mood(sc.prog), trace, 0).run()
