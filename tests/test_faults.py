"""Fault plans: campaign coverage, validation, and firing behavior."""
import dataclasses
import io
import json
from collections import defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from regionbound import analysis, faults, kernel, oracle, scenario, sim
from regionbound import trace as tr
from regionbound.counters import CounterParams, bits_required
from regionbound.errors import ConfigError, KernelInvariantError, ProtocolBug
from regionbound.protocols.base import ProcInit, ProtocolDef
from regionbound.transform import ActionSpec

from conftest import build_scenario, run_scenario, scenario_doc


def campaign_for(protocol, seed=7):
    sc = build_scenario(protocol)
    start = sc.cfg.start_region
    return sc, faults.make_campaign(
        sc.prog, fault_regions=[start + 3, start + 4], seed=seed)


def test_campaign_covers_every_family_in_every_third(any_protocol):
    sc, entries = campaign_for(any_protocol)
    hit = defaultdict(set)
    for e in entries:
        if "third" not in e.note:
            continue
        fam = e.note["family"]
        params = sc.prog.families[fam]
        third = e.note["third"]
        assert third * params.maxbound // 3 <= e.value
        assert e.value < (third + 1) * params.maxbound // 3
        hit[fam].add(third)
    assert {fam: {0, 1, 2} for fam in sc.prog.families} == dict(hit)


def test_campaign_is_deterministic_per_seed():
    _, a = campaign_for("consensus", seed=3)
    _, b = campaign_for("consensus", seed=3)
    _, c = campaign_for("consensus", seed=4)
    assert a == b
    assert a != c


def test_campaign_entries_pass_static_validation(any_protocol):
    sc, entries = campaign_for(any_protocol)
    faults.validate_entries(sc.prog, entries)


def test_campaign_refuses_a_family_with_no_slot():
    fam = CounterParams(maxinc=2, r_b=3, r_f=0)
    prog = ProtocolDef(
        name="toy", n=2,
        families={"f": fam, "orphan": fam},
        free_cells={"x": "f"}, colls={}, msgs={},
        actions=[ActionSpec("noop", lambda ctx: False, lambda ctx: None)],
        budget_family="f",
        init=lambda pid: ProcInit(free=("x",)),
        neighbors=((1,), (0,)))
    with pytest.raises(ConfigError, match="orphan"):
        faults.make_campaign(prog, fault_regions=[9], seed=1)


def test_campaign_requires_a_fault_region():
    sc = build_scenario("logical_clocks")
    with pytest.raises(ConfigError, match="at least one"):
        faults.make_campaign(sc.prog, fault_regions=[], seed=1)


@pytest.mark.parametrize("patch,msg", [
    (dict(kind="melt"), "unknown fault kind"),
    (dict(when_kind="era"), "when_kind"),
    (dict(when=-2), "negative"),
    (dict(pid=9), "out of range"),
    (dict(pid=None), "out of range"),
    (dict(target="nope"), "no free counter"),
    (dict(kind="overwrite_dep"), r"\.target must be"),
    (dict(value="x"), r"\.value must be"),
    (dict(pid="0"), r"\.pid must be"),
    (dict(age=-1), r"\.age must be"),
])
def test_validate_entries_rejects(patch, msg):
    sc = build_scenario("logical_clocks")
    base = dict(when_kind="region", when=8, kind="overwrite_free",
                target="cl", pid=0, value=1)
    base.update(patch)
    with pytest.raises(ConfigError, match=msg):
        faults.validate_entries(sc.prog, (faults.FaultEntry(**base),))


@pytest.mark.parametrize("kind,target", [
    ("overwrite_free", "clk"), ("insert_dep", "req"),
    ("overwrite_dep", ("req", 0)), ("overwrite_msg", (0, "stamp")),
])
def test_validate_entries_refuses_a_residue_no_register_holds(kind, target):
    sc = build_scenario("mutual_exclusion")
    clk = sc.prog.families["clk"]
    top = 1 << bits_required(clk.maxinc, clk.max_r)  # 512 for maxbound 456
    pid = None if kind == "overwrite_msg" else 0

    def plan(value):
        return (faults.FaultEntry("region", 14, kind, target, pid=pid,
                                  value=value),)

    faults.validate_entries(sc.prog, plan(0))
    faults.validate_entries(sc.prog, plan(top - 1))
    for value in (-1, top, 10 ** 6):
        with pytest.raises(ConfigError, match="no residue of family 'clk'"):
            faults.validate_entries(sc.prog, plan(value))


def test_validate_entries_refuses_an_undeclared_message_field():
    sc = build_scenario("mutual_exclusion")
    entry = faults.FaultEntry("region", 8, "overwrite_msg", (0, "ghost"),
                              value=1)
    with pytest.raises(ConfigError, match="no message kind"):
        faults.validate_entries(sc.prog, (entry,))


def test_validate_entries_rejects_pid_on_message_faults():
    sc = build_scenario("mutual_exclusion")
    entry = faults.FaultEntry("region", 8, "delete_msg", 0, pid=1)
    with pytest.raises(ConfigError, match="no pid"):
        faults.validate_entries(sc.prog, (entry,))


def test_validate_entries_rejects_unknown_collection():
    sc = build_scenario("mutual_exclusion")
    entry = faults.FaultEntry("region", 8, "delete_dep", ("ghost", 0), pid=0)
    with pytest.raises(ConfigError, match="unknown collection"):
        faults.validate_entries(sc.prog, (entry,))


def test_validate_entries_rejects_var_without_domain():
    sc = build_scenario("logical_clocks")
    entry = faults.FaultEntry("region", 8, "scramble_var", "mood",
                              pid=0, value=3)
    with pytest.raises(ConfigError, match="domain"):
        faults.validate_entries(sc.prog, (entry,))


def test_validate_entries_refuses_a_scramble_of_a_variable_its_pid_lacks():
    # only round checker's root (pid 0) holds "done" and "cur_real"
    sc = build_scenario("round_checker")
    entry = faults.FaultEntry("region", 8, "scramble_var", "cur_real", pid=1,
                              value=True)
    faults.validate_entries(sc.prog, (dataclasses.replace(entry, pid=0),))
    with pytest.raises(ConfigError, match="pid 1 has no variable 'cur_real'"):
        faults.validate_entries(sc.prog, (entry,))


def test_no_campaign_scrambles_a_variable_its_pid_lacks(any_protocol):
    sc = build_scenario(any_protocol)
    for seed in range(1, 41):
        for e in campaign_for(any_protocol, seed)[1]:
            if e.kind == "scramble_var":
                assert e.target in sc.prog.init(e.pid).vars, (seed, e)


@pytest.mark.parametrize("value", ["x", None, 99, True, 1.0])
def test_validate_entries_keeps_a_scramble_in_the_domain(value):
    sc = build_scenario("vector_clocks")

    def plan(v):
        return (faults.FaultEntry("region", 8, "scramble_var", "rot",
                                  pid=0, value=v),)

    faults.validate_entries(sc.prog, plan(2))
    with pytest.raises(ConfigError, match="domain"):
        faults.validate_entries(sc.prog, plan(value))


def test_empty_selector_records_applied_false():
    # at the top of step 0 no cell and no message exists yet, so dynamic
    # selectors come up empty and the trace says so
    sc = build_scenario("mutual_exclusion")
    entries = (
        faults.FaultEntry("step", 0, "delete_dep", ("req", 0), pid=0),
        faults.FaultEntry("step", 0, "delete_msg", 2),
    )
    cfg = dataclasses.replace(sc.cfg, faults=entries)
    trace = kernel.run(cfg, seed=11)
    fired = list(trace.iter_events(tr.EV_FAULT))
    assert [ev.applied for ev in fired] == [False, False]
    # no edit gets recorded when nothing matched
    assert [ev.detail for ev in fired] == [{}, {}]


def test_a_message_fault_stands_in_only_a_field_that_holds_its_value():
    # PROMISE's aseq field has 11-bit registers and its bseq field 9-bit
    # ones; neither message has the targeted "promised" field
    regs = {"bseq": CounterParams(3, 6, 3), "aseq": CounterParams(3, 6, 30)}
    prog = SimpleNamespace(families=regs, msgs={"PROMISE": SimpleNamespace(
        cell_fields={"aseq": "aseq", "bseq": "bseq"})})
    cells = tr.MsgRow._fields.index("cells")
    row = list(tr.MsgRow(4, 0, 1, "PROMISE", {"aseq": 7, "bseq": 8}, {}, 38,
                         5, None))

    def fire(k, value, rows):
        entry = faults.FaultEntry("region", 39, "overwrite_msg",
                                  (k, "promised"), value=value)
        edit = entry.apply(prog, rows, None, 0)
        return edit and edit["msg"][cells]

    assert fire(1, 100, [row]) == {"aseq": 7, "bseq": 100}
    assert fire(1, 1500, [row]) == {"aseq": 1500, "bseq": 8}
    assert row[cells] == {"aseq": 7, "bseq": 8}  # the part is left as it was
    row[cells] = {"bseq": 8}
    assert fire(0, 1500, [row]) is None


def test_a_message_fault_writes_no_residue_its_field_cannot_hold():
    # With aseq at r_f 30 its registers take 11 bits and pending's keep 9.
    # The fault finds a PREPARE in flight, which has no "promised" field,
    # and it once wrote 1500 into the 9-bit bseq instead.
    with open("scenarios/consensus_clean.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["families"]["aseq"]["r_f"] = 30
    doc["run_regions"] = 100
    doc["faults"] = {"mode": "list", "entries": [
        {"when_kind": "region", "when": 39, "kind": "overwrite_msg",
         "target": [0, "promised"], "value": 1500}]}
    sc = scenario.parse(doc)
    trace = kernel.run(sc.cfg, sc.seed)
    assert [ev.applied for ev in trace.iter_events(tr.EV_FAULT)] == [False]
    report = analysis.check(sc, trace)
    assert report.ok, report.lines()


def test_faulted_runs_are_reproducible():
    doc = scenario_doc("diffusing", faults={
        "mode": "campaign",
        "regions": [20, 21],
        "seed": 5,
        "per_family": 1,
    }, run_regions=60)
    sc = scenario.parse(doc)

    def dump(seed):
        buf = io.StringIO()
        run_scenario(sc, seed=seed).write_jsonl(buf)
        return buf.getvalue()

    assert dump(3) == dump(3)
    assert dump(3) != dump(4)


def test_fault_events_record_the_plan():
    """One schedule fires every fault: on entering a region, that region's
    faults in scenario order; then, in the same step, that step's faults,
    although the plan lists the step fault first."""
    cfg = build_scenario("logical_clocks").cfg
    entry = (12 - cfg.start_region) * cfg.rs * cfg.sptu  # enters region 12

    def overwrite(when_kind, when, pid, value):
        return {"when_kind": when_kind, "when": when, "kind": "overwrite_free",
                "target": "cl", "pid": pid, "value": value}

    doc = scenario_doc("logical_clocks", faults={
        "mode": "list",
        "entries": [overwrite("step", entry, 0, 5),
                    overwrite("region", 12, 2, 9),
                    overwrite("region", 12, 1, 7)],
    })
    sc = scenario.parse(doc)
    trace = run_scenario(sc)
    clock = next(ev for ev in trace.iter_events(tr.EV_CLOCK)
                 if ev.g_region == 12)
    assert clock.step == entry
    fired = [(ev.step, ev.fault_kind, ev.pid, ev.target, ev.applied,
              ev.detail["proc"]["free"])
             for ev in trace.iter_events(tr.EV_FAULT)]
    assert fired == [(entry, "overwrite_free", 2, "cl", True, {"cl": 9}),
                     (entry, "overwrite_free", 1, "cl", True, {"cl": 7}),
                     (entry, "overwrite_free", 0, "cl", True, {"cl": 5})]


# Fault plans on the shipped mutual-exclusion scenario (start region 11,
# 32 steps per region): region faults in 14..16, step faults in the steps of
# regions 14 and 15, so all fire before the snapshot taken on entering 16.
_CELL_FAULT = st.fixed_dictionaries({
    "when": st.one_of(
        st.tuples(st.just("region"), st.integers(14, 16)),
        st.tuples(st.just("step"), st.integers(96, 159))),
    "kind": st.sampled_from(("insert_dep", "overwrite_dep", "delete_dep")),
    "coll": st.sampled_from(("req", "grants")),
    "pid": st.integers(0, 3),
    "k": st.integers(0, 3),
    "value": st.integers(0, 455),
    "age": st.integers(0, 8),
})


def _entry(f: dict) -> dict:
    entry = {"when_kind": f["when"][0], "when": f["when"][1],
             "kind": f["kind"], "pid": f["pid"]}
    if f["kind"] == "insert_dep":
        entry.update(target=f["coll"], value=f["value"], age=f["age"])
    else:
        entry["target"] = [f["coll"], f["k"]]
        if f["kind"] == "overwrite_dep":
            entry["value"] = f["value"]
    return entry


def _outcome(sc, cfg, seed: int):
    """Trace bytes, convergence verdicts, and the replay from the snapshot
    taken right after the faults (stale cells included) -- or the error."""
    try:
        trace = kernel.run(cfg, seed)
    except (KernelInvariantError, ProtocolBug) as exc:
        return repr(exc)  # the same plan must abort the same way
    buf = io.StringIO()
    trace.write_jsonl(buf)
    lines = analysis.convergence_check(
        sc.prog, trace, sc.derived["fault_stop_region"]).lines()
    start = analysis.snapshot_step_for_region(trace, 16)
    try:
        replayed = oracle.Replayer(sc.prog, trace, start).run()
    except oracle.OracleDivergence as exc:
        replayed = str(exc)
    return buf.getvalue(), lines, replayed


@given(plan=st.lists(_CELL_FAULT, min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
# a stale cell for every pid at region 16: with seed 3, three of them are
# still there in the snapshot and each is swept when its owner next acts
@example(plan=[{"when": ("region", 16), "kind": "insert_dep", "coll": "req",
                "pid": pid, "k": 0, "value": 5, "age": 6}
               for pid in range(4)], seed=3)
@settings(max_examples=25, deadline=None)
def test_flagged_sweep_matches_sweeping_before_every_activation(plan, seed):
    with open("scenarios/mutex_fault_recovery.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["faults"] = {"mode": "list", "entries": [_entry(f) for f in plan]}
    sc = scenario.parse(doc)
    cfg = dataclasses.replace(
        sc.cfg, snapshot_regions=sc.cfg.snapshot_regions + (16,))
    flagged = _outcome(sc, cfg, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim.Sim, "_sweep_flagged",
                   lambda self, proc: self._expire_cells(proc))
        every = _outcome(sc, cfg, seed)
    assert flagged == every


@pytest.mark.parametrize("step,pid", [(157, 0), (158, 1)])
def test_a_stale_insert_is_swept_before_its_owner_enters_a_region(step, pid):
    """A cell inserted older than its collection's expiry, late in region 15
    of the shipped mutex scenario, whose owner enters region 16 before it
    next acts, is swept at its old region before the shift, so the
    dep-lifetime scan never sees it past its forward reach."""
    with open("scenarios/mutex_fault_recovery.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["faults"] = {"mode": "list", "entries": [
        {"when_kind": "step", "when": step, "kind": "insert_dep",
         "target": "grants", "pid": pid, "value": 0, "age": 3}]}
    sc = scenario.parse(doc)
    trace = kernel.run(sc.cfg, sc.seed)
    report = analysis.check(sc, trace)
    assert report.ok, report.lines()
    fault, = trace.iter_events(tr.EV_FAULT)
    cid = max(row[0] for row in fault.detail["proc"]["colls"]["grants"])
    after = trace.events[trace.events.index(fault):]
    swept = next(i for i, ev in enumerate(after) if ev.kind == tr.EV_DREMOVE
                 and ev.cid == cid)
    entered = next(i for i, ev in enumerate(after) if ev.kind == tr.EV_RC
                   and ev.pid == pid)
    assert swept < entered


# List-mode plans of every kind on two faulted scenarios, timed inside the
# fault regions each already uses: the shipped mutual-exclusion scenario,
# and conftest's round checker with its golden campaign's regions.
def _plan_doc(name: str) -> dict:
    if name == "round_checker":
        return scenario_doc("round_checker", run_regions=56, faults={
            "mode": "campaign", "regions": [18, 19], "seed": 5})
    with open("scenarios/mutex_fault_recovery.json", encoding="utf-8") as fp:
        return json.load(fp)


# a tag of any JSON shape
_TAGS = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=2)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)


@st.composite
def _list_plan(draw, sc, regions):
    """1 to 6 list-mode entries for ``sc``, each firing on entry to one of
    ``regions`` or at a step inside one, with selectors 0 to 9, the
    residues 0, maxbound - 1 and 2**bits - 1, any tag and ages 0 to 8."""
    prog, start = sc.prog, sc.cfg.start_region
    span = sc.cfg.rs * sc.cfg.sptu  # steps per region

    def residue(fam):
        params = prog.families[fam]
        return draw(st.sampled_from((
            0, params.maxbound - 1,
            (1 << bits_required(params.maxinc, params.max_r)) - 1)))

    fields = {fld: fam for decl in prog.msgs.values()
              for fld, fam in decl.cell_fields.items()}
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        region = draw(st.sampled_from(regions))
        when = draw(st.sampled_from(("region", "step")))
        entry = {"when_kind": when, "when": region if when == "region" else
                 draw(st.integers((region - start) * span,
                                  (region + 1 - start) * span - 1)),
                 "kind": draw(st.sampled_from(sorted(faults._KINDS)))}
        kind, k = entry["kind"], draw(st.integers(0, 9))
        if kind not in ("overwrite_msg", "delete_msg"):
            entry["pid"] = draw(st.integers(0, prog.n - 1))
        if kind == "overwrite_free":
            name = draw(st.sampled_from(sorted(prog.free_cells)))
            entry.update(target=name, value=residue(prog.free_cells[name]))
        elif kind == "scramble_var":
            name = draw(st.sampled_from(sorted(prog.var_domains)))
            entry.update(target=name, value=draw(
                st.sampled_from(prog.var_domains[name])))
        elif kind in ("insert_dep", "overwrite_dep", "delete_dep"):
            coll = draw(st.sampled_from(sorted(prog.colls)))
            entry["target"] = coll if kind == "insert_dep" else [coll, k]
            if kind != "delete_dep":
                entry["value"] = residue(prog.colls[coll].family)
            if kind == "insert_dep":
                entry.update(tag=draw(_TAGS), age=draw(st.integers(0, 8)))
        elif kind == "overwrite_msg":
            fld = draw(st.sampled_from(sorted(fields)))
            entry.update(target=[k, fld], value=residue(fields[fld]))
        else:
            entry["target"] = k
        entries.append(entry)
    return entries


@given(name=st.sampled_from(("mutex", "round_checker")), data=st.data())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_a_list_mode_plan_is_refused_or_runs_and_passes_check(name, data):
    doc = _plan_doc(name)
    regions = doc["faults"]["regions"]
    sc = scenario.parse(doc)
    plan = data.draw(_list_plan(sc, regions))
    try:
        sc = scenario.parse({**doc, "faults": {"mode": "list",
                                               "entries": plan}})
    except ConfigError:
        return  # refused at parse: exit 2
    buf = io.StringIO()
    kernel.run(sc.cfg, sc.seed).write_jsonl(buf)
    trace = tr.Trace.read_jsonl(io.StringIO(buf.getvalue()))
    report = analysis.check(sc, trace)
    assert report.ok, report.lines()
