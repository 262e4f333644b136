from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from regionbound.counters import (
    CounterParams,
    bits_required,
    dep_window,
    free_window,
    lift_dep,
    lift_free,
    to_residue,
)
from regionbound.errors import ConfigError
from regionbound.kernel import Kernel
from regionbound.oracle import Replayer
from regionbound.protocols.base import CollDecl, MsgDecl, ProcInit, ProtocolDef
from regionbound.trace import MsgRow, RcChange
from regionbound.transform import (
    ActionSpec,
    Cell,
    ProcState,
    choose_action,
    region_shift,
    wrap_program,
)

from conftest import build_scenario

FAM = CounterParams(maxinc=5, r_b=2, r_f=2)

params_st = st.builds(
    CounterParams,
    maxinc=st.integers(min_value=1, max_value=12),
    r_b=st.integers(min_value=0, max_value=6),
    r_f=st.just(0),
)


def make_proc(region, free=None, cells=None):
    proc = ProcState(0, region)
    proc.free.update(free or {})
    if cells:
        proc.colls["c"] = {cid: Cell(*args) for cid, args in cells.items()}
    return proc


# --- the kernel's write hooks -----------------------------------------------


@pytest.fixture(scope="module")
def kern():
    return Kernel(build_scenario("logical_clocks").cfg, 0)


def test_write_free_in_window_passes_through(kern):
    region = 7
    lo, hi = free_window(region, FAM)
    held, res, checked, corrected = kern._write_free(hi, region, FAM)
    assert (res, checked, corrected) == (hi % FAM.maxbound, hi, False)


def test_write_free_out_of_window_resets_to_floor(kern):
    region = 7
    lo, _hi = free_window(region, FAM)
    held, res, checked, corrected = kern._write_free(lo - 1, region, FAM)
    assert checked == lo
    assert res == lo % FAM.maxbound
    assert corrected


def test_write_dep_uses_the_wider_window(kern):
    region = 9
    lo, hi = dep_window(region, FAM)
    held, res, checked, corrected = kern._write_dep(lo, region, FAM)
    assert (checked, corrected) == (lo, False)
    held, res, checked, corrected = kern._write_dep(hi + 1, region, FAM)
    assert (checked, corrected) == (lo, True)


# --- region shifts ----------------------------------------------------------


@given(params=params_st, data=st.data())
@settings(max_examples=200, deadline=None)
def test_shift_of_healthy_free_counter_is_a_plain_raise(params, data):
    region = data.draw(st.integers(min_value=params.min_usable_region(),
                                   max_value=params.min_usable_region() + 40))
    lo, hi = free_window(region, params)
    value = data.draw(st.integers(min_value=lo, max_value=hi))
    proc = make_proc(region, free={"x": to_residue(value, params)})
    changes = region_shift(proc, region + 1, {"x": params}, {})
    mirror = max(value, free_window(region + 1, params)[0])
    assert lift_free(proc.free["x"], region + 1, params) == mirror
    for slot, _coll, name, _old, new_res, lifted, corrected in changes:
        assert (slot, name) == ("free", "x")
        assert not corrected
        assert lifted == mirror
        assert new_res == proc.free["x"]


@given(params=params_st, data=st.data())
@settings(max_examples=200, deadline=None)
def test_shift_flags_unexplainable_free_values(params, data):
    region = data.draw(st.integers(min_value=params.min_usable_region(),
                                   max_value=params.min_usable_region() + 40))
    residue = data.draw(st.integers(min_value=0,
                                    max_value=params.maxbound - 1))
    proc = make_proc(region, free={"x": residue})
    changes = region_shift(proc, region + 1, {"x": params}, {})
    old_lift = lift_free(residue, region, params)
    mirror = max(old_lift, free_window(region + 1, params)[0])
    lifted = lift_free(residue, region + 1, params)
    lo, hi = free_window(region + 1, params)
    assert lo <= lift_free(proc.free["x"], region + 1, params) <= hi
    if lifted == mirror and to_residue(lifted, params) == residue:
        assert changes == []
    else:
        [(_, _, _, _, _, got, corrected)] = changes
        assert got == lifted
        assert corrected == (lifted != mirror)


def test_shift_keeps_dep_cells_that_still_lift():
    # a value minted from the current free window stays liftable for the
    # whole lookback span
    region = 8
    value = free_window(region, FAM)[0] + 1
    proc = make_proc(region,
                     cells={0: (to_residue(value, FAM), region, region)})
    for target in range(region + 1, region + FAM.max_r):
        changes = region_shift(proc, target, {}, {"c": FAM})
        assert changes == []
        assert lift_dep(proc.colls["c"][0].value, target, FAM) == value


def test_shift_resets_dep_cells_that_fell_out():
    # a residue that lifts in the old window but in no window afterwards
    region = 8
    old_lo, _ = dep_window(region, FAM)
    proc = make_proc(region,
                     cells={3: (to_residue(old_lo, FAM), region, region)})
    # jump far enough that the old value cannot be congruent to anything
    # in the new window
    target = region + FAM.max_r + 3
    changes = region_shift(proc, target, {}, {"c": FAM})
    new_lo, new_hi = dep_window(target, FAM)
    if to_residue(old_lo, FAM) != to_residue(new_lo, FAM):
        [(slot, coll, cid, _old, new_res, lifted, corrected)] = changes
        assert (slot, coll, cid) == ("dep", "c", 3)
        assert corrected
        assert new_lo <= lifted <= new_hi


def test_shift_orders_cell_changes_by_cid():
    region = 8
    bad = to_residue(dep_window(region - 1, FAM)[0], FAM)
    proc = make_proc(region, cells={5: (bad, region, region),
                                    1: (bad, region, region)})
    changes = region_shift(proc, region + FAM.max_r + 3, {}, {"c": FAM})
    cids = [c[2] for c in changes if c[0] == "dep"]
    assert cids == sorted(cids)


def _reference_shift(proc, new_region, free_fams, coll_fams):
    """``region_shift`` written with the counter module's window and residue
    functions, the form its in-place arithmetic must agree with."""
    changes = []
    for name in proc.free:
        fam, old_res = free_fams[name], proc.free[name]
        lifted = lift_free(old_res, new_region, fam)
        mirror = max(lift_free(old_res, proc.region, fam),
                     free_window(new_region, fam)[0])
        new_res = to_residue(lifted, fam)
        if new_res != old_res or lifted != mirror:
            changes.append(RcChange(
                slot="free", coll=None, key=name, old_res=old_res,
                new_res=new_res, lifted=lifted, corrected=lifted != mirror))
            proc.free[name] = new_res
    for coll, cells in proc.colls.items():
        fam = coll_fams[coll]
        for cid in sorted(cells):
            old_res = cells[cid].value
            lifted = lift_dep(old_res, new_region, fam)
            new_res = to_residue(lifted, fam)
            if new_res != old_res:
                changes.append(RcChange(
                    slot="dep", coll=coll, key=cid, old_res=old_res,
                    new_res=new_res, lifted=lifted, corrected=True))
                cells[cid].value = new_res
    proc.region = new_region
    return changes


FAMILIES = [CounterParams(maxinc=m, r_b=b, r_f=f)
            for m in (1, 2, 3) for b in (1, 2, 3) for f in (1, 2, 3)]


def _fam_id(p: CounterParams) -> str:
    return f"maxinc{p.maxinc}-rb{p.r_b}-rf{p.r_f}"


def _start_regions(fam: CounterParams) -> tuple[int, int]:
    """The first usable region, and the one just before the free window's
    floor reaches the modulus, so that +1 to +3 regions carry it past."""
    return fam.min_usable_region() + 1, fam.maxbound // (3 * fam.maxinc) - 1


@pytest.mark.parametrize("fam", FAMILIES, ids=_fam_id)
def test_shift_matches_the_window_formulas_at_every_residue(fam):
    """Every residue a register holds, as a free counter and as a dependent
    cell, shifts by +1 to +3 regions to the rows, residues and region of
    the reference."""
    register = range(1 << bits_required(fam.maxinc, fam.max_r))
    frees = {f"x{res}": fam for res in register}

    def proc(region):
        return make_proc(region, free={f"x{res}": res for res in register},
                         cells={res: (res, region, region) for res in register})

    for region, step in product(_start_regions(fam), (1, 2, 3)):
        got, want = proc(region), proc(region)
        changes = region_shift(got, region + step, frees, {"c": fam})
        assert changes == _reference_shift(want, region + step, frees,
                                           {"c": fam})
        assert any(slot == "dep" for slot, *_ in changes)
        assert any(corrected for slot, *_, corrected in changes
                   if slot == "free")
        assert (got.region, got.free) == (want.region, want.free)
        assert ({cid: c.value for cid, c in got.colls["c"].items()}
                == {cid: c.value for cid, c in want.colls["c"].items()})


@pytest.mark.parametrize("fam", FAMILIES, ids=_fam_id)
def test_replayer_shift_raises_each_counter_to_the_new_floor(fam):
    """By +1 to +3 regions, the replayer's shift holds ``max(old, floor)``
    for every counter, and records a change exactly where that moves the
    residue."""
    m = fam.maxbound
    for region, step in product(_start_regions(fam), (1, 2, 3)):
        floor = free_window(region + step, fam)[0]
        values = range(free_window(region, fam)[0] - m, floor + 2 * m)
        proc = make_proc(region, free={f"x{v}": v for v in values})
        sim = SimpleNamespace(free_fams={f"x{v}": fam for v in values})
        changes = Replayer._shift(sim, proc, region + step)
        want = {f"x{v}": max(v, floor) for v in values}
        assert proc.free == want
        assert proc.region == region + step
        assert changes == [
            RcChange("free", None, f"x{v}", v % m, want[f"x{v}"] % m,
                     want[f"x{v}"], False)
            for v in values if want[f"x{v}"] % m != v % m]
        assert changes


# --- guard selection --------------------------------------------------------


def test_choose_action_takes_first_enabled():
    acts = [ActionSpec("a", lambda ctx: False, lambda ctx: None),
            ActionSpec("b", lambda ctx: True, lambda ctx: None),
            ActionSpec("c", lambda ctx: True, lambda ctx: None)]
    assert choose_action(acts, ctx=None) == 1


def test_choose_action_none_when_all_disabled():
    acts = [ActionSpec("a", lambda ctx: False, lambda ctx: None)]
    assert choose_action(acts, ctx=None) is None


def inbox_ctx(*kinds):
    """A context whose process 0 holds one waiting message of each kind."""
    rows = {mid: MsgRow(mid, 1, 0, kind, {}, {}, 0, 0, None)
            for mid, kind in enumerate(kinds)}
    return SimpleNamespace(sim=SimpleNamespace(inboxes=[rows]), pid=0)


def refuse(ctx):
    raise AssertionError("guard of a handler with no waiting message called")


def handler(name, kind, guard=None):
    return ActionSpec(name, guard, lambda ctx: None, msg_kind=kind)


@pytest.mark.parametrize("kinds", [(), ("B",)], ids=["empty", "other-kind"])
def test_choose_action_skips_a_handler_whose_kind_is_absent(kinds):
    acts = [handler("a", "A", refuse), handler("a2", "A"),
            ActionSpec("b", lambda ctx: True, lambda ctx: None)]
    assert choose_action(acts, inbox_ctx(*kinds)) == 2


def test_choose_action_falls_through_a_present_handler_whose_guard_fails():
    calls = []
    acts = [handler("a", "A", lambda ctx: calls.append(ctx) and False),
            ActionSpec("b", lambda ctx: True, lambda ctx: None)]
    ctx = inbox_ctx("B", "A")
    assert choose_action(acts, ctx) == 1
    assert calls == [ctx]


def test_choose_action_takes_the_first_present_handler_whose_guard_holds():
    acts = [handler("a", "A", lambda ctx: False), handler("b", "B", refuse),
            handler("c", "C"), handler("d", "D")]
    assert choose_action(acts, inbox_ctx("D", "A", "C")) == 2
    acts[2] = handler("c", "C", lambda ctx: True)
    assert choose_action(acts, inbox_ctx("C")) == 2


# --- program validation -----------------------------------------------------


def minimal_prog(**overrides):
    base = dict(
        name="toy",
        n=2,
        families={"f": FAM},
        free_cells={"x": "f"},
        colls={"q": CollDecl("f", 1)},
        msgs={"M": MsgDecl(cell_fields={"v": "f"})},
        actions=[ActionSpec("noop", lambda ctx: False, lambda ctx: None)],
        budget_family="f",
        init=lambda pid: ProcInit(free=("x",)),
        neighbors=((1,), (0,)),
    )
    base.update(overrides)
    return ProtocolDef(**base)


def test_wrap_program_accepts_minimal():
    wrap_program(minimal_prog())


def test_wrap_program_rejects_unknown_free_family():
    with pytest.raises(ConfigError, match="undeclared family"):
        wrap_program(minimal_prog(free_cells={"x": "ghost"}))


def test_wrap_program_rejects_expiry_at_lifetime():
    with pytest.raises(ConfigError, match="expiry"):
        wrap_program(minimal_prog(
            colls={"q": CollDecl("f", 2)}))


def test_wrap_program_rejects_unknown_msg_family():
    with pytest.raises(ConfigError, match="M"):
        wrap_program(minimal_prog(
            msgs={"M": MsgDecl(cell_fields={"v": "ghost"})}))


def test_wrap_program_rejects_a_handler_for_an_undeclared_kind():
    with pytest.raises(ConfigError, match="action 'h' handles undeclared "
                                          "message kind 'GHOST'"):
        wrap_program(minimal_prog(actions=[handler("h", "GHOST")]))
    wrap_program(minimal_prog(actions=[handler("h", "M")]))


@pytest.mark.parametrize("fam", [None, "ghost"])
def test_wrap_program_rejects_a_missing_budget_family(fam):
    with pytest.raises(ConfigError, match="budget family"):
        wrap_program(minimal_prog(budget_family=fam))


def test_wrap_program_rejects_wrong_neighbor_count():
    with pytest.raises(ConfigError, match="neighbor"):
        wrap_program(minimal_prog(neighbors=((1,),)))
