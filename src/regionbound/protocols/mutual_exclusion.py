"""Timestamp-ordered mutual exclusion on a complete graph.

A process that wants the critical section stamps a request with its logical
clock, stores it as a dependent cell, and broadcasts it. A peer grants a
request unless it is in the critical section or holds an older request of
its own (order is (stamp, pid), so ties break by process id). Grants name
the exact request stamp they answer; entry needs a live own request plus a
matching grant from every peer. Nothing is deferred: a request that went
unanswered simply expires and is re-issued with a fresher stamp, which also
heals any state a fault planted.

Replies are compared against the requester's current stamp, so stale grants
(for an expired request) never count. That keeps the classic exclusion
argument intact without FIFO channels: granting folds the granted stamp
into the granter's clock, and a fresh request always mints strictly above
the local clock, so a granter's next request cannot slip under one it
already let through. Folding in a peer's stamp never raises the family
maximum, so only fresh request stamps draw on the increment budget.

Safety is observable through ``cs`` marks; :func:`check_safety` scans a
trace suffix for overlapping occupancy.
"""

from __future__ import annotations

from .. import trace as tr
from ..errors import ConfigError
from ..transform import ActionSpec
from .base import BuildInfo, CollDecl, MsgDecl, ProcInit, ProtocolDef, on_msg

PARAMS = {"request_expiry": 2}


def check_safety(trace, start_step: int = 0) -> tuple[bool, str]:
    """No two processes may hold the critical section at once, judged from
    ``start_step`` (which must have a snapshot) onward."""
    snap = trace.snapshots[start_step]
    inside = {pid for pid, p in enumerate(snap["procs"])
              if p["vars"].get("in_cs")}
    entries = 0
    for ev in trace.iter_events(tr.EV_MARK):
        if ev.step < start_step or ev.mark_kind != "cs":
            continue
        if ev.data["phase"] == "enter":
            inside.add(ev.pid)
            entries += 1
            if len(inside) > 1:
                return False, (f"step {ev.step}: pids {sorted(inside)} in "
                               "the critical section together")
        else:
            inside.discard(ev.pid)
    return True, f"{entries} entries, never more than one holder"


def build(info: BuildInfo) -> ProtocolDef:
    info.family("clk")
    n = info.n
    for pid, nbrs in enumerate(info.neighbors):
        if len(nbrs) != n - 1:
            raise ConfigError(
                "mutual_exclusion needs a complete graph: every process "
                f"competes with every other (pid {pid} has {len(nbrs)} "
                f"neighbours, wants {n - 1})")
    lt2 = info.lifetime_regions + 2
    expiry = info.params["request_expiry"]
    info.require_lookback("clk", 2 * lt2, "round-tripped request stamps")

    def own_request(ctx):
        return ctx.first_cell("req", "own")

    def grant_for(ctx, peer):
        return ctx.first_cell("grants", peer)

    def b_handle_req(ctx, m):
        stamp = m.cell("stamp")
        clk = ctx.fold("clk", stamp)
        mine = own_request(ctx)
        ahead_of_me = (mine is not None
                       and (mine[1], ctx.pid) < (stamp, m.src))
        if not ctx.var("in_cs") and not ahead_of_me:
            ctx.send(m.src, "GRANT", {"stamp": clk, "req_stamp": stamp})

    def b_handle_grant(ctx, m):
        ctx.fold("clk", m.cell("stamp"))
        mine = own_request(ctx)
        if mine is None or m.cell("req_stamp") != mine[1]:
            return
        old = grant_for(ctx, m.src)
        if old is not None:
            ctx.remove_cell("grants", old[0])
        ctx.create_cell("grants", mine[1], tag=m.src)

    def g_request(ctx):
        return (ctx.u1 < 0.4 and not ctx.var("in_cs")
                and ctx.can_mint() and not ctx.has_cell("req", "own"))

    def b_request(ctx):
        clk = ctx.mint("clk")
        ctx.create_cell("req", clk, tag="own")
        ctx.broadcast("REQ", {"stamp": clk})

    def g_enter(ctx):
        if ctx.var("in_cs"):
            return False
        nbrs = ctx.neighbors
        for peer in nbrs:  # each peer's grant must be there before any is read
            if not ctx.has_cell("grants", peer):
                return False
        mine = own_request(ctx)
        if mine is None:
            return False
        # each peer's first grant, as grant_for finds it, from one read
        firsts = {}
        for _cid, value, tag, _age in ctx.cells("grants"):
            if tag in nbrs:
                firsts.setdefault(tag, value)
        return (len(firsts) == len(nbrs)
                and all(value == mine[1] for value in firsts.values()))

    def b_enter(ctx):
        ctx.set_var("in_cs", True)
        ctx.mark("cs", {"phase": "enter"})

    def g_renew(ctx):
        # Nothing is deferred, so a denied or lost grant leaves the waiter
        # stuck until its request expires. Rebroadcasting the same stamp
        # lets peers whose blocking request has since retired grant after
        # all; it mints nothing, so it costs no budget.
        return (ctx.u1 < 0.2 and not ctx.var("in_cs")
                and ctx.has_cell("req", "own"))

    def b_renew(ctx):
        mine = own_request(ctx)
        ctx.broadcast("REQ", {"stamp": mine[1]})

    def g_exit(ctx):
        return ctx.var("in_cs") and ctx.u1 < 0.5

    def b_exit(ctx):
        ctx.set_var("in_cs", False)
        ctx.mark("cs", {"phase": "exit"})
        mine = own_request(ctx)
        if mine is not None:
            ctx.remove_cell("req", mine[0])
        for cid, _value, _tag, _age in ctx.cells("grants"):
            ctx.remove_cell("grants", cid)

    return ProtocolDef(
        name="mutual_exclusion",
        n=n,
        families=dict(info.families),
        free_cells={"clk": "clk"},
        colls={
            "req": CollDecl("clk", expiry),
            "grants": CollDecl("clk", expiry),
        },
        msgs={
            "REQ": MsgDecl(cell_fields={"stamp": "clk"}),
            "GRANT": MsgDecl(cell_fields={"stamp": "clk",
                                          "req_stamp": "clk"}),
        },
        actions=[
            on_msg("handle_req", "REQ", b_handle_req),
            on_msg("handle_grant", "GRANT", b_handle_grant),
            ActionSpec("request", g_request, b_request),
            ActionSpec("enter", g_enter, b_enter),
            ActionSpec("exit", g_exit, b_exit),
            ActionSpec("renew", g_renew, b_renew),
        ],
        budget_family="clk",
        init=lambda pid: ProcInit(free=("clk",),
                                  vars={"in_cs": False}),
        neighbors=info.neighbors,
        var_domains={"in_cs": (False, True)},
        safety=check_safety,
    )
