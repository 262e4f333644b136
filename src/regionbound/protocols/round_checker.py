"""Round-numbered global state checker superimposed on the region substrate.

Process 0 issues numbered rounds from a free counter and tags each with a
coin flip (a "real" audit or a decoy; the flag is opaque payload that rides
along to exercise non-counter state). Every other process keeps the highest
round it has seen (``cr``) and the last round it reported (``lr``). A ROUND
message with a higher number is adopted and answered with a REPORT; an equal
number is re-answered only when the earlier report is not on record (so
duplicate ROUNDs are acknowledged at most once); a lower number is stale and
ignored.

Each report carries a legitimacy bit read from the issuer's own round
counter at that instant (``Ctx.peek_free``): the round being reported must
not be ahead of it. That is an invariant of correct operation and goes
false exactly when corruption minted a round out of thin air. The issuer
collects reports in a cell per process; when every process has reported its
current round it marks the round complete (or suspect, if any legitimacy
bit came back false) and is free to start the next. A round that stalls,
for example because corruption erased report state, is abandoned by a
low-probability restart rather than by waiting forever.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..transform import ActionSpec
from .base import (BuildInfo, CollDecl, MsgDecl, ProcInit, ProtocolDef,
                   on_msg, replace_single)

PARAMS = {"round_expiry": 3}


def build(info: BuildInfo) -> ProtocolDef:
    fam = info.family("round")
    lt2 = info.lifetime_regions + 2
    expiry = info.params["round_expiry"]
    # a re-report echoes a held round: adoption staleness, a residency, and
    # one more flight, then the report cell itself must sit out its residency
    need = 2 * lt2 + 2 * (expiry + 1)
    if 2 + fam.max_r < need:
        raise ConfigError(
            f"family 'round': reach {fam.max_r} too small for re-reported "
            f"rounds (needs max_r >= {need - 2})")
    for pid in range(1, info.n):
        if 0 not in info.neighbors[pid]:
            raise ConfigError(
                f"round_checker reports to process 0, which pid {pid} "
                "cannot reach in this topology")

    def legitimacy(ctx, rnd):
        return rnd <= ctx.peek_free(0, "nr")

    def b_handle_round(ctx, m):
        rnd = m.cell("rnd")
        cur = ctx.first_cell("cr")
        if cur is not None and rnd < cur[1]:
            return
        if cur is None or rnd > cur[1]:
            replace_single(ctx, "cr", rnd)
        last = ctx.first_cell("lr")
        if last is not None and last[1] == rnd:
            return
        replace_single(ctx, "lr", rnd)
        ctx.send(0, "REPORT", {"rnd": rnd},
                 {"real": m.var("real"), "ok": legitimacy(ctx, rnd)})

    def reports(ctx):
        """The report cells as (cid, value, reporter, ok), skipping a cell
        whose tag is no [reporter, ok] pair with an integer reporter, which
        only corruption makes."""
        return [(cid, value, tag[0], tag[1])
                for cid, value, tag, _age in ctx.cells("reports")
                if type(tag) is list and len(tag) == 2
                and type(tag[0]) is int]

    def b_handle_report(ctx, m):
        if ctx.pid != 0:
            return
        rnd = m.cell("rnd")
        if rnd != ctx.free("nr"):
            return
        for cid, _value, src, _ok in reports(ctx):
            if src == m.src:
                ctx.remove_cell("reports", cid)
        ctx.create_cell("reports", rnd, tag=[m.src, m.var("ok")])
        seen = {src: ok for _cid, value, src, ok in reports(ctx)
                if value == rnd}
        if len(seen) == ctx.n:
            ctx.mark("round_complete" if all(seen.values())
                     else "round_suspect", {"real": ctx.var("cur_real")})
            ctx.set_var("done", True)

    def g_start(ctx):
        return (ctx.pid == 0 and ctx.can_mint()
                and (ctx.var("done") or ctx.u1 < 0.15))

    def b_start(ctx):
        nr = ctx.mint("nr")
        real = ctx.u2 < 0.5
        ctx.set_var("cur_real", real)
        ctx.set_var("done", False)
        for cid, _value, _tag, _age in ctx.cells("reports"):
            ctx.remove_cell("reports", cid)
        ctx.create_cell("reports", nr, tag=[0, True])
        ctx.broadcast("ROUND", {"rnd": nr}, {"real": real})

    def init(pid):
        if pid == 0:
            return ProcInit(free=("nr",),
                            vars={"done": True, "cur_real": False})
        return ProcInit()

    return ProtocolDef(
        name="round_checker",
        n=info.n,
        families=dict(info.families),
        free_cells={"nr": "round"},
        colls={
            "cr": CollDecl("round", expiry),
            "lr": CollDecl("round", expiry),
            "reports": CollDecl("round", expiry),
        },
        msgs={
            "ROUND": MsgDecl(cell_fields={"rnd": "round"}),
            "REPORT": MsgDecl(cell_fields={"rnd": "round"}),
        },
        actions=[
            on_msg("handle_round", "ROUND", b_handle_round),
            on_msg("handle_report", "REPORT", b_handle_report),
            ActionSpec("start_round", g_start, b_start),
        ],
        budget_family="round",
        init=init,
        neighbors=info.neighbors,
        var_domains={"done": (False, True), "cur_real": (False, True)},
    )
