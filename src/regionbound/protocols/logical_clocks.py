"""Scalar logical clocks over a message-passing network.

Each process keeps one never-decreasing clock ``cl``. A local event advances
it by the step's increment draw ``d``; a send stamps the current clock onto
the message; a receive merges with ``cl := max(cl, stamp) + d``. The clock is
a free counter, the stamp a dependent value whose staleness is capped by the
message lifetime.
"""

from __future__ import annotations

from ..sim import Ctx
from ..transform import ActionSpec
from .base import BuildInfo, MsgDecl, ProcInit, ProtocolDef, on_msg

PARAMS: dict = {}


def build(info: BuildInfo) -> ProtocolDef:
    info.family("clock")
    info.require_lookback("clock", info.lifetime_regions + 2,
                          "in-flight clock stamps")

    def b_receive(ctx, m):
        ctx.mint("cl", m.cell("stamp"))

    def b_tick(ctx):
        cl = ctx.mint("cl")
        if ctx.neighbors:
            dst = ctx.neighbors[int(ctx.u2 * len(ctx.neighbors))]
            ctx.send(dst, "TICK", {"stamp": cl})

    return ProtocolDef(
        name="logical_clocks",
        n=info.n,
        families=dict(info.families),
        free_cells={"cl": "clock"},
        colls={},
        msgs={"TICK": MsgDecl(cell_fields={"stamp": "clock"})},
        actions=[
            on_msg("receive", "TICK", b_receive, also=Ctx.can_mint),
            ActionSpec("tick", Ctx.can_mint, b_tick),
        ],
        budget_family="clock",
        init=lambda pid: ProcInit(free=("cl",)),
        neighbors=info.neighbors,
    )
