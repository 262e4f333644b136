"""Diffusing computation: numbered echo waves from a fixed initiator.

Process 0 owns a wave sequence counter. Starting a wave takes the next
number, records own participation, and floods WAVE to all neighbours. A
process joining a wave remembers who it heard it from (its parent for that
wave) and forwards to everyone else; hearing a wave it already joined just
answers ACK without forwarding. Once acknowledgements for the wave have
arrived from every forwarded-to neighbour, the process echoes ACK to its
parent and forgets the wave; the initiator instead marks the wave complete.

All wave bookkeeping is dependent cells keyed by the wave number, so a
stalled or corrupted wave simply expires everywhere and the initiator is
free to start the next one. Acknowledgements carry the wave number and are
matched by value, which makes leftovers from dead waves harmless.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError
from ..transform import ActionSpec
from .base import BuildInfo, CollDecl, MsgDecl, ProcInit, ProtocolDef, on_msg

PARAMS = {"wave_expiry": 3}


def _diameter(neighbors) -> int:
    n = len(neighbors)
    worst = 0
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            u = q.popleft()
            for v in neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        if len(dist) != n:
            raise ConfigError("diffusing needs a connected topology")
        worst = max(worst, max(dist.values()))
    return worst


def build(info: BuildInfo) -> ProtocolDef:
    fam = info.family("wave")
    lt2 = info.lifetime_regions + 2
    expiry = info.params["wave_expiry"]
    diam = _diameter(info.neighbors)
    # a wave number travels down and echoes back up: each hop costs at most
    # one message lifetime plus one full cell residency of holding
    need = diam * (2 * lt2 + expiry + 1) + expiry + 1
    if 2 + fam.max_r < need:
        raise ConfigError(
            f"family 'wave': reach {fam.max_r} too small for echo waves over "
            f"a diameter-{diam} topology with lifetime "
            f"{info.lifetime_regions} and expiry {expiry} (needs max_r >= "
            f"{need - 2})")

    def wave_entry(ctx, wseq):
        for cid, value, tag, _age in ctx.cells("wave"):
            if value == wseq:
                return cid, tag
        return None

    def ack_children(ctx, wseq):
        return {tag for _cid, value, tag, _age in ctx.cells("acks")
                if value == wseq}

    def finish(ctx, wseq, cid, parent):
        ctx.remove_cell("wave", cid)
        for acid, value, _tag, _age in ctx.cells("acks"):
            if value == wseq:
                ctx.remove_cell("acks", acid)
        if parent == "root":
            ctx.mark("wave_done")
        else:
            ctx.send(parent, "ACK", {"wseq": wseq})

    def b_handle_ack(ctx, m):
        wseq = m.cell("wseq")
        entry = wave_entry(ctx, wseq)
        if entry is None:
            return
        cid, parent = entry
        for acid, value, tag, _age in ctx.cells("acks"):
            if tag == m.src and value != wseq:
                ctx.remove_cell("acks", acid)
        if m.src not in ack_children(ctx, wseq):
            ctx.create_cell("acks", wseq, tag=m.src)
        expected = set(ctx.neighbors) if parent == "root" else {
            q for q in ctx.neighbors if q != parent}
        if expected <= ack_children(ctx, wseq):
            finish(ctx, wseq, cid, parent)

    def b_handle_wave(ctx, m):
        wseq = m.cell("wseq")
        if wave_entry(ctx, wseq) is not None:
            ctx.send(m.src, "ACK", {"wseq": wseq})
            return
        others = [q for q in ctx.neighbors if q != m.src]
        if not others:
            ctx.send(m.src, "ACK", {"wseq": wseq})
            return
        ctx.create_cell("wave", wseq, tag=m.src)
        for q in others:
            ctx.send(q, "WAVE", {"wseq": wseq})

    def g_start(ctx):
        return (ctx.pid == 0 and ctx.can_mint()
                and not ctx.has_cell("wave", "root"))

    def b_start(ctx):
        wseq = ctx.mint("seq")
        ctx.create_cell("wave", wseq, tag="root")
        ctx.broadcast("WAVE", {"wseq": wseq})

    return ProtocolDef(
        name="diffusing",
        n=info.n,
        families=dict(info.families),
        free_cells={"seq": "wave"},
        colls={
            "wave": CollDecl("wave", expiry),
            "acks": CollDecl("wave", expiry),
        },
        msgs={
            "WAVE": MsgDecl(cell_fields={"wseq": "wave"}),
            "ACK": MsgDecl(cell_fields={"wseq": "wave"}),
        },
        actions=[
            on_msg("handle_ack", "ACK", b_handle_ack),
            on_msg("handle_wave", "WAVE", b_handle_wave),
            ActionSpec("start_wave", g_start, b_start),
        ],
        budget_family="wave",
        init=lambda pid: ProcInit(free=("seq",) if pid == 0 else ()),
        neighbors=info.neighbors,
    )
