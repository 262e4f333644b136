"""Vector clocks with age-bounded gossip.

Each process owns one component (``own``, a free counter) and keeps its view
of the other components as dependent cells tagged ``[peer, age]``. Gossip
sends the whole known vector to neighbours in rotation; a receive ticks the
own component and merges pointwise by maximum.

The age in the tag is a staleness account: how many regions old the entry
was, at worst, when the cell was created. A held entry's current staleness
is that plus the cell's age, and a forwarded entry adds the message lifetime
bound on top. Entries whose accounted staleness could outgrow the family's
lookback are not adopted (and not forwarded), so every stored value always
lifts. That makes relayed knowledge honest: a component is only kept as
fresh as the window can prove it.

A cell is read as a view entry only when its tag is such a pair: two
integers (not booleans), the first naming a process. Any other tag, which
only a fault can write, is skipped when entries are looked up and when they
are gossiped, and the cell expires like any other. A pair naming the holder
itself, which also only a fault can write, is never gossiped: the own
component a process sends is always its own counter.
"""

from __future__ import annotations

from ..sim import Ctx
from ..transform import ActionSpec
from .base import BuildInfo, CollDecl, MsgDecl, ProcInit, ProtocolDef, on_msg

PARAMS = {"view_expiry": 2}


def build(info: BuildInfo) -> ProtocolDef:
    fam = info.family("vc")
    lt2 = info.lifetime_regions + 2
    expiry = info.params["view_expiry"]
    info.require_lookback("vc", lt2, "adopting a neighbour's own component")
    # staleness budget an entry may have accumulated and still be held for
    # its whole residency without leaving the dependent window
    adopt_cap = fam.max_r + 1 - expiry
    n = info.n

    def is_entry(tag) -> bool:
        """``tag`` is a ``[peer, age]`` pair of integers naming a peer."""
        return (type(tag) is list and len(tag) == 2 and type(tag[0]) is int
                and type(tag[1]) is int and 0 <= tag[0] < n)

    def view_entries(ctx):
        """Each peer's view entry with the lowest cid, as (cid, value)."""
        entries = {}
        for cid, value, tag, age in ctx.cells("view"):  # in cid order
            if is_entry(tag):
                entries.setdefault(tag[0], (cid, value))
        return entries

    def b_recv(ctx, m):
        ctx.mint("own")
        ages = m.var("ages")
        # each field names another peer, so the loop's removes and creates
        # never touch an entry a later field looks up
        view = view_entries(ctx)
        for fld in m.cell_fields():
            peer = int(fld[1:])
            if peer == ctx.pid:
                continue
            eff = ages[fld] + lt2
            if eff > adopt_cap:
                continue
            value = m.cell(fld)
            cur = view.get(peer)
            if cur is not None:
                if cur[1] >= value:
                    continue
                ctx.remove_cell("view", cur[0])
            ctx.create_cell("view", value, tag=[peer, eff])

    def b_gossip(ctx):
        own = ctx.mint("own")
        if not ctx.neighbors:
            return
        rot = ctx.var("rot")
        dst = ctx.neighbors[rot % len(ctx.neighbors)]
        ctx.set_var("rot", (rot + 1) % len(ctx.neighbors))
        cells = {f"c{ctx.pid}": own}
        ages = {f"c{ctx.pid}": 0}
        for _cid, value, tag, age in ctx.cells("view"):
            if not is_entry(tag) or tag[0] == ctx.pid:
                continue
            peer, eff = tag
            if eff + age + lt2 <= adopt_cap:
                cells[f"c{peer}"] = value
                ages[f"c{peer}"] = eff + age
        ctx.send(dst, "VIEW", cells, {"ages": ages})

    fields = {f"c{i}": "vc" for i in range(n)}

    return ProtocolDef(
        name="vector_clocks",
        n=n,
        families=dict(info.families),
        free_cells={"own": "vc"},
        colls={"view": CollDecl("vc", expiry)},
        msgs={"VIEW": MsgDecl(cell_fields=fields)},
        actions=[
            on_msg("receive", "VIEW", b_recv, also=Ctx.can_mint),
            ActionSpec("gossip", Ctx.can_mint, b_gossip),
        ],
        budget_family="vc",
        init=lambda pid: ProcInit(free=("own",), vars={"rot": 0}),
        neighbors=info.neighbors,
        var_domains={"rot": tuple(range(max(1, n - 1)))},
    )
