"""Single-decree consensus with counter-valued ballots.

Every process plays proposer, acceptor, and learner. Ballots are pairs
(seq, pid): the sequence comes from the proposer's free counter, the pid
breaks ties. A proposer prepares a ballot, gathers promises from a majority
(counting itself), then asks the same majority to accept the value of the
highest-ballot acceptance anywhere in that majority, its own acceptor's
included, or its own value when no member has accepted one (Paxos's P2c:
Lamport, "Paxos Made Simple", 2001). A majority of acceptances decides, and
the decision is flooded.

Acceptor state (promised ballot, accepted ballot) lives in dependent cells
of a family whose forward reach is the deployment's memory knob: sized past
the run length, the cells behave like stable storage; sized shorter,
acceptors legitimately forget old ballots when the window moves on, and
only the decided flag (a plain variable) survives. Proposer bookkeeping
(pending ballot, vote tallies) is deliberately short-lived: an unanswered
proposal expires and the run retries with a higher sequence. Rejections
carry the conflicting promised sequence, letting the loser leapfrog it.

Decisions are observable as ``decide`` marks; :func:`check_agreement`
scans a trace suffix for two different decided values.
"""

from __future__ import annotations

from .. import trace as tr
from ..errors import ConfigError, is_int
from ..transform import ActionSpec
from .base import (BuildInfo, CollDecl, MsgDecl, ProcInit, ProtocolDef,
                   on_msg, replace_single)

# acceptor_expiry None means r_f - 1 of the aseq family
PARAMS = {"proposal_expiry": 2, "acceptor_expiry": None}


def ballot(seq: int, bpid) -> tuple:
    """Sort key of the ballot (seq, bpid). A pid that is no integer, which
    only a corrupted cell tag gives, ranks the ballot below every real one."""
    return (1, seq, bpid) if is_int(bpid) else (0, seq)


def phase_of(tag):
    """The phase of a vote's ``[pid, phase]`` tag; None for any other tag,
    which only corruption leaves on a vote."""
    return tag[1] if type(tag) is list and len(tag) == 2 else None


def check_agreement(trace, start_step: int = 0) -> tuple[bool, str]:
    """All decide marks from ``start_step`` onward must carry one value."""
    decided: dict[int, int] = {}
    for ev in trace.iter_events(tr.EV_MARK):
        if ev.step >= start_step and ev.mark_kind == "decide":
            decided[ev.pid] = ev.data["val"]
    values = set(decided.values())
    if len(values) > 1:
        return False, f"conflicting decisions {decided}"
    if not values:
        return True, "no decisions in the checked suffix (vacuous)"
    return True, f"{len(decided)} processes decided {values.pop()}"


def build(info: BuildInfo) -> ProtocolDef:
    info.family("nextseq")
    info.family("pending")
    info.family("aseq")
    n = info.n
    for pid, nbrs in enumerate(info.neighbors):
        if len(nbrs) != n - 1:
            raise ConfigError(
                "consensus runs on a complete graph (majorities must be "
                f"reachable from everyone; pid {pid} has {len(nbrs)} "
                f"neighbours, wants {n - 1})")
    rates = {fam: info.families[fam].maxinc
             for fam in ("nextseq", "pending", "aseq")}
    if len(set(rates.values())) != 1:
        raise ConfigError(
            "consensus stores ballot sequences across all three families, "
            f"so their growth rates must match; got {rates}")
    lt2 = info.lifetime_regions + 2
    pend_expiry = info.params["proposal_expiry"]
    if pend_expiry > lt2:
        raise ConfigError(
            f"proposal_expiry {pend_expiry} exceeds the message staleness "
            f"bound {lt2}; reply candidates could outlive their window")
    acc_expiry = info.params["acceptor_expiry"]
    if acc_expiry is None:
        acc_expiry = info.families["aseq"].r_f - 1
    info.require_lookback("pending", 2 * lt2,
                          "ballot sequences echoed in replies")
    info.require_lookback("aseq", 2 * lt2,
                          "promised/accepted sequences in replies")
    majority = n // 2 + 1

    def clear(ctx, coll, phase=None):
        for cid, _value, tag, _age in ctx.cells(coll):
            if phase is None or phase_of(tag) == phase:
                ctx.remove_cell(coll, cid)

    def votes_for(ctx, seq, phase):
        return sum(1 for _cid, value, tag, _age in ctx.cells("votes")
                   if value == seq and phase_of(tag) == phase)

    def accept_locally(ctx, seq, bpid, val):
        replace_single(ctx, "prom", seq, bpid)
        replace_single(ctx, "acc", seq, bpid)
        ctx.set_var("accepted_val", val)

    def holds_own(ctx, coll, seq):
        # A proposer's own promise/acceptance counts towards the majority
        # only while it is still the one on record; a higher ballot from
        # elsewhere may have displaced it mid-round.
        cur = ctx.first_cell(coll)
        return cur is not None and (cur[1], cur[2]) == (seq, ctx.pid)

    def b_handle_prepare(ctx, m):
        seq = m.cell("bseq")
        prom = ctx.first_cell("prom")
        if prom is not None and ballot(seq, m.src) <= ballot(prom[1], prom[2]):
            ctx.send(m.src, "NACK", {"bseq": seq, "promised": prom[1]},
                     {"prom_bpid": prom[2]})
            return
        replace_single(ctx, "prom", seq, m.src)
        acc = ctx.first_cell("acc")
        if acc is None:
            ctx.send(m.src, "PROMISE", {"bseq": seq}, {"has_acc": False})
        else:
            ctx.send(m.src, "PROMISE", {"bseq": seq, "aseq": acc[1]},
                     {"has_acc": True, "acc_bpid": acc[2],
                      "acc_val": ctx.var("accepted_val")})

    def b_handle_promise(ctx, m):
        pend = ctx.first_cell("pend")
        if ctx.var("phase") != "prepare" or pend is None:
            return
        seq = m.cell("bseq")
        if seq != pend[1]:
            return
        clear_tag = [m.src, "p"]
        for cid, _value, tag, _age in ctx.cells("votes"):
            if tag == clear_tag:
                ctx.remove_cell("votes", cid)
        ctx.create_cell("votes", seq, tag=clear_tag)
        if m.var("has_acc"):
            cand = ctx.first_cell("cand")
            better = (cand is None
                      or ballot(m.cell("aseq"), m.var("acc_bpid"))
                      > ballot(cand[1], cand[2]))
            if better:
                replace_single(ctx, "cand", m.cell("aseq"), m.var("acc_bpid"))
                ctx.set_var("cand_val", m.var("acc_val"))
        if votes_for(ctx, seq, "p") + holds_own(ctx, "prom", seq) < majority:
            return
        cand = ctx.first_cell("cand")
        chosen = ctx.var("cand_val") if cand is not None else ctx.pid
        ctx.set_var("phase", "accept")
        ctx.set_var("chosen_val", chosen)
        clear(ctx, "votes", "p")
        if holds_own(ctx, "prom", seq):
            accept_locally(ctx, seq, ctx.pid, chosen)
        ctx.broadcast("ACCEPT", {"bseq": seq}, {"val": chosen})

    def b_handle_nack(ctx, m):
        # Fold the rejecting promise into the sequence source so the next
        # proposal leapfrogs it; folding alone never raises the family
        # maximum, so it costs no budget.
        ctx.fold("nseq", m.cell("promised"))
        pend = ctx.first_cell("pend")
        if pend is not None and m.cell("bseq") == pend[1]:
            ctx.remove_cell("pend", pend[0])
            clear(ctx, "votes")
            clear(ctx, "cand")
            ctx.set_var("phase", "idle")

    def b_handle_accept(ctx, m):
        seq = m.cell("bseq")
        prom = ctx.first_cell("prom")
        if prom is not None and ballot(seq, m.src) < ballot(prom[1], prom[2]):
            ctx.send(m.src, "NACK", {"bseq": seq, "promised": prom[1]},
                     {"prom_bpid": prom[2]})
            return
        accept_locally(ctx, seq, m.src, m.var("val"))
        ctx.send(m.src, "ACCEPTED", {"bseq": seq})

    def b_handle_accepted(ctx, m):
        pend = ctx.first_cell("pend")
        if ctx.var("phase") != "accept" or pend is None:
            return
        seq = m.cell("bseq")
        if seq != pend[1]:
            return
        clear_tag = [m.src, "a"]
        for cid, _value, tag, _age in ctx.cells("votes"):
            if tag == clear_tag:
                ctx.remove_cell("votes", cid)
        ctx.create_cell("votes", seq, tag=clear_tag)
        if votes_for(ctx, seq, "a") + holds_own(ctx, "acc", seq) < majority:
            return
        val = ctx.var("chosen_val")
        if ctx.var("decided") is None:
            ctx.set_var("decided", val)
            ctx.mark("decide", {"val": val})
        ctx.set_var("phase", "idle")
        ctx.remove_cell("pend", pend[0])
        clear(ctx, "votes")
        clear(ctx, "cand")
        ctx.broadcast("DECIDE", {}, {"val": val})

    def b_handle_decide(ctx, m):
        if ctx.var("decided") is None:
            ctx.set_var("decided", m.var("val"))
            ctx.mark("decide", {"val": m.var("val")})

    def g_propose(ctx):
        return (ctx.u1 < 0.3 and ctx.var("phase") == "idle"
                and ctx.var("decided") is None and ctx.can_mint()
                and not ctx.has_cell("pend"))

    def b_propose(ctx):
        seq = ctx.mint("nseq")
        ctx.create_cell("pend", seq, tag="own")
        clear(ctx, "cand")
        # The proposer's own acceptor is part of its promising majority,
        # so its acceptance is a candidate like any a promise reports.
        acc = ctx.first_cell("acc")
        if acc is not None:
            ctx.create_cell("cand", acc[1], tag=acc[2])
        ctx.set_var("cand_val",
                    None if acc is None else ctx.var("accepted_val"))
        ctx.set_var("phase", "prepare")
        prom = ctx.first_cell("prom")
        if prom is None or ballot(seq, ctx.pid) > ballot(prom[1], prom[2]):
            replace_single(ctx, "prom", seq, ctx.pid)
        ctx.broadcast("PREPARE", {"bseq": seq})

    def g_reset(ctx):
        return ctx.var("phase") != "idle" and not ctx.has_cell("pend")

    def b_reset(ctx):
        ctx.set_var("phase", "idle")
        clear(ctx, "votes")
        clear(ctx, "cand")

    pids = tuple(range(n))

    return ProtocolDef(
        name="consensus",
        n=n,
        families=dict(info.families),
        free_cells={"nseq": "nextseq"},
        colls={
            "pend": CollDecl("pending", pend_expiry),
            "votes": CollDecl("pending", pend_expiry),
            "prom": CollDecl("aseq", acc_expiry),
            "acc": CollDecl("aseq", acc_expiry),
            "cand": CollDecl("aseq", pend_expiry),
        },
        msgs={
            "PREPARE": MsgDecl(cell_fields={"bseq": "pending"}),
            "PROMISE": MsgDecl(cell_fields={"bseq": "pending",
                                            "aseq": "aseq"}),
            "NACK": MsgDecl(cell_fields={"bseq": "pending",
                                         "promised": "aseq"}),
            "ACCEPT": MsgDecl(cell_fields={"bseq": "pending"}),
            "ACCEPTED": MsgDecl(cell_fields={"bseq": "pending"}),
            "DECIDE": MsgDecl(),
        },
        actions=[
            on_msg("handle_prepare", "PREPARE", b_handle_prepare),
            on_msg("handle_promise", "PROMISE", b_handle_promise),
            on_msg("handle_nack", "NACK", b_handle_nack),
            on_msg("handle_accept", "ACCEPT", b_handle_accept),
            on_msg("handle_accepted", "ACCEPTED", b_handle_accepted),
            on_msg("handle_decide", "DECIDE", b_handle_decide),
            ActionSpec("propose", g_propose, b_propose),
            ActionSpec("reset_phase", g_reset, b_reset),
        ],
        budget_family="nextseq",
        init=lambda pid: ProcInit(
            free=("nseq",),
            vars={"phase": "idle", "decided": None, "accepted_val": None,
                  "cand_val": None, "chosen_val": None}),
        neighbors=info.neighbors,
        var_domains={
            "phase": ("idle", "prepare", "accept"),
            "decided": (None, *pids),
            "accepted_val": (None, *pids),
            "cand_val": (None, *pids),
            "chosen_val": (None, *pids),
        },
        safety=check_agreement,
    )
