"""Golden traces: fixed scenario/seed cases must keep byte-identical traces.

Each case runs the kernel, serializes the trace to JSONL and applies the
replay check a ``regionbound check`` would (closure for fault-free runs,
convergence for faulted ones). The SHA-256 over the JSONL bytes plus the
verdict lines is pinned below; the rest of ``analysis.check`` (scans and
safety) must pass too, but stays out of the digest. A change meant to keep
behaviour (a refactor, a speedup) must leave every digest as it is; a change
meant to alter traces must say so and re-pin them. The six consensus digests
were re-pinned when a proposer began to offer its own acceptor's accepted
value (Paxos P2c). Eleven digests of faulted cases were re-pinned when a
message fault stopped rewriting the message's recorded ``send``. The 18
digests of faulted cases were re-pinned when a fault event's ``detail``
became the edited part of the state (the process, the message row or the
deleted message's id) in place of the per-kind ``old``/``new`` keys and
``g_region``; every other line of those traces, and every verdict, stayed
as it was. The two round_checker-campaign digests were re-pinned when a
campaign began to scramble a variable only on a process that holds it:
both scrambles of that case had hit a process without the variable.
"""
import hashlib
import io
import json

import pytest

from regionbound import analysis, kernel, scenario
from regionbound import trace as tr

from conftest import PROTOCOLS, scenario_doc

# fault regions (three and four regions after each protocol's default start
# region) and a run just long enough to pass the convergence boundary
CAMPAIGNS = {
    "logical_clocks": ([9, 10], 29),
    "vector_clocks": ([11, 12], 35),
    "mutual_exclusion": ([14, 15], 44),
    "diffusing": ([18, 19], 56),
    "round_checker": ([18, 19], 56),
    "consensus": ([19, 20], 59),
}

SHIPPED = ("logical_clocks_drift", "mutex_fault_recovery", "consensus_clean",
           "diffusing_ring_faults")

SEEDS = (7, 2024)

# Two cells inserted already older than the collections' expiry (2 regions):
# nothing but the sweep before an activation can remove them before the
# owner's next region change.
STALE_INSERTS = {"mode": "list", "entries": [
    {"when_kind": "region", "when": 15, "kind": "insert_dep", "target": "req",
     "pid": 1, "value": 5, "tag": ["stale", 0], "age": 6},
    {"when_kind": "step", "when": 301, "kind": "insert_dep",
     "target": "grants", "pid": 2, "value": 9, "tag": ["stale", 1],
     "age": 6},
]}

CASES = ([f"{proto}-{variant}" for proto in PROTOCOLS
          for variant in ("clean", "campaign")] + list(SHIPPED)
         + ["mutex_fault_recovery-stale"])


def case_doc(name: str) -> dict:
    """Scenario document of a case: ``<protocol>-clean``,
    ``<protocol>-campaign``, a shipped scenario's file stem, or
    ``<stem>-stale``: that scenario with :data:`STALE_INSERTS` as its
    faults."""
    proto, _, variant = name.rpartition("-")
    if variant == "clean":
        return scenario_doc(proto)
    if variant == "campaign":
        regions, run_regions = CAMPAIGNS[proto]
        return scenario_doc(
            proto, run_regions=run_regions,
            faults={"mode": "campaign", "regions": regions, "seed": 5})
    if variant == "stale":
        name = proto
    with open(f"scenarios/{name}.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    if variant == "stale":
        doc["faults"] = STALE_INSERTS
    return doc


GOLDEN = {
    "logical_clocks-clean/7":
        "4e43a27be1dabc28aaebb9f76e98335ca2136e8d342c44c55da26cf2dcbabeba",
    "logical_clocks-clean/2024":
        "73a3589ef0756000428a136afcfe2421c6eee80f3e5e1dfb6b60b6cea59e3f60",
    "logical_clocks-campaign/7":
        "e6e151c5170687c899be98dcd82b99bdb8224ee85fadac90ee7fb74c8fc2d51b",
    "logical_clocks-campaign/2024":
        "6e26c5c13cf097b724a404b3e45c08a1dc2d4282dd5a035f3e43cd88095ca2de",
    "vector_clocks-clean/7":
        "a801720ca400d1da4da2110d044997757b96910498a83d6ffa8d68335991b73f",
    "vector_clocks-clean/2024":
        "3a711cf1d1b755572ddf0c46af91ad68ea4e00f504d9990b1987851c5c475061",
    "vector_clocks-campaign/7":
        "18e55eb1fade8275d31605eaf73b35921e7b6a27f292b73dce581703286dc8f1",
    "vector_clocks-campaign/2024":
        "7e1b242c7bed8be6aa4ff804ae66e1be00bbed2d5ead6975d120e3bb469c1153",
    "mutual_exclusion-clean/7":
        "abb6700fb34343ebf71d562aae2c258e9f3cfdcdb5da3fb01389ea9e3d53f665",
    "mutual_exclusion-clean/2024":
        "98c2c6e8b6aebe1294b0cc26755e8a88e1743531b4c6300423efc573a2a0ff9d",
    "mutual_exclusion-campaign/7":
        "9616334a907bdc2f6e35aca746480c52f030cec45dba182da2f5ae5a56015267",
    "mutual_exclusion-campaign/2024":
        "d4037c1488eded8e30c8f22e9816d876956bd7fef51848431a44b829484c524f",
    "diffusing-clean/7":
        "bf8d261442cbe516cc9589faaa5842682a4258fbe7841740f4a2756601a035b2",
    "diffusing-clean/2024":
        "3f9f94073a92d669de2d2e582271ed02af6f1c4d060c7070c3be5a15aa823d85",
    "diffusing-campaign/7":
        "9848c705ef480071c7f77e4b0bafc103685be06cf01373eab41290b188f0f2ab",
    "diffusing-campaign/2024":
        "8e4f71c0371c7a0b45d368eb4947945e840b9d10a9fb84ccd3d61863ee260739",
    "round_checker-clean/7":
        "e4b016f7eb0fc6acf045a32da17de53bd422f69c202b44b8a86e764265b2250e",
    "round_checker-clean/2024":
        "7a2a114ddacda8632df2f8b94f8cb04f5f97a39c9dbfadd96561646960f5b0a8",
    "round_checker-campaign/7":
        "194b507057d957e5b9ba33c8a0d78dee6289862498c2b614e66a773ffac2adce",
    "round_checker-campaign/2024":
        "7994b5551e3f59538fb7256d2a6a0e9e14c7b150f94dcee076ab6aa3fc3af698",
    "consensus-clean/7":
        "9b8e16c28f1757f9be10580829ceef0406fa4d15af364171b2838b868c842273",
    "consensus-clean/2024":
        "256dd3fc92727ec177dc306ef3e2d1f155a72bbf43fe940e475ed6a0a8e97480",
    "consensus-campaign/7":
        "f9b92bfc45ff168c8652d75ec8c1ddbaa7889ab939b4ec0f2278dc544f84984c",
    "consensus-campaign/2024":
        "60a617d12e089bd0ad7145a431447336ffebc5a25921f39f57b26a97f3569ad0",
    "logical_clocks_drift/7":
        "2f3bae3e71ae8b218cef481c89889f4bf3c0d57ff7ca033ab89d8493cd548f62",
    "logical_clocks_drift/2024":
        "109b878182f00457ef42eb5a1ccca6e994365470417d85a1dcc9e31b4b7694b0",
    "mutex_fault_recovery/7":
        "27c303c0a4f3bbdd5f9b44f6475d0862968690809ce53e7d9c468635d421ef5a",
    "mutex_fault_recovery/2024":
        "03597df51373085ee80622c7a4042796a34feeb81a67fca8b5e9f366f5005474",
    "consensus_clean/7":
        "b932e122605bc75621e396245553a6583392491080ed0615ee47c841fe416a5c",
    "consensus_clean/2024":
        "47827e87aac7307899f3c035f3744dcf17aaae7db39e3e142431d9e88e29a8a7",
    "diffusing_ring_faults/7":
        "9c98373ec1e05b0799a45a8af1f649477b83e762343777bf5c285541105c201c",
    "diffusing_ring_faults/2024":
        "5dabc955a03394dfcbf58ad2d39aa31d25a42c2d10cd758fded319ef42912cae",
    "mutex_fault_recovery-stale/7":
        "65dd0ad8dcd189199ddf045378acdd62dda736671e8c41c907157f139a30e8e1",
    "mutex_fault_recovery-stale/2024":
        "4aa512e52a4283db74d0c24f0c99d4a8f91c2ce2590c6eb0b1de1342b2b3a783",
}


def trace_digest(sc, trace) -> str:
    buf = io.StringIO()
    trace.write_jsonl(buf)
    if sc.has_faults:
        report = analysis.convergence_check(sc.prog, trace,
                                            sc.derived["fault_stop_region"])
    else:
        report = analysis.closure_check(sc.prog, trace)
    h = hashlib.sha256(buf.getvalue().encode("utf-8"))
    for line in report.lines():
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name,seed",
                         [(name, seed) for name in CASES for seed in SEEDS])
def test_trace_and_verdicts_match_the_golden_digest(name, seed):
    sc = scenario.parse(case_doc(name))
    trace = kernel.run(sc.cfg, seed)
    assert trace_digest(sc, trace) == GOLDEN[f"{name}/{seed}"]
    report = analysis.check(sc, trace)
    assert report.ok, report.lines()


@pytest.mark.parametrize("seed", SEEDS)
def test_stale_inserts_expire_before_the_owner_acts(seed):
    """Each stale insert is swept at its owner's next activation, at a step
    with no clock tick, so no region change is what removes it."""
    sc = scenario.parse(case_doc("mutex_fault_recovery-stale"))
    trace = kernel.run(sc.cfg, seed)
    clock_steps = {ev.step for ev in trace.iter_events(tr.EV_CLOCK)}
    inserts = [ev for ev in trace.iter_events(tr.EV_FAULT) if ev.applied]
    assert len(inserts) == 2
    for ev in inserts:
        # the inserted cell takes the next id, above every other
        cid = max(row[0] for row in ev.detail["proc"]["colls"][ev.target])
        removals = [rm for rm in trace.iter_events(tr.EV_DREMOVE)
                    if rm.cid == cid]
        assert len(removals) == 1
        step = removals[0].step
        assert removals[0].reason == "expired"
        assert step >= ev.step and step not in clock_steps
        acting = [pid for _, pid, *_ in trace.rows[ev.step:step + 1]]
        assert acting[-1] == ev.pid and ev.pid not in acting[:-1]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_message_fault_leaves_the_recorded_send_as_sent(seed):
    """The send of a message that a fault overwrites records the value sent:
    the message row the fault records differs from it in one cell, which
    holds the fault's value."""
    hits = 0
    for name in CASES:
        sc = scenario.parse(case_doc(name))
        if not sc.has_faults:
            continue
        value = {json.dumps(e.target): e.value for e in sc.cfg.faults
                 if e.kind == "overwrite_msg"}
        trace = kernel.run(sc.cfg, seed)
        sends = {ev.mid: ev for ev in trace.iter_events(tr.EV_SEND)}
        for ev in trace.iter_events(tr.EV_FAULT):
            if ev.fault_kind == "overwrite_msg" and ev.applied:
                row = tr.MsgRow._make(ev.detail["msg"])
                sent = sends[row.mid].cells
                moved = [res for fld, res in row.cells.items()
                         if res != sent[fld]]
                assert moved == [value[json.dumps(ev.target)]], (name, ev)
                hits += 1
    assert hits
