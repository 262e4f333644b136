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
message fault stopped rewriting the message's recorded ``send``.
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
        "ad17b0868c0984e01aba547439537d1dad0e39c229027098753837bd9da2b2e4",
    "logical_clocks-campaign/2024":
        "3d75e5f2220938360695d0e59458a9972d970229c3f9895ff9eefc7b0b6ee846",
    "vector_clocks-clean/7":
        "a801720ca400d1da4da2110d044997757b96910498a83d6ffa8d68335991b73f",
    "vector_clocks-clean/2024":
        "3a711cf1d1b755572ddf0c46af91ad68ea4e00f504d9990b1987851c5c475061",
    "vector_clocks-campaign/7":
        "964c52f8364a1a150af19c641ec76db7b13bc6120c16f9e62747690f4564b7a2",
    "vector_clocks-campaign/2024":
        "e4659d55dfd62720fb4167c7aeb5d26c8c160c43443c315f211ef8ddc301fa7e",
    "mutual_exclusion-clean/7":
        "abb6700fb34343ebf71d562aae2c258e9f3cfdcdb5da3fb01389ea9e3d53f665",
    "mutual_exclusion-clean/2024":
        "98c2c6e8b6aebe1294b0cc26755e8a88e1743531b4c6300423efc573a2a0ff9d",
    "mutual_exclusion-campaign/7":
        "f8df1e01c1ec20ffeaeaedde4c6e1f4b1d4b5d5a82e69f8736cf02f2a45e506b",
    "mutual_exclusion-campaign/2024":
        "86694976cf570f1b19c19a265eb345e70bf5af0c42a286197fc0ddfb6b17368e",
    "diffusing-clean/7":
        "bf8d261442cbe516cc9589faaa5842682a4258fbe7841740f4a2756601a035b2",
    "diffusing-clean/2024":
        "3f9f94073a92d669de2d2e582271ed02af6f1c4d060c7070c3be5a15aa823d85",
    "diffusing-campaign/7":
        "174b07ad73fe05b1b600fcc6f09dee4ae4356722fec882366042a19e9bb81116",
    "diffusing-campaign/2024":
        "7d6d5ed8b9e4abb356d703f9af80758c718b95a2a311edcece9f146d7f701918",
    "round_checker-clean/7":
        "e4b016f7eb0fc6acf045a32da17de53bd422f69c202b44b8a86e764265b2250e",
    "round_checker-clean/2024":
        "7a2a114ddacda8632df2f8b94f8cb04f5f97a39c9dbfadd96561646960f5b0a8",
    "round_checker-campaign/7":
        "6447d42270072a3304114df6f8feabe9d66a4435acedcd82749a9107de4f7aaa",
    "round_checker-campaign/2024":
        "c67761f6a1894c2e29270a5782ffad0bb67ebbbd823f6333c3324136d120374d",
    "consensus-clean/7":
        "9b8e16c28f1757f9be10580829ceef0406fa4d15af364171b2838b868c842273",
    "consensus-clean/2024":
        "256dd3fc92727ec177dc306ef3e2d1f155a72bbf43fe940e475ed6a0a8e97480",
    "consensus-campaign/7":
        "6f7b7b72668d402226a29c9ffe1f03913ead750648deda2275249e32b646b2a3",
    "consensus-campaign/2024":
        "338a2dd36d175b7c019fadcdc659327547b70c7b56954c932b072794c5212409",
    "logical_clocks_drift/7":
        "2f3bae3e71ae8b218cef481c89889f4bf3c0d57ff7ca033ab89d8493cd548f62",
    "logical_clocks_drift/2024":
        "109b878182f00457ef42eb5a1ccca6e994365470417d85a1dcc9e31b4b7694b0",
    "mutex_fault_recovery/7":
        "a94963939490d6e7f5523cb529589bafad5af010546d404b77aa5b07a7ed086c",
    "mutex_fault_recovery/2024":
        "b3a2280bdf1136315c00f4341ee5981a804383cb7d2cb74c25ead7f69c9252c7",
    "consensus_clean/7":
        "b932e122605bc75621e396245553a6583392491080ed0615ee47c841fe416a5c",
    "consensus_clean/2024":
        "47827e87aac7307899f3c035f3744dcf17aaae7db39e3e142431d9e88e29a8a7",
    "diffusing_ring_faults/7":
        "47a9743bf6363164b8b1e089c18f213eb1e1a2293e7900943f514e4fdfa89c40",
    "diffusing_ring_faults/2024":
        "250106a1823cfc6c55d700538539886ffe1198ef9d9becebd9461d186b1a5cbc",
    "mutex_fault_recovery-stale/7":
        "398c82aad55a67b65efe39d71be8ac857f3227698af1cda2990b63eaa61e6d08",
    "mutex_fault_recovery-stale/2024":
        "a71aa951ab5832e85582a145542dea61af5ee64ab9e68eea3ea5f3562d4b1895",
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
        removals = [rm for rm in trace.iter_events(tr.EV_DREMOVE)
                    if rm.cid == ev.detail["cid"]]
        assert len(removals) == 1
        step = removals[0].step
        assert removals[0].reason == "expired"
        assert step >= ev.step and step not in clock_steps
        acting = [pid for _, pid, *_ in trace.rows[ev.step:step + 1]]
        assert acting[-1] == ev.pid and ev.pid not in acting[:-1]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_message_fault_leaves_the_recorded_send_as_sent(seed):
    """The send of a message that a fault overwrites records the value sent,
    which the fault's detail gives as ``old``."""
    hits = 0
    for name in CASES:
        sc = scenario.parse(case_doc(name))
        if not sc.has_faults:
            continue
        trace = kernel.run(sc.cfg, seed)
        sends = {ev.mid: ev for ev in trace.iter_events(tr.EV_SEND)}
        for ev in trace.iter_events(tr.EV_FAULT):
            if ev.fault_kind == "overwrite_msg" and ev.applied:
                detail = ev.detail
                assert sends[detail["mid"]].cells[detail["field"]] == \
                    detail["old"], (name, ev)
                hits += 1
    assert hits
