"""Golden traces: fixed scenario/seed cases must keep byte-identical traces.

Each case runs the kernel, serializes the trace to JSONL and applies the
replay check a ``regionbound check`` would (closure for fault-free runs,
convergence for faulted ones). The SHA-256 over the JSONL bytes plus the
verdict lines is pinned below. A change meant to keep behaviour (a refactor,
a speedup) must leave every digest as it is; a change meant to alter traces
must say so and re-pin them.
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
        "14647376e6bbcb74ffbc65110a2226e5ecd8fb31dc837f0966b792e6004c5587",
    "mutual_exclusion-campaign/2024":
        "c399258177efcc0f173b003ec384607471fa470088516fba3474b8c09c4e5520",
    "diffusing-clean/7":
        "bf8d261442cbe516cc9589faaa5842682a4258fbe7841740f4a2756601a035b2",
    "diffusing-clean/2024":
        "3f9f94073a92d669de2d2e582271ed02af6f1c4d060c7070c3be5a15aa823d85",
    "diffusing-campaign/7":
        "a1ba7c65474fd005cf35412c7a42da80dffaf4aaf93ac173917cc8dad2d5f94f",
    "diffusing-campaign/2024":
        "cd9ca196ba0ce8854cfb90b5384d3fe822222f98dd44d5b771110d930a1414be",
    "round_checker-clean/7":
        "e4b016f7eb0fc6acf045a32da17de53bd422f69c202b44b8a86e764265b2250e",
    "round_checker-clean/2024":
        "7a2a114ddacda8632df2f8b94f8cb04f5f97a39c9dbfadd96561646960f5b0a8",
    "round_checker-campaign/7":
        "aeedfbf683827abac5d319783593a0f81355e788233ccd72de2f2a65b64576a7",
    "round_checker-campaign/2024":
        "86f0e03bde53bf987f1951ff9e1605a295dd04c9d33b5ebc7d6c662036879b76",
    "consensus-clean/7":
        "fb01d0d9c9161ba58ca0f36fa50a6b01ccf9b3ff16f4c6a28dbebafa0b22e5a2",
    "consensus-clean/2024":
        "85fd8a8e59143c1d837b854a44256e75e51b3a38141b08b8973030a8f3372d1b",
    "consensus-campaign/7":
        "de963d4efa2f456f2e48bc949dc9128638eeddaea2d91f71610394d4a44dfddb",
    "consensus-campaign/2024":
        "dd109b8ed805fb2a8f2176023a007b6c460548035c7878d151c7550c5d3ca75d",
    "logical_clocks_drift/7":
        "2f3bae3e71ae8b218cef481c89889f4bf3c0d57ff7ca033ab89d8493cd548f62",
    "logical_clocks_drift/2024":
        "109b878182f00457ef42eb5a1ccca6e994365470417d85a1dcc9e31b4b7694b0",
    "mutex_fault_recovery/7":
        "e2b38432f06faa96ccdee13fe868e97244c8a4986bc64d86f9676be5850c8d59",
    "mutex_fault_recovery/2024":
        "47c3ceb6bc1e7c0afad4c4779cc121bd44258a40641f34cab3edff5ead787e26",
    "consensus_clean/7":
        "5ca7ca9f9fa7c1dfb8a7a1d16fb508fa61fdb9945416490cdc800574cc4fd48d",
    "consensus_clean/2024":
        "3d8904126e4d87b9a5622310cc3740e1e8059cac6c17c44175dffd12d08ad1c8",
    "diffusing_ring_faults/7":
        "47a9743bf6363164b8b1e089c18f213eb1e1a2293e7900943f514e4fdfa89c40",
    "diffusing_ring_faults/2024":
        "15546e7dc111dff29d6deabc63eec8df5060221e57426334afb0a55261814648",
    "mutex_fault_recovery-stale/7":
        "398c82aad55a67b65efe39d71be8ac857f3227698af1cda2990b63eaa61e6d08",
    "mutex_fault_recovery-stale/2024":
        "a71aa951ab5832e85582a145542dea61af5ee64ab9e68eea3ea5f3562d4b1895",
}


def trace_digest(doc: dict, seed: int) -> str:
    sc = scenario.parse(doc)
    trace = kernel.run(sc.cfg, seed)
    buf = io.StringIO()
    trace.write_jsonl(buf)
    if sc.has_faults:
        report = analysis.convergence_check(sc.prog, trace)
    else:
        report = analysis.closure_check(sc.prog, trace)
    h = hashlib.sha256(buf.getvalue().encode("utf-8"))
    for line in report.lines():
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name,seed",
                         [(name, seed) for name in CASES for seed in SEEDS])
def test_trace_and_verdicts_match_the_golden_digest(name, seed):
    assert trace_digest(case_doc(name), seed) == GOLDEN[f"{name}/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_stale_inserts_expire_before_the_owner_acts(seed):
    """Each stale insert is swept at its owner's next activation, at a step
    with no clock tick, so no region change is what removes it."""
    sc = scenario.parse(case_doc("mutex_fault_recovery-stale"))
    trace = kernel.run(sc.cfg, seed)
    clock_steps = {ev[0] for ev in trace.iter_events(tr.EV_CLOCK)}
    inserts = [ev for ev in trace.iter_events(tr.EV_FAULT) if ev[6]]
    assert len(inserts) == 2
    for ev in inserts:
        cid = ev[5]["cid"]
        removals = [(rm[0], rm[5]) for rm in trace.iter_events(tr.EV_DREMOVE)
                    if rm[4] == cid]
        assert len(removals) == 1
        step, reason = removals[0]
        assert reason == "expired"
        assert step >= ev[0] and step not in clock_steps
        acting = [row[1] for row in trace.rows[ev[0]:step + 1]]
        assert acting[-1] == ev[3] and ev[3] not in acting[:-1]
