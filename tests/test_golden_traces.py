"""Golden traces: fixed scenario/seed cases must keep byte-identical traces.

Each case runs the kernel, serializes the trace to JSONL and applies the
replay check a ``regionbound check`` would (closure for fault-free runs,
convergence for faulted ones). The SHA-256 over the JSONL bytes plus the
verdict lines is pinned in :data:`GOLDEN`. A second map,
:data:`CHECK_GOLDEN`, pins per case a SHA-256 over every line
``analysis.check`` prints (the headline checks, the region-gap,
message-lifetime and dependent-lifetime scans and the safety predicate), so
a scan that reports another figure changes a digest even when it passes. A
change meant to keep behaviour (a refactor, a speedup) must leave every
digest as it is; a change meant to alter traces must say so and re-pin
them. The six consensus digests
were re-pinned when a proposer began to offer its own acceptor's accepted
value (Paxos P2c). Eleven digests of faulted cases were re-pinned when a
message fault stopped rewriting the message's recorded ``send``. The 18
digests of faulted cases were re-pinned when a fault event's ``detail``
became the edited part of the state (the process, the message row or the
deleted message's id) in place of the per-kind ``old``/``new`` keys and
``g_region``; every other line of those traces, and every verdict, stayed
as it was. The two round_checker-campaign digests were re-pinned when a
campaign began to scramble a variable only on a process that holds it:
both scrambles of that case had hit a process without the variable. All
34 digests were re-pinned when the three stamps nothing read left the
format: a cell's global creation region (every cell row and ``dcreate``),
and a message's send step and local send region (every message row, and
the local region from every ``send``); every other byte of every trace,
and every verdict, stayed as it was.

Run as a script from anywhere, ``python tests/test_golden_traces.py``
prints each case's fresh digests of both maps beside the pinned ones and
exits 1 if any differ, so a byte-identity check or a deliberate re-pin
needs no hand work.
"""
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script: import this checkout's package
    sys.path.insert(0, str(ROOT / "src"))

from regionbound import analysis, kernel, scenario  # noqa: E402
from regionbound import trace as tr  # noqa: E402

from conftest import PROTOCOLS, scenario_doc  # noqa: E402

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

# complete graphs far wider than the other cases (n <= 5): many processes
# enter each region on one tick, and every broadcast goes n - 1 ways
WIDE = {"logical_clocks": 16, "mutual_exclusion": 12}

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
         + ["mutex_fault_recovery-stale"] + [f"{proto}-wide" for proto in WIDE])


def case_doc(name: str) -> dict:
    """Scenario document of a case: ``<protocol>-clean``,
    ``<protocol>-campaign``, ``<protocol>-wide`` (the clean case at
    :data:`WIDE`'s n), a shipped scenario's file stem, or ``<stem>-stale``:
    that scenario with :data:`STALE_INSERTS` as its faults."""
    proto, _, variant = name.rpartition("-")
    if variant == "clean":
        return scenario_doc(proto)
    if variant == "wide":
        return scenario_doc(proto, n=WIDE[proto])
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
        "524edeea707f0edaecf146e6e16f8f9b6e6e2825759e08b0779672b33b9a7889",
    "logical_clocks-clean/2024":
        "d124ee5c0e75389d43718220254a6f6e06cb718f3b3bb3d66c36c3a660771fe5",
    "logical_clocks-campaign/7":
        "b251f631a7ce49962fd211ce5799cf07260427887790b4f288c075af7609a93c",
    "logical_clocks-campaign/2024":
        "7a886788ab03148becf2c9bd23c2778448817b546edfc45e3edb2ccf95b31ba7",
    "vector_clocks-clean/7":
        "f0ad4154f21131027d7fcac1cc1a67ff7ea12c70e7b10aa09fbedb91d0f5e8b8",
    "vector_clocks-clean/2024":
        "ed70978f77d614b67efacd036b1e59f5ee383f613fa7236ad428ddb024dffd25",
    "vector_clocks-campaign/7":
        "dbc7ac222497a2dd19da316591e09080504d2b2877bd36104c981a296ff3c2ae",
    "vector_clocks-campaign/2024":
        "24acfb06256a0dee306ce8a32e6d06c22477167a2350f71c7dc16e0913a7a27f",
    "mutual_exclusion-clean/7":
        "fbfd0d2bf3feae3cd1ef62ddef779036f9903cbd3f3bb2729452e3da903a0063",
    "mutual_exclusion-clean/2024":
        "915f5cd31524be1c5478c57777d8bac4cd56c5ab8c0ffe94dad2752aa90ce3fc",
    "mutual_exclusion-campaign/7":
        "626a508b7d6c2a6a1fecd1fd0f3474526e061ae74ded187ad56b576bca258397",
    "mutual_exclusion-campaign/2024":
        "6596908fa5f18030419e375e2b3441b5a6884afc7a14d0985f21fe8f27723f6d",
    "diffusing-clean/7":
        "3afe4afd877c9041d97147800aa2797a33802d85742e1cd32b265c687192b22a",
    "diffusing-clean/2024":
        "de3575bfe42e5093207b282eb7f41d0c44889c071a3dc4fba76059b16896adb0",
    "diffusing-campaign/7":
        "7134e72879a9d2e9b794b85be9a0b99b57ee6c8c7e8c7693b57b1c1326de190c",
    "diffusing-campaign/2024":
        "702010b919e34a4fa356e6b475fd9a1aa40c95f45c8b201ae26818be1a3f0759",
    "round_checker-clean/7":
        "77efe6e2be5555b8dfc4323bf7eb51e1000997eeb74d2548ee7c8b399e5e78ee",
    "round_checker-clean/2024":
        "f6c8b95581806450fc929c092c3e1f439d72d2cb0dbefcdb3a0ad5e592c9f972",
    "round_checker-campaign/7":
        "c74130344c24c8153b8477dc377f06c6d65da79c0dc3a78317f8993aba32d917",
    "round_checker-campaign/2024":
        "8639bacce492a85f3318d126200a64044c5a2a9894051030f7d32af68c8fb400",
    "consensus-clean/7":
        "88e5d7b42038db8a0039a3a534d3f68d69c0c36535604411fe5cb94c1819245c",
    "consensus-clean/2024":
        "2fdae20b2973936add91464cc8c0e76dd67e58bf215d451a7e6903165e0992ef",
    "consensus-campaign/7":
        "368a1f66dc08e6748a6ba533b5953b3810e576352b65675c01f0177bc852480e",
    "consensus-campaign/2024":
        "27136947a54c83a069862803a6438766794a0de87d33367644c51debc0d76093",
    "logical_clocks_drift/7":
        "7fadcc797f381600e2056d378cd3757d3dc78075ad83f772e1a1a1d1fbd916bb",
    "logical_clocks_drift/2024":
        "6350303967bcbd212b4e626f6509bec47de61ec6f0066e2cd2b36bfbc4118d33",
    "mutex_fault_recovery/7":
        "9762852f03c6015a39a9e7e5f1337b43e978d89d908323e73249c5e999c8b822",
    "mutex_fault_recovery/2024":
        "d8000d03bf47325c90dd8bc9c6a15ce5eb5c12c556b54bd3c92823f488e62839",
    "consensus_clean/7":
        "1a4dcbc2cfc1a2e197e997c4795c3d912d10dd64c015a4229fcae1948df92601",
    "consensus_clean/2024":
        "215975acbd86ae40aa33dfee25711f4bac86d1b7865b3201f8182d015800acf2",
    "diffusing_ring_faults/7":
        "49051a670c1e27ea8ad07b313643964ace67f6a9d9415992f5ade5d16937cda7",
    "diffusing_ring_faults/2024":
        "4da01502b7d922843c628a3577b943d2b7517409f3360e21012af0bfc316b3fa",
    "mutex_fault_recovery-stale/7":
        "d99e6f38cfbc56e0ab20bdaab733ed25dc7f1db3e0b7357748856ffd86f3bc60",
    "mutex_fault_recovery-stale/2024":
        "cdf83b3ef8eb4d5310ab1f80c447633fad3d9ddd3bd379fbe4114b37f596a0b5",
    "logical_clocks-wide/7":
        "10c0efb225c8d951d9e0e595a543a0a8d082b7f57ca64c8ad518ad58c9c8c15e",
    "logical_clocks-wide/2024":
        "d52c0326b89f8af105a25144e21875ecda4ae7b1fd7d37dbc5c44e9d9294263a",
    "mutual_exclusion-wide/7":
        "c42af2bd3345f3395b4e58ac90d55963d68571f0bbec584731002a9f5791b5ea",
    "mutual_exclusion-wide/2024":
        "64b6723c633a1dda631d78db174abad28cd8a176fdb8af08580d3adec4697e70",
}

CHECK_GOLDEN = {
    "logical_clocks-clean/7":
        "4a142bd06318f875384c99b2a3e06319b5547b900b88a6c1f6e9729a398816a7",
    "logical_clocks-clean/2024":
        "4a142bd06318f875384c99b2a3e06319b5547b900b88a6c1f6e9729a398816a7",
    "logical_clocks-campaign/7":
        "f576c4f89cc8aca59a0a0e861ef6c80d91473d67c5a107f281b512044ca98784",
    "logical_clocks-campaign/2024":
        "f576c4f89cc8aca59a0a0e861ef6c80d91473d67c5a107f281b512044ca98784",
    "vector_clocks-clean/7":
        "20415f36e44928bf06da87f4b41cdce46a0f10e0047e8bb50e9d208d16ca1ca6",
    "vector_clocks-clean/2024":
        "20415f36e44928bf06da87f4b41cdce46a0f10e0047e8bb50e9d208d16ca1ca6",
    "vector_clocks-campaign/7":
        "83ce63b79915744876ec2d8ff4276568ebf3d0cd94196084321944e2b4a3aac8",
    "vector_clocks-campaign/2024":
        "83ce63b79915744876ec2d8ff4276568ebf3d0cd94196084321944e2b4a3aac8",
    "mutual_exclusion-clean/7":
        "347f1d87be33e83d6f7a6e7b742e5140169deda056e62bf5aba9e24c7dba530a",
    "mutual_exclusion-clean/2024":
        "f1372594af9e66bf6a01d6f9af2affe99dc844055f04cb00a075aadc3ed259bd",
    "mutual_exclusion-campaign/7":
        "7c862dc3530d5ab094ec6aafad60120b0c2b7bfc40b5ca517dd794910b31ad43",
    "mutual_exclusion-campaign/2024":
        "0ab31520ded48286702408a8abaca3a986b6e79f7d2c151e115a4c35d02c43af",
    "diffusing-clean/7":
        "771de2ac2578876c26d7b97cbac378e7f50c620a43dbc45f96766381ae7f859c",
    "diffusing-clean/2024":
        "771de2ac2578876c26d7b97cbac378e7f50c620a43dbc45f96766381ae7f859c",
    "diffusing-campaign/7":
        "5ba1a4a1d5eadedf4278bf03bd7462151689bd38fc135bb77be0c6a2d784b0e2",
    "diffusing-campaign/2024":
        "5ba1a4a1d5eadedf4278bf03bd7462151689bd38fc135bb77be0c6a2d784b0e2",
    "round_checker-clean/7":
        "771de2ac2578876c26d7b97cbac378e7f50c620a43dbc45f96766381ae7f859c",
    "round_checker-clean/2024":
        "20415f36e44928bf06da87f4b41cdce46a0f10e0047e8bb50e9d208d16ca1ca6",
    "round_checker-campaign/7":
        "5ba1a4a1d5eadedf4278bf03bd7462151689bd38fc135bb77be0c6a2d784b0e2",
    "round_checker-campaign/2024":
        "c64eb2243471656d83797d6926bfcc0df7add120109b032fd71e82898415b1f3",
    "consensus-clean/7":
        "6a6586198ad917a952cbf51ffc71e61a5e0f22c68a09f179ad318d591b120a37",
    "consensus-clean/2024":
        "d123b29209ca3eb777978dce44d04d895556c3e069dc83b7ccc5a0d8a28d4324",
    "consensus-campaign/7":
        "d5076879486c0bd133b01384b7cdc0215b6c0588e206885326561b30b9d20473",
    "consensus-campaign/2024":
        "d5076879486c0bd133b01384b7cdc0215b6c0588e206885326561b30b9d20473",
    "logical_clocks_drift/7":
        "420649a224cf0fdb2fdb4f69138936a2b5bc58134f5da66477e9b1625f5245a2",
    "logical_clocks_drift/2024":
        "420649a224cf0fdb2fdb4f69138936a2b5bc58134f5da66477e9b1625f5245a2",
    "mutex_fault_recovery/7":
        "430efe26ee542251c00cff031495b90e57ad6a9ffc7975407a9bc3e284170698",
    "mutex_fault_recovery/2024":
        "430efe26ee542251c00cff031495b90e57ad6a9ffc7975407a9bc3e284170698",
    "consensus_clean/7":
        "0186e4abae6dce29c4e928a8433bd6051568a62f869b17dadd0c97df053bd2e3",
    "consensus_clean/2024":
        "6a3d24836fce6b96c73cbe7199fb6ea3d8baf8c960a5d9765a494c8fe2f14832",
    "diffusing_ring_faults/7":
        "9dae97b25686b9138773e9e5a71c2dbc613de09bc323a2a26729ec04b26e18fb",
    "diffusing_ring_faults/2024":
        "9dae97b25686b9138773e9e5a71c2dbc613de09bc323a2a26729ec04b26e18fb",
    "mutex_fault_recovery-stale/7":
        "c46504ec7642ef31e185c284a9ca4fefe173d4b6c98597f6facabb6d4a832fc7",
    "mutex_fault_recovery-stale/2024":
        "c46504ec7642ef31e185c284a9ca4fefe173d4b6c98597f6facabb6d4a832fc7",
    "logical_clocks-wide/7":
        "4a142bd06318f875384c99b2a3e06319b5547b900b88a6c1f6e9729a398816a7",
    "logical_clocks-wide/2024":
        "4a142bd06318f875384c99b2a3e06319b5547b900b88a6c1f6e9729a398816a7",
    "mutual_exclusion-wide/7":
        "c46c1c1a8619bcf64951d0facb6f89e67775ee01e64628f85f659772f5b4d68d",
    "mutual_exclusion-wide/2024":
        "c46c1c1a8619bcf64951d0facb6f89e67775ee01e64628f85f659772f5b4d68d",
}


def _digest(h, report) -> str:
    """``h`` updated with ``report``'s lines, each ended by a newline."""
    for line in report.lines():
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def trace_digest(sc, trace) -> str:
    buf = io.StringIO()
    trace.write_jsonl(buf)
    if sc.has_faults:
        report = analysis.convergence_check(sc.prog, trace,
                                            sc.derived["fault_stop_region"])
    else:
        report = analysis.closure_check(sc.prog, trace)
    return _digest(hashlib.sha256(buf.getvalue().encode("utf-8")), report)


def check_digest(report) -> str:
    """SHA-256 over the lines of ``report``, an ``analysis.check``."""
    return _digest(hashlib.sha256(), report)


@pytest.mark.parametrize("name,seed",
                         [(name, seed) for name in CASES for seed in SEEDS])
def test_trace_and_verdicts_match_the_golden_digest(name, seed):
    sc = scenario.parse(case_doc(name))
    trace = kernel.run(sc.cfg, seed)
    assert trace_digest(sc, trace) == GOLDEN[f"{name}/{seed}"]
    report = analysis.check(sc, trace)
    assert report.ok, report.lines()
    assert check_digest(report) == CHECK_GOLDEN[f"{name}/{seed}"]


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


def main() -> int:
    """Print each case's fresh digests, of the trace and of the check, beside
    the pinned ones; 1 if any differs or is not pinned."""
    os.chdir(ROOT)  # the shipped scenarios are read by relative path
    differ = 0
    for name in CASES:
        sc = scenario.parse(case_doc(name))
        for seed in SEEDS:
            key = f"{name}/{seed}"
            trace = kernel.run(sc.cfg, seed)
            for what, pins, fresh in (
                    ("trace", GOLDEN, trace_digest(sc, trace)),
                    ("check", CHECK_GOLDEN,
                     check_digest(analysis.check(sc, trace)))):
                pinned = pins.get(key)
                differ += fresh != pinned
                print(f"{key} {what} {fresh} {pinned or '-'} "
                      f"{'same' if fresh == pinned else 'DIFFERS'}")
    print(f"{differ} of {2 * len(CASES) * len(SEEDS)} digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
