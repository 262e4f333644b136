"""Per-protocol builder validation and behavioral checks on clean runs."""
from collections import defaultdict

import pytest

from regionbound import analysis, kernel, scenario
from regionbound import trace as tr
from regionbound.counters import CounterParams
from regionbound.errors import ConfigError
from regionbound.protocols import REGISTRY
from regionbound.protocols import consensus, mutual_exclusion
from regionbound.protocols.base import BuildInfo

from conftest import (BASE_DOCS, PROTOCOLS, build_scenario, run_scenario,
                      scenario_doc)


def parse(protocol, **over):
    return scenario.parse(scenario_doc(protocol, **over))


def test_registry_lists_all_six():
    assert set(REGISTRY) == set(PROTOCOLS)
    assert all(isinstance(mod.PARAMS, dict) for mod in REGISTRY.values())


def test_mutual_exclusion_requires_complete_graph():
    with pytest.raises(ConfigError, match="complete graph"):
        parse("mutual_exclusion", topology="ring")


def test_consensus_requires_complete_graph():
    with pytest.raises(ConfigError, match="complete graph"):
        parse("consensus", topology="ring")


def test_consensus_requires_matching_family_rates():
    with pytest.raises(ConfigError, match="rates must match"):
        parse("consensus", families={
            "nextseq": {"maxinc": 3, "r_b": 6, "r_f": 1},
            "pending": {"maxinc": 5, "r_b": 6, "r_f": 3},
            "aseq": {"maxinc": 3, "r_b": 6, "r_f": 8},
        })


def test_consensus_caps_proposal_expiry():
    with pytest.raises(ConfigError, match="staleness"):
        parse("consensus", protocol_params={"proposal_expiry": 9,
                                            "acceptor_expiry": 7})


def test_logical_clocks_needs_lookback_for_stamps():
    with pytest.raises(ConfigError, match="r_b=2 too small"):
        parse("logical_clocks",
              families={"clock": {"maxinc": 3, "r_b": 2, "r_f": 1}})


def test_vector_clocks_needs_lookback_for_adoption():
    with pytest.raises(ConfigError, match="too small for adopting"):
        parse("vector_clocks",
              families={"vc": {"maxinc": 3, "r_b": 2, "r_f": 3}})


def test_diffusing_needs_reach_for_echo_waves():
    with pytest.raises(ConfigError, match="too small for echo waves"):
        parse("diffusing",
              families={"wave": {"maxinc": 2, "r_b": 5, "r_f": 4}})


def test_round_checker_needs_reach_for_re_reports():
    with pytest.raises(ConfigError, match="too small"):
        parse("round_checker",
              families={"round": {"maxinc": 2, "r_b": 3, "r_f": 7}})


def test_builders_name_a_missing_family():
    with pytest.raises(ConfigError, match="no counter family 'clock'"):
        parse("logical_clocks",
              families={"klok": {"maxinc": 3, "r_b": 3, "r_f": 1}})


# each family whose collections expire, the first such collection, and the
# parameter setting its expiry
@pytest.mark.parametrize("protocol,fam,coll,param", [
    ("vector_clocks", "vc", "view", "view_expiry"),
    ("mutual_exclusion", "clk", "req", "request_expiry"),
    ("diffusing", "wave", "wave", "wave_expiry"),
    ("round_checker", "round", "cr", "round_expiry"),
    ("consensus", "pending", "pend", "proposal_expiry"),
    ("consensus", "aseq", "prom", "acceptor_expiry"),
], ids=["vector_clocks", "mutual_exclusion", "diffusing", "round_checker",
        "consensus-pending", "consensus-aseq"])
def test_a_family_lifetime_not_past_a_collection_expiry_is_refused(
        protocol, fam, coll, param):
    """A family's r_f bounds every collection of it, so an r_f just below
    a collection's expiry + 1 is a config error naming both. The family
    keeps its reach (r_b takes what r_f gives up), so the protocol's own
    checks pass."""
    doc = BASE_DOCS[protocol]
    expiry = doc["protocol_params"][param]
    families = {name: dict(spec) for name, spec in doc["families"].items()}
    spec = families[fam]
    spec["r_b"] += spec["r_f"] - expiry
    spec["r_f"] = expiry
    with pytest.raises(ConfigError, match=(
            rf"collection {coll!r} expiry {expiry} .* r_f={expiry} of "
            rf"family {fam!r}")):
        parse(protocol, families=families)


def test_diffusing_rejects_disconnected_topology():
    info = BuildInfo(
        n=4,
        neighbors=((1,), (0,), (3,), (2,)),
        families={"wave": CounterParams(maxinc=2, r_b=18, r_f=4)},
        start_region=24,
        lifetime_regions=1,
        params={"wave_expiry": 3})
    with pytest.raises(ConfigError, match="connected"):
        REGISTRY["diffusing"].build(info)


def test_safety_scanners_are_wired():
    assert (build_scenario("mutual_exclusion").prog.safety
            is mutual_exclusion.check_safety)
    assert (build_scenario("consensus").prog.safety
            is consensus.check_agreement)
    assert build_scenario("logical_clocks").prog.safety is None


# -- behavior on clean runs -------------------------------------------------


def writes_by_pid(trace, name):
    out = defaultdict(list)
    for ev in trace.iter_events(tr.EV_WFREE):
        if ev.name == name:
            out[ev.pid].append(ev.lifted)
    return out


def test_logical_clocks_never_move_backwards():
    sc = build_scenario("logical_clocks")
    trace = run_scenario(sc)
    per_pid = writes_by_pid(trace, "cl")
    assert per_pid
    for pid, values in per_pid.items():
        assert values == sorted(values), f"pid {pid} clock regressed"


def test_vector_clock_own_components_never_move_backwards():
    sc = build_scenario("vector_clocks")
    trace = run_scenario(sc)
    per_pid = writes_by_pid(trace, "own")
    assert per_pid
    for pid, values in per_pid.items():
        assert values == sorted(values)


def test_mutex_clean_run_is_safe_and_live():
    sc = build_scenario("mutual_exclusion")
    trace = run_scenario(sc)
    ok, detail = mutual_exclusion.check_safety(trace, 0)
    assert ok, detail
    entries = [ev for ev in trace.iter_events(tr.EV_MARK)
               if ev.mark_kind == "cs" and ev.data["phase"] == "enter"]
    assert entries, "no process ever entered the critical section"


def test_mutex_enter_and_exit_alternate_per_process():
    sc = build_scenario("mutual_exclusion")
    trace = run_scenario(sc)
    last = {}
    for ev in trace.iter_events(tr.EV_MARK):
        if ev.mark_kind != "cs":
            continue
        phase = ev.data["phase"]
        assert phase != last.get(ev.pid), (
            f"pid {ev.pid} repeated phase {phase!r} at step {ev.step}")
        last[ev.pid] = phase


def test_diffusing_waves_complete_at_the_root():
    sc = build_scenario("diffusing")
    trace = run_scenario(sc)
    done = [ev for ev in trace.iter_events(tr.EV_MARK)
            if ev.mark_kind == "wave_done"]
    assert done, "no wave ever completed"
    assert {ev.pid for ev in done} == {0}


def test_round_checker_reaches_verdicts():
    sc = build_scenario("round_checker")
    trace = run_scenario(sc)
    marks = list(trace.iter_events(tr.EV_MARK))
    assert marks, "no round ever finished"
    assert {ev.mark_kind for ev in marks} <= {"round_complete",
                                             "round_suspect"}


def test_consensus_clean_run_agrees():
    sc = build_scenario("consensus")
    trace = run_scenario(sc)
    ok, detail = consensus.check_agreement(trace, 0)
    assert ok, detail
    decided = {ev.pid: ev.data["val"] for ev in trace.iter_events(tr.EV_MARK)
               if ev.mark_kind == "decide"}
    assert len(decided) >= sc.n // 2 + 1
    assert len(set(decided.values())) == 1


# Seeds of scenarios/consensus_clean.json on which a proposer that ignored
# its own acceptor's accepted value decided a second value (Paxos P2c).
P2C_SEEDS = (536208681, 1047980065, 228225629, 569420803, 789157998,
             24587971, 1026398971, 53780653)


@pytest.mark.parametrize("seed", P2C_SEEDS)
def test_consensus_proposer_offers_its_own_acceptance(seed):
    sc = scenario.load("scenarios/consensus_clean.json")
    report = analysis.check(sc, kernel.run(sc.cfg, seed))
    assert report.ok, report.lines()


def test_consensus_survives_corrupted_ballot_tags():
    # Campaign seed 6 inserts ballot cells tagged ["bogus", k]; at kernel
    # seed 6 a promise handler compared such a tag with an integer pid.
    sc = parse("consensus", faults={"mode": "campaign", "regions": [19, 20],
                                    "seed": 6}, run_regions=60)
    report = analysis.check(sc, kernel.run(sc.cfg, 6))
    assert report.ok, report.lines()


def test_consensus_ranks_a_ballot_without_a_pid_below_every_real_one():
    ballot = consensus.ballot
    assert ballot(10**6, ["bogus", 2]) < ballot(0, 0) < ballot(0, 1)
    assert ballot(5, None) < ballot(6, "own")
    assert [consensus.phase_of(tag) for tag in ([3, "p"], ["bogus", 1], 4,
                                                None, "own")] == \
        ["p", 1, None, None, None]
