"""Scenario parsing: strict keys, topology shapes, derived echo, sizing."""
import copy
import json

import pytest

from regionbound import analysis, kernel, scenario
from regionbound.cli import EXIT_OK, main
from regionbound.counters import bits_required, maxbound_of
from regionbound.errors import ConfigError

from conftest import build_scenario, scenario_doc


def parse(protocol="logical_clocks", **over):
    return scenario.parse(scenario_doc(protocol, **over))


def test_unknown_top_level_field_is_named():
    with pytest.raises(ConfigError, match="colour"):
        parse(colour="blue")


def test_unknown_nested_field_is_named():
    with pytest.raises(ConfigError, match="channel.*jitter"):
        parse(channel={"max_delay_steps": 10, "jitter": 2})
    with pytest.raises(ConfigError, match="families.clock.*speed"):
        parse(families={"clock": {"maxinc": 3, "r_b": 3, "r_f": 1,
                                  "speed": 9}})


def test_missing_required_fields_are_named():
    for missing in ("protocol", "families", "channel", "run_regions", "seed"):
        doc = scenario_doc("logical_clocks")
        del doc[missing]
        with pytest.raises(ConfigError, match=missing):
            scenario.parse(doc)


def test_unknown_protocol_is_rejected():
    doc = scenario_doc("logical_clocks")
    doc["protocol"] = "token_passing"
    with pytest.raises(ConfigError, match="unknown protocol"):
        scenario.parse(doc)


def test_foreign_protocol_params_are_rejected():
    with pytest.raises(ConfigError, match="takes no parameter"):
        parse(protocol_params={"view_expiry": 2})


def test_bounds_on_scalars():
    with pytest.raises(ConfigError, match="n must be"):
        parse(n=1)
    with pytest.raises(ConfigError, match="rs must be"):
        parse(rs=1)
    with pytest.raises(ConfigError, match="steps_per_time_unit"):
        parse(steps_per_time_unit=0)
    with pytest.raises(ConfigError, match="maxinc"):
        parse(families={"clock": {"maxinc": 0, "r_b": 3, "r_f": 1}})
    for loss in (1.5, True, False):  # a bool is no number in a scenario
        with pytest.raises(ConfigError, match="loss_probability"):
            parse(channel={"max_delay_steps": 10, "loss_probability": loss})


def test_topology_shapes():
    assert scenario.neighbors_for("complete", 3) == ((1, 2), (0, 2), (0, 1))
    assert scenario.neighbors_for("ring", 4) == ((1, 3), (0, 2), (1, 3),
                                                 (0, 2))
    assert scenario.neighbors_for("line", 3) == ((1,), (0, 2), (1,))
    assert scenario.neighbors_for("star", 4) == ((1, 2, 3), (0,), (0,), (0,))
    with pytest.raises(ConfigError, match="ring topology needs"):
        scenario.neighbors_for("ring", 2)
    with pytest.raises(ConfigError, match="unknown topology"):
        scenario.neighbors_for("torus", 9)


def test_topologies_are_symmetric():
    for topology in ("complete", "ring", "line", "star"):
        nbrs = scenario.neighbors_for(topology, 6)
        for i, row in enumerate(nbrs):
            for j in row:
                assert i in nbrs[j]
                assert i != j


def test_drift_parse_forms():
    assert parse(drift_policy="none").cfg.drift.kind == "none"
    assert parse(drift_policy=None).cfg.drift.kind == "none"
    sc = parse(drift_policy={"kind": "bounded_jitter", "max_step_skew": 2})
    assert (sc.cfg.drift.kind, sc.cfg.drift.max_step_skew) \
        == ("bounded_jitter", 2)
    with pytest.raises(ConfigError, match="drift_policy"):
        parse(drift_policy=7)


def test_start_region_floor_tracks_family_reach():
    # clock family reaches r_b + r_f = 4 regions back, so the run may not
    # start before region 6 (the first window floors need to exist)
    with pytest.raises(ConfigError, match=">= 6"):
        parse(start_region=5)
    assert parse(start_region=None).cfg.start_region == 6
    assert parse(start_region=9).cfg.start_region == 9


def test_derived_echo_is_complete():
    sc = build_scenario("mutual_exclusion")
    d = sc.derived
    assert d["total_steps"] == sc.cfg.total_steps == 40 * 25 * 2
    assert d["start_region"] == sc.cfg.start_region
    assert d["end_region"] == sc.cfg.start_region + 39
    assert d["lifetime_regions"] == 1
    fam = d["families"]["clk"]
    assert fam["max_r"] == 9
    assert fam["maxbound"] == maxbound_of(4, 9)
    assert fam["bits"] == bits_required(4, 9)
    assert d["fault_count"] == 0
    assert d["fault_stop_region"] is None
    assert d["boundary_region"] is None


def test_explicit_lifetime_override_wins():
    # a 200-step delay would derive 4 crossings; the override pins it to 1
    sc = parse(channel={"max_delay_steps": 200, "lifetime_regions": 1})
    assert sc.cfg.lifetime_regions == 1
    assert sc.derived["lifetime_regions"] == 1


def test_fault_run_must_cover_the_boundary():
    with pytest.raises(ConfigError, match="use run_regions >= 27"):
        parse(run_regions=20, faults={
            "mode": "list",
            "entries": [{"when_kind": "region", "when": 10,
                         "kind": "overwrite_free", "target": "cl",
                         "pid": 0, "value": 7}],
        })


def test_fault_must_fire_inside_the_run():
    for when in (6, 99):
        with pytest.raises(ConfigError, match="outside the run"):
            parse(faults={
                "mode": "list",
                "entries": [{"when_kind": "region", "when": when,
                             "kind": "overwrite_free", "target": "cl",
                             "pid": 0, "value": 7}],
            })


def test_step_scheduled_fault_maps_to_its_region():
    # step 220 at rs=25, sptu=2 sits 4 regions past the start
    sc = parse(run_regions=40, faults={
        "mode": "list",
        "entries": [{"when_kind": "step", "when": 220,
                     "kind": "overwrite_free", "target": "cl",
                     "pid": 0, "value": 7}],
    })
    assert sc.derived["fault_stop_region"] == 10
    assert sc.derived["boundary_region"] is not None


def test_campaign_mode_builds_entries():
    sc = parse(protocol="diffusing", run_regions=60, faults={
        "mode": "campaign", "regions": [20, 21], "seed": 5,
    })
    assert sc.has_faults
    assert sc.derived["fault_count"] == len(sc.cfg.faults) > 0
    assert sc.derived["fault_stop_region"] == 21
    assert sc.cfg.snapshot_regions == (sc.derived["boundary_region"],)


def test_faults_mode_is_checked():
    with pytest.raises(ConfigError, match="campaign.*list|list.*campaign"):
        parse(faults={"mode": "sometimes"})


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        scenario.load(str(p))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_refuses_a_constant_that_is_not_json(tmp_path, constant):
    """A fault tag of NaN once ran, and wrote a trace that ``check``
    refused as not JSON."""
    with open("scenarios/mutex_fault_recovery.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["faults"] = {"mode": "list", "entries": [
        {"when_kind": "region", "when": 14, "target": "req", "kind":
         "insert_dep", "pid": 1, "value": 5, "tag": "TAG"}]}
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(doc).replace('"TAG"', constant), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"not valid JSON .*{constant} is "
                                          "not a JSON number"):
        scenario.load(str(p))


def test_load_round_trips_a_shipped_file():
    sc = scenario.load("scenarios/consensus_clean.json")
    assert sc.protocol == "consensus"
    assert sc.n == 5


SHIPPED = ("scenarios/logical_clocks_drift.json",
           "scenarios/mutex_fault_recovery.json",
           "scenarios/consensus_clean.json",
           "scenarios/diffusing_ring_faults.json")

# one entry of every fault kind, each field present, on vector_clocks (the
# protocol whose ``rot`` variable takes integers)
LIST_FAULTS = {"mode": "list", "entries": [
    {"when_kind": "region", "when": 14, "kind": "overwrite_free",
     "target": "own", "pid": 0, "value": 5},
    {"when_kind": "step", "when": 400, "kind": "insert_dep", "target": "view",
     "pid": 1, "value": 5, "tag": [2, 0], "age": 1},
    {"when_kind": "region", "when": 14, "kind": "overwrite_dep",
     "target": ["view", 0], "pid": 2, "value": 5},
    {"when_kind": "region", "when": 14, "kind": "delete_dep",
     "target": ["view", 1], "pid": 3},
    {"when_kind": "region", "when": 14, "kind": "scramble_var",
     "target": "rot", "pid": 3, "value": 1},
    {"when_kind": "region", "when": 14, "kind": "overwrite_msg",
     "target": [0, "c1"], "value": 5},
    {"when_kind": "region", "when": 14, "kind": "delete_msg", "target": 1},
]}


@pytest.mark.parametrize("tag", [5, None, ["x"], "s", [None, None],
                                 [0, "bogus"]], ids=json.dumps)
def test_vector_clocks_skips_a_view_cell_whose_tag_is_no_pair(tmp_path, tag,
                                                              capsys):
    """A fault may insert a view cell with any tag; vector clocks reads only
    a ``[peer, age]`` pair of integers, so the run and its check pass."""
    faults = copy.deepcopy(LIST_FAULTS)
    insert = faults["entries"][1]
    assert insert["kind"] == "insert_dep" and insert["target"] == "view"
    insert["tag"] = tag
    path, out = tmp_path / "s.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps(scenario_doc("vector_clocks", faults=faults)),
                    encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    assert main(["check", "--trace", str(out), "--scenario",
                 str(path)]) == EXIT_OK
    assert "all 5 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("tag", [None, 5, [], [1], {"x": 1}, "s",
                                 [[1], True], [{"x": 1}, True]],
                         ids=json.dumps)
def test_round_checker_skips_a_report_cell_whose_tag_is_no_pair(tag):
    """A fault may insert a report cell with any tag; the round checker's
    root reads only an ``[reporter, ok]`` pair with an integer reporter, so
    the run and its check pass. The cell holds 109, the round the root
    collects reports for next, so a reporter it could not use as a key
    would be read."""
    sc = scenario.parse(scenario_doc("round_checker", run_regions=56, faults={
        "mode": "list", "entries": [
            {"when_kind": "region", "when": 18, "kind": "insert_dep",
             "target": "reports", "pid": 0, "value": 109, "tag": tag}]}))
    trace = kernel.run(sc.cfg, sc.seed)
    assert [ev.applied for ev in trace.iter_events("fault")] == [True]
    report = analysis.check(sc, trace)
    assert report.ok, report.lines()


def test_vector_clocks_gossips_its_own_counter_over_a_view_cell_naming_it():
    """A fault may insert a view cell tagged with its holder's own pid; the
    holder's gossip still sends its own counter as its own component."""
    faults = copy.deepcopy(LIST_FAULTS)
    insert = faults["entries"][1]
    assert insert["kind"] == "insert_dep" and insert["pid"] == 1
    insert["tag"] = [1, 0]
    sc = scenario.parse(scenario_doc("vector_clocks", faults=faults))
    trace = kernel.run(sc.cfg, sc.seed)
    assert any(ev.kind == "fault" and ev.fault_kind == "insert_dep"
               and ev.applied for ev in trace.events)
    own = {}  # step -> the residue pid 1's own counter was written to then
    sends = []
    for ev in trace.events:
        if ev.kind == "wfree" and ev.pid == 1 and ev.name == "own":
            own[ev.step] = ev.residue
        elif ev.kind == "send" and ev.src == 1:
            sends.append(ev)
    assert any(ev.step > insert["when"] for ev in sends)
    for ev in sends:
        assert ev.cells["c1"] == own[ev.step], ev


def _sweep_docs():
    docs = {}
    for path in SHIPPED:
        with open(path, encoding="utf-8") as fp:
            docs[path] = json.load(fp)
    docs["vector_clocks list faults"] = scenario_doc("vector_clocks",
                                                     faults=LIST_FAULTS)
    docs["round_checker params"] = scenario_doc("round_checker")
    return docs


def _field_paths(node, path=()):
    """The key/index path of every value below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


@pytest.mark.parametrize("name,doc", list(_sweep_docs().items()))
def test_a_wrong_type_anywhere_is_a_config_error(name, doc):
    scenario.parse(doc)
    crashes = []
    for path in _field_paths(doc):
        for wrong in ("x", None, [1], {}, 1.5, True, -1, 0):
            bad = copy.deepcopy(doc)
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = wrong
            try:
                scenario.parse(bad)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - collect, report all
                crashes.append(f"{'.'.join(map(str, path))} = {wrong!r}: "
                               f"{type(exc).__name__}: {exc}")
    assert not crashes, "\n".join(crashes)
