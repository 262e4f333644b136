"""End-to-end command-line behavior, driven through main(argv)."""
import json

import pytest

from regionbound import trace as tr
from regionbound.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, main

from conftest import scenario_doc

SCENARIOS = (
    "scenarios/logical_clocks_drift.json",
    "scenarios/mutex_fault_recovery.json",
    "scenarios/consensus_clean.json",
    "scenarios/diffusing_ring_faults.json",
)


@pytest.fixture()
def run_cli(capsys):
    def go(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return go


@pytest.mark.parametrize("path", SCENARIOS)
def test_check_passes_what_run_produced(run_cli, tmp_path, path):
    out = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli("run", "--scenario", path, "--out", str(out))
    assert code == EXIT_OK
    assert stdout.startswith("scenario: protocol=")
    assert f"wrote {out}" in stdout
    code, stdout, _ = run_cli("check", "--trace", str(out),
                              "--scenario", path)
    assert code == EXIT_OK, stdout
    assert "checks passed" in stdout.splitlines()[-1]
    assert all(not line.startswith("FAIL") for line in stdout.splitlines())


def test_run_honors_seed_override(run_cli, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    path = "scenarios/consensus_clean.json"
    run_cli("run", "--scenario", path, "--out", str(a))
    run_cli("run", "--scenario", path, "--out", str(b), "--seed", "515")
    run_cli("run", "--scenario", path, "--out", str(c), "--seed", "99")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("argv,seed", [((), 2024), (("--seed", "1"), 1)],
                         ids=["scenario-seed", "seed-override"])
def test_run_prints_the_seed_it_runs(run_cli, tmp_path, argv, seed):
    out = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli("run", "--scenario", SCENARIOS[1], "--out",
                              str(out), *argv)
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == (
        f"scenario: protocol=mutual_exclusion n=4 seed={seed}")
    assert tr.load(str(out)).meta["seed"] == seed


def test_check_rejects_a_mismatched_pair(run_cli, tmp_path):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", SCENARIOS[0], "--out", str(out))
    code, _, err = run_cli("check", "--trace", str(out),
                           "--scenario", SCENARIOS[2])
    assert code == EXIT_CONFIG
    assert "does not match" in err


def test_check_fails_a_doctored_trace(run_cli, tmp_path):
    out = tmp_path / "t.jsonl"
    path = "scenarios/consensus_clean.json"
    run_cli("run", "--scenario", path, "--out", str(out))
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["rec"] == "event" and rec["data"]["ev"] == "wfree":
            rec["data"]["residue"] += 1
            lines[i] = json.dumps(rec) + "\n"
            break
    else:
        pytest.fail("trace has no free-counter writes to doctor")
    out.write_text("".join(lines), encoding="utf-8")
    code, stdout, _ = run_cli("check", "--trace", str(out),
                              "--scenario", path)
    assert code == EXIT_FAIL
    assert "FAIL closure-replay" in stdout


def test_missing_files_are_config_errors(run_cli, tmp_path):
    code, _, err = run_cli("run", "--scenario", "scenarios/ghost.json",
                           "--out", str(tmp_path / "t.jsonl"))
    assert code == EXIT_CONFIG
    code, _, err = run_cli("check", "--trace", str(tmp_path / "ghost.jsonl"),
                           "--scenario", SCENARIOS[0])
    assert code == EXIT_CONFIG
    assert "cannot read trace" in err


def test_bad_scenario_field_is_a_config_error(run_cli, tmp_path):
    doc = json.loads(open(SCENARIOS[0], encoding="utf-8").read())
    doc["colour"] = "blue"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli("run", "--scenario", str(bad),
                           "--out", str(tmp_path / "t.jsonl"))
    assert code == EXIT_CONFIG
    assert "colour" in err


def test_bits_golden_lines(run_cli):
    code, stdout, _ = run_cli("bits", "--maxinc", "10", "--maxr", "5")
    assert code == EXIT_OK
    assert stdout == "maxbound=780 bits=10\n"
    code, stdout, _ = run_cli("bits", "--maxinc", "1", "--maxr", "0")
    assert stdout == "maxbound=33 bits=6\n"


def test_sweep_writes_the_grid(run_cli, tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli("sweep", "--grid", "scenarios/sweep_grid.json",
                              "--out", str(out))
    assert code == EXIT_OK
    assert "9 rows" in stdout
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("rs,delay,rate,")


def test_sweep_to_stdout_and_grid_validation(run_cli, tmp_path):
    code, stdout, _ = run_cli("sweep", "--grid",
                              "scenarios/sweep_grid.json")
    assert code == EXIT_OK
    assert len(stdout.strip().splitlines()) == 10
    bad = tmp_path / "grid.json"
    bad.write_text(json.dumps({"rs": 100, "delays": [1]}), encoding="utf-8")
    code, _, err = run_cli("sweep", "--grid", str(bad))
    assert code == EXIT_CONFIG
    assert "rates" in err


@pytest.mark.parametrize("record", [
    '{"rec":"row","data":[1]}',
    '[1]',
    '{"rec":"row","data":{"step":0}}',
    '{"rec":"event","data":{"step":0,"ev":["arrive"]}}',
    '{"rec":"snapshot","data":{"step":[0],"state":{}}}',
    '{"rec":"snapshot","data":{"step":0,"state":[]}}',
    '{"rec":"row","data":{"step":0,"acting":"x","action_idx":0,"action":"",'
    '"d":1,"u1":0.5,"u2":0.5}}',
    '{"rec":"row","data":{"step":0,"acting":0,"action_idx":null,'
    '"action":"","d":1,"u1":0.5,"u2":0.5}}',
    '{"rec":"row","data":{"step":0,"acting":0,"action_idx":0,"action":"",'
    '"d":1.5,"u1":0.5,"u2":0.5}}',
    '{"rec":"row","data":{"step":0,"acting":0,"action_idx":0,"action":"",'
    '"d":1,"u1":"x","u2":0.5}}',
    '{"rec":"row","data":{"step":0,"acting":0,"action_idx":0,"action":"",'
    '"d":1,"u1":0.5,"u2":[0.5]}}',
    # edits of the first event of a kind in the trace
    pytest.param({"ev": "send", "send_region_global": "x"}, id="send-srg"),
    pytest.param({"ev": "clock", "regions": "abc"}, id="clock-regions"),
    pytest.param({"ev": "clock", "g_region": None}, id="clock-g_region"),
    pytest.param({"ev": "send", "mid": [1]}, id="send-mid"),
])
def test_malformed_trace_record_is_a_config_error(run_cli, tmp_path, record):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", SCENARIOS[0], "--out", str(out))
    if isinstance(record, dict):
        recs = [json.loads(line) for line in
                out.read_text(encoding="utf-8").splitlines()]
        next(r["data"] for r in recs if r["rec"] == "event"
             and r["data"]["ev"] == record["ev"]).update(record)
        out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                       encoding="utf-8")
    else:
        with out.open("a", encoding="utf-8") as fp:
            fp.write(record + "\n")
    code, _, err = run_cli("check", "--trace", str(out),
                           "--scenario", SCENARIOS[0])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: malformed trace")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["send", "snapshot"])
def test_non_integer_delivery_step_is_refused(run_cli, tmp_path, where):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", SCENARIOS[0], "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    send = next(r["data"] for r in recs
                if r["rec"] == "event" and r["data"]["ev"] == "send")
    fld = "arrival_step" if send["arrival_step"] is not None else "drop_step"
    if where == "send":
        send[fld] = [send[fld]]
    else:
        start = next(r["data"] for r in recs if r["rec"] == "snapshot")
        start["state"]["in_flight"].append(
            [send["mid"], send["src"], send["dst"], send["msg_kind"],
             send["cells"], send["vars"], send["send_region_global"],
             [send["arrival_step"]], send["drop_step"]])
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, stdout, err = run_cli("check", "--trace", str(out),
                                "--scenario", SCENARIOS[0])
    assert "Traceback" not in err
    if where == "send":
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: malformed trace {out}: line ")
        assert f"send event field {fld!r} may not be a list" in err
    else:
        assert code == EXIT_CONFIG
        assert err.startswith("config error: malformed trace")


@pytest.mark.parametrize("path,change", [
    (SCENARIOS[0], lambda s: s["in_flight"].append([1, 2, 3])),
    (SCENARIOS[0], lambda s: s["inboxes"][1].append("mid")),
    (SCENARIOS[2], lambda s: s["procs"][0]["colls"]["pend"].append(
        [1, 2])),
    (SCENARIOS[0], lambda s: s["procs"][0]["free"].update(
        (name, "7") for name in list(s["procs"][0]["free"]))),
    (SCENARIOS[0], lambda s: s["procs"].pop()),
    (SCENARIOS[0], lambda s: s.pop("budgets")),
], ids=["in-flight-row", "inbox-row", "cell-row", "free-counter", "procs",
        "budgets"])
def test_malformed_snapshot_is_a_config_error(run_cli, tmp_path, path,
                                              change):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", path, "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    change(next(r["data"]["state"] for r in recs if r["rec"] == "snapshot"))
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, _, err = run_cli("check", "--trace", str(out), "--scenario", path)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: malformed trace: snapshot at step 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("pid", [-1, 99])
def test_row_naming_no_process_fails_the_replay(run_cli, tmp_path, pid):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", SCENARIOS[0], "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    next(r for r in recs if r["rec"] == "row")["data"]["acting"] = pid
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, stdout, err = run_cli("check", "--trace", str(out),
                                "--scenario", SCENARIOS[0])
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert f"acting pid {pid}, which is no process" in stdout


def test_unfair_schedule_fails_the_replay(run_cli, tmp_path):
    """Pid 0 takes over pid 1's self-loop rows: no event contradicts a
    self-loop, but the kernel activates each pid once per block of n."""
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", SCENARIOS[0], "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    taken = [r["data"] for r in recs if r["rec"] == "row"
             and r["data"]["acting"] == 1 and r["data"]["action_idx"] == -1]
    assert len(taken) == 54
    for row in taken:
        row["acting"] = 0
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, stdout, err = run_cli("check", "--trace", str(out),
                                "--scenario", SCENARIOS[0])
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert "FAIL closure-replay" in stdout
    assert "row names pid 0 twice in the block" in stdout


@pytest.mark.parametrize("kind,target,value", [
    ("overwrite_free", "clk", 1000000), ("overwrite_free", "clk", -5),
    ("insert_dep", "req", 1000000),
])
def test_fault_value_no_register_holds_is_a_config_error(run_cli, tmp_path,
                                                         kind, target,
                                                         value):
    doc = json.loads(open(SCENARIOS[1], encoding="utf-8").read())
    doc["faults"] = {"mode": "list", "entries": [
        {"when_kind": "region", "when": 14, "kind": kind, "target": target,
         "pid": 0, "value": value}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli("run", "--scenario", str(bad),
                           "--out", str(tmp_path / "t.jsonl"))
    assert code == EXIT_CONFIG
    assert err.startswith("config error: fault 0") and "no residue" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("faults,field", [
    ({"mode": "list", "entries": [{"when_kind": "region", "when": "14",
                                   "kind": "delete_msg", "target": 0}]},
     "when"),
    ({"mode": "list", "entries": [{"when_kind": "region", "when": 14,
                                   "kind": "insert_dep", "target": "req",
                                   "pid": "0", "value": 1}]},
     "pid"),
    ({"mode": "list", "entries": [{"when_kind": "region", "when": 14,
                                   "kind": "insert_dep", "target": "req",
                                   "pid": 0, "value": 1, "age": 0.5}]},
     "age"),
    ({"mode": "campaign", "regions": [14], "per_family": "x"}, "per_family"),
    ({"mode": "campaign", "regions": [14], "seed": [3]}, "seed"),
    ({"mode": "list", "entries": [{"when_kind": "region", "when": 14,
                                   "kind": "overwrite_dep", "target": "abc",
                                   "pid": 0, "value": 1}]},
     "target"),
    ({"mode": "list", "entries": [{"when_kind": "region", "when": 14,
                                   "kind": "overwrite_free", "target": "clk",
                                   "pid": 0, "value": "x"}]},
     "value"),
    ({"mode": "list", "entries": [{"when_kind": "region", "when": 14,
                                   "kind": "overwrite_free", "target": ["clk"],
                                   "pid": 0, "value": 1}]},
     "target"),
])
def test_malformed_fault_field_is_a_config_error(run_cli, tmp_path, faults,
                                                 field):
    doc = json.loads(open(SCENARIOS[1], encoding="utf-8").read())
    doc["faults"] = faults
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli("run", "--scenario", str(bad),
                           "--out", str(tmp_path / "t.jsonl"))
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and f".{field} must be" in err
    assert "Traceback" not in err


def _patched(path, key, value):
    doc = json.loads(open(path, encoding="utf-8").read())
    doc[key] = value
    return doc


def _rot_scrambled_to(value):
    return scenario_doc("vector_clocks", faults={"mode": "list", "entries": [
        {"when_kind": "region", "when": 14, "kind": "scramble_var",
         "target": "rot", "pid": 0, "value": value}]})


@pytest.mark.parametrize("doc", [
    *(_patched(SCENARIOS[0], "drift_policy",
               {"kind": "bounded_jitter", "max_step_skew": skew})
      for skew in ("x", None, [1])),
    _patched(SCENARIOS[0], "protocol", [1]),
    _patched(SCENARIOS[0], "protocol", {}),
    *(_patched(SCENARIOS[1], "protocol_params", {"request_expiry": value})
      for value in ("x", None, 1.5)),
    *(_rot_scrambled_to(value) for value in ("x", None, 99)),
    _patched(SCENARIOS[1], "faults", {"mode": "list", "entries": [
        {"when_kind": "region", "when": 14, "kind": "delete_msg",
         "target": 0, "pid": None}]}),
], ids=["skew-x", "skew-null", "skew-list", "protocol-list", "protocol-dict",
        "param-x", "param-null", "param-float", "rot-x", "rot-null",
        "rot-99", "msg-fault-null-pid"])
def test_wrong_scenario_value_is_a_config_error(run_cli, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli("run", "--scenario", str(bad),
                           "--out", str(tmp_path / "t.jsonl"))
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_scrambling_within_the_domain_runs(run_cli, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_rot_scrambled_to(2)), encoding="utf-8")
    code, _, _ = run_cli("run", "--scenario", str(good),
                         "--out", str(tmp_path / "t.jsonl"))
    assert code == EXIT_OK


@pytest.mark.parametrize("grid", [
    {"rs": "x", "delays": [900], "rates": [1]},
    {"rs": 100, "delays": 3, "rates": [1]},
    {"rs": 100, "delays": ["a"], "rates": [1]},
    {"rs": 100, "delays": [900], "rates": []},
])
def test_wrong_grid_value_is_a_config_error(run_cli, tmp_path, grid):
    bad = tmp_path / "grid.json"
    bad.write_text(json.dumps(grid), encoding="utf-8")
    code, _, err = run_cli("sweep", "--grid", str(bad))
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_arrival_of_an_unsent_message_fails_the_lifetime_scan(run_cli,
                                                               tmp_path):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", SCENARIOS[1], "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    next(r["data"] for r in recs if r["rec"] == "event"
         and r["data"]["ev"] == "arrive")["mid"] = 99999
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, stdout, err = run_cli("check", "--trace", str(out),
                                "--scenario", SCENARIOS[1])
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert "FAIL msg-lifetime: step" in stdout
    assert "message 99999 arrive, but no send" in stdout


@pytest.mark.parametrize("path,kind,field,change", [
    (SCENARIOS[0], "clock", "locals", lambda v: [str(x) for x in v]),
    (SCENARIOS[0], "clock", "regions", lambda v: [str(x) for x in v]),
    (SCENARIOS[1], "clock", "locals", lambda v: [str(x) for x in v]),
    (SCENARIOS[1], "rc", "changes", lambda v: [[1]]),
], ids=["clock-locals", "clock-regions", "faulted-clock-locals",
        "rc-change-row"])
def test_list_field_of_the_wrong_shape_is_refused_with_its_line(
        run_cli, tmp_path, path, kind, field, change):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", path, "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    lineno, data = next((i, r["data"]) for i, r in enumerate(recs, 1)
                        if r["rec"] == "event" and r["data"]["ev"] == kind)
    data[field] = change(data[field])
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, _, err = run_cli("check", "--trace", str(out), "--scenario", path)
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: malformed trace {out}: "
                          f"line {lineno}: {kind} event field {field!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("rec,ev,key,outer", [
    ("event", "send", "send_region_local", False),
    ("event", "send", "bogus", False),
    ("row", None, "bogus", False),
    ("snapshot", None, "bogus", False),
    ("row", None, "bogus", True),
    ("event", "send", "bogus", True),
    ("snapshot", None, "bogus", True),
    ("meta", None, "bogus", True),
], ids=["retired-send-field", "send", "row", "snapshot", "outer-row",
        "outer-send", "outer-snapshot", "outer-meta"])
def test_an_undeclared_key_is_refused_with_its_line(run_cli, tmp_path, rec,
                                                    ev, key, outer):
    """A record whose data holds a key its kind does not declare, a field
    the format no longer has among them, or whose line's object holds a key
    besides ``rec`` and ``data`` (``outer``), is refused, naming its line
    and the key, where it used to load as if the key were not there."""
    out = tmp_path / "t.jsonl"
    path = SCENARIOS[1]
    run_cli("run", "--scenario", path, "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    lineno, r = next((i, r) for i, r in enumerate(recs, 1)
                     if r["rec"] == rec and r["data"].get("ev") == ev)
    (r if outer else r["data"])[key] = 11
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    code, _, err = run_cli("check", "--trace", str(out), "--scenario", path)
    assert code == EXIT_CONFIG
    what = ("record has undeclared key" if outer else
            f"{ev + ' event' if ev else rec} has undeclared field")
    assert err == (f"config error: malformed trace {out}: line {lineno}: "
                   f"{what} {key!r}\n")


def _check_doctored(run_cli, tmp_path, path, change):
    """``check`` on a fresh trace of ``path`` after ``change(records)``."""
    out = tmp_path / "t.jsonl"
    run_cli("run", "--scenario", path, "--out", str(out))
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    change(recs)
    out.write_text("".join(json.dumps(r) + "\n" for r in recs),
                   encoding="utf-8")
    return run_cli("check", "--trace", str(out), "--scenario", path)


def _events(recs, kind):
    return [r["data"] for r in recs
            if r["rec"] == "event" and r["data"]["ev"] == kind]


def _start(recs):
    return next(r["data"]["state"] for r in recs if r["rec"] == "snapshot")


def _no_snapshots(recs):
    recs[:] = [r for r in recs if r["rec"] != "snapshot"]


def _first_fault(recs, kind):
    return next(e for e in _events(recs, "fault") if e["fault_kind"] == kind)


@pytest.mark.parametrize("path,change,fault", [
    (SCENARIOS[1], lambda r: _start(r)["in_flight"].append([1, 2, 3]),
     "snapshot at step 0: message row [1, 2, 3]"),
    (SCENARIOS[1], lambda r: _start(r)["procs"][0]["colls"]["req"].append(
        [1]), "snapshot at step 0: pid 0"),
    (SCENARIOS[1], lambda r: _start(r).update(regions="abc"),
     "snapshot at step 0: field 'regions'"),
    (SCENARIOS[1], lambda r: _start(r).pop("procs"),
     "snapshot at step 0: lacks field 'procs'"),
    (SCENARIOS[1], lambda r: _start(r).update(bogus=1),
     "snapshot at step 0: has undeclared field 'bogus'"),
    (SCENARIOS[1], lambda r: _start(r)["procs"][1].update(bogus=1),
     "snapshot at step 0: pid 1: it needs"),
    (SCENARIOS[1], _no_snapshots, "no snapshot at step 0"),
    (SCENARIOS[0], _no_snapshots, "no snapshot at step 0"),
    (SCENARIOS[1], lambda r: _events(r, "rc")[0].update(pid=77),
     "rc event pid 77"),
    (SCENARIOS[1], lambda r: _events(r, "rc")[0]["changes"][0].__setitem__(
        2, "zz"), "rc event change 'free' None 'zz'"),
    (SCENARIOS[1], lambda r: _events(r, "wfree")[0].update(name="zz"),
     "wfree event name 'zz'"),
    (SCENARIOS[1], lambda r: _events(r, "dcreate")[0].update(coll="zz"),
     "dcreate event coll 'zz'"),
    (SCENARIOS[1], lambda r: _events(r, "fault")[0].update(detail={}),
     "fault event detail keys [] are not ['proc']"),
    (SCENARIOS[1], lambda r: _events(r, "fault")[0]["detail"].update(
        g_region="x"), "fault event detail keys ['proc', 'g_region'] are not "
     "['proc']"),
    (SCENARIOS[1], lambda r: _events(r, "send")[0].update(dst=99),
     "send event dst 99"),
    (SCENARIOS[1], lambda r: _events(r, "consume")[0].update(pid=99),
     "consume event pid 99"),
    (SCENARIOS[1], lambda r: _events(r, "var")[0].update(pid=99),
     "var event pid 99"),
    (SCENARIOS[1], lambda r: _events(r, "fault")[0].update(fault_kind="zap"),
     "fault event fault_kind 'zap'"),
    (SCENARIOS[1], lambda r: _start(r)["procs"][2]["vars"].update(mood=1),
     "snapshot at step 0: pid 2: it needs"),
    (SCENARIOS[1], lambda r: _start(r)["procs"][2]["vars"].clear(),
     "snapshot at step 0: pid 2: it needs"),
    (SCENARIOS[1], lambda r: _first_fault(r, "overwrite_free").update(
        fault_kind="delete_msg"),
     "step 96: fault event of kind delete_msg needs pid null, not 0"),
    (SCENARIOS[1], lambda r: _first_fault(r, "overwrite_msg").update(pid=1),
     "fault event of kind overwrite_msg needs pid null, not 1"),
    (SCENARIOS[1], lambda r: _first_fault(r, "overwrite_free").update(
        pid=None), "step 96: fault event of kind overwrite_free needs a pid"),
    # a row still holding a stamp the format no longer has: a message row's
    # send step and local send region, a cell row's global creation region
    (SCENARIOS[1], lambda r: _first_msg_row(r).__setitem__(
        slice(6, 6), [0, 11]), f"is no [{', '.join(tr.MsgRow._fields)}] row"),
    (SCENARIOS[1], lambda r: _first_cell_row(r).insert(3, 11),
     f"as lists of [{', '.join(tr.CellRow._fields)}] rows"),
], ids=["in-flight-row", "cell-row", "regions", "no-procs",
        "undeclared-state-key", "undeclared-proc-key", "no-snapshot-faulted",
        "no-snapshot-clean", "rc-pid", "rc-change", "wfree-name",
        "dcreate-coll", "fault-detail", "fault-g_region", "send-dst",
        "consume-pid", "var-pid", "fault-kind", "extra-var", "missing-var",
        "fault-kind-renamed", "message-fault-pid", "process-fault-no-pid",
        "older-message-row", "older-cell-row"])
def test_trace_that_does_not_fit_its_program_is_a_config_error(
        run_cli, tmp_path, path, change, fault):
    code, _, err = _check_doctored(run_cli, tmp_path, path, change)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: malformed trace: ")
    assert fault in err
    assert "Traceback" not in err


# every field whose declaration says it names something, of each event kind
# and of a snapshot's message rows
_NAME_FIELDS = [(kind, fld, name) for kind, event in tr.EVENTS.items()
                for fld, name in event.names.items()]
_NAME_FIELDS += [("MsgRow", fld, name) for fld, name in tr.MsgRow.names.items()]


@pytest.mark.parametrize("kind,fld,name", _NAME_FIELDS,
                         ids=[f"{kind}-{fld}" for kind, fld, _ in _NAME_FIELDS])
def test_a_name_the_program_does_not_declare_is_refused(run_cli, tmp_path,
                                                        kind, fld, name):
    """A shipped trace with one named field set to a name its program does
    not declare is a config error naming the kind, the field and the
    value."""
    value = "zz" if name.type is str else 99

    def change(recs):
        if kind == "MsgRow":
            row = next(r["data"]["state"]["in_flight"][0] for r in recs
                       if r["rec"] == "snapshot"
                       and r["data"]["state"]["in_flight"])
            row[tr.MsgRow._fields.index(fld)] = value
        else:
            _events(recs, kind)[0][fld] = value

    code, _, err = _check_doctored(run_cli, tmp_path, SCENARIOS[1], change)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: malformed trace: ")
    what = "message row [" if kind == "MsgRow" else f"{kind} event "
    assert what in err and f"{fld} {value!r} is not among" in err
    assert "Traceback" not in err


def _set_first(rec, key, value):
    def change(recs):
        next(r["data"] for r in recs if r["rec"] == rec)[key] = value
    return change


def _set_first_event(kind, key, value):
    def change(recs):
        _events(recs, kind)[0][key] = value
    return change


@pytest.mark.parametrize("change,fault", [
    (_set_first("row", "d", True), "row field 'd' may not be a bool"),
    (_set_first_event("send", "src", True),
     "send event field 'src' may not be a bool"),
    (lambda r: _events(r, "clock")[0]["locals"].__setitem__(0, True),
     "clock event field 'locals' must be a list of integers"),
    (lambda r: _start(r).update(next_mid=False),
     "snapshot at step 0: field 'next_mid' may not be a bool"),
    (lambda r: _start(r)["budgets"].update(clock=True),
     "snapshot at step 0: it needs"),
], ids=["row-d", "send-src", "clock-locals", "snapshot-next_mid",
        "snapshot-budget"])
def test_a_boolean_where_an_integer_is_declared_is_refused(run_cli, tmp_path,
                                                          change, fault):
    code, _, err = _check_doctored(run_cli, tmp_path, SCENARIOS[0], change)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: malformed trace")
    assert fault in err
    if not fault.startswith("snapshot"):
        assert ": line " in err
    assert "Traceback" not in err


def test_a_boolean_meta_value_does_not_match_the_scenario(run_cli, tmp_path):
    code, _, err = _check_doctored(run_cli, tmp_path, SCENARIOS[0],
                                   _set_first("meta", "fault_count", False))
    assert code == EXIT_CONFIG
    assert "does not match scenario; fault_count: trace has False" in err


def _last_cs_mark(data):
    def change(recs):
        [m for m in _events(recs, "mark") if m["mark_kind"] == "cs"][-1][
            "data"] = data
    return change


def _first_decide_mark(recs):
    next(m for m in _events(recs, "mark")
         if m["mark_kind"] == "decide")["data"] = {}


@pytest.mark.parametrize("path,change", [
    (SCENARIOS[1], _last_cs_mark({})),
    (SCENARIOS[1], _last_cs_mark(5)),
    (SCENARIOS[2], _first_decide_mark),
], ids=["cs-empty", "cs-int", "decide-empty"])
def test_safety_is_not_judged_from_marks_a_failed_replay_read(
        run_cli, tmp_path, path, change):
    code, stdout, err = _check_doctored(run_cli, tmp_path, path, change)
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert "-replay: " in stdout and "diverges" in stdout
    assert "FAIL protocol-safety: not judged, replay failed" in stdout


def test_an_event_past_the_last_row_fails_the_replay(run_cli, tmp_path):
    def change(recs):
        at = max(i for i, r in enumerate(recs) if r["rec"] == "event")
        recs.insert(at + 1, {"rec": "event", "data": {
            "step": 10 ** 6, "ev": "mark", "mark_kind": "cs", "pid": 0,
            "data": {}}})
    code, stdout, err = _check_doctored(run_cli, tmp_path, SCENARIOS[1],
                                        change)
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert "past its last row" in stdout
    assert "FAIL protocol-safety: not judged, replay failed" in stdout


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
@pytest.mark.parametrize("where", ["send", "snapshot"])
def test_a_message_setting_both_or_neither_delivery_step_is_refused(
        run_cli, tmp_path, where, both):
    """The kernel sets exactly one of a message's arrival and drop steps, in
    its send record and in a snapshot's message row; a record setting both
    or neither is refused before the replay, naming its step."""
    at = {}

    def change(recs):
        if where == "send":
            msg = _events(recs, "send")[0]
            arrival, drop = "arrival_step", "drop_step"
            at["where"] = f"step {msg['step']}: send event"
        else:
            snap = next(r["data"] for r in recs if r["rec"] == "snapshot"
                        and r["data"]["state"]["in_flight"])
            msg = snap["state"]["in_flight"][0]
            arrival, drop = map(tr.MsgRow._fields.index,
                                ("arrival_step", "drop_step"))
            at["where"] = f"snapshot at step {snap['step']}: message row"
        step = msg[arrival] if msg[arrival] is not None else msg[drop]
        msg[arrival] = msg[drop] = step if both else None
    code, _, err = _check_doctored(run_cli, tmp_path, SCENARIOS[1], change)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: malformed trace: ")
    assert at["where"] in err
    assert "must set exactly one of arrival_step and drop_step" in err
    assert "Traceback" not in err


def _first_dcreate_from_step_600(recs):
    ev = next(e for e in _events(recs, "dcreate") if e["step"] >= 600)
    ev["residue"] += 10 ** 6
    return ev["step"]


def _rc_change(i, value):
    def change(recs):
        ev = next(e for e in _events(recs, "rc") if e["changes"])
        ev["changes"][0][i] = value
        return ev["step"]
    return change


def _first_event(kind, key, value):
    def change(recs):
        ev = _events(recs, kind)[0]
        if key == "cells":
            ev["cells"] = {fld: value for fld in ev["cells"]}
        else:
            ev[key] = value
        return ev["step"]
    return change


def _first_cell_row(recs):
    return next(rows[0] for r in recs if r["rec"] == "snapshot"
                for p in r["data"]["state"]["procs"]
                for rows in p["colls"].values() if rows)


def _first_msg_row(recs):
    return next(r["data"]["state"]["in_flight"][0] for r in recs
                if r["rec"] == "snapshot" and r["data"]["state"]["in_flight"])


@pytest.mark.parametrize("change,fault", [
    (_first_dcreate_from_step_600,
     "dcreate event residue 1000351 lies outside [0, 512)"),
    (_first_event("wfree", "residue", 512),
     "wfree event residue 512 lies outside [0, 512)"),
    (_first_event("wfree", "residue", -1),
     "wfree event residue -1 lies outside [0, 512)"),
    (_rc_change(3, 512), "rc event residue 512 lies outside [0, 512)"),
    (_rc_change(4, 600), "rc event residue 600 lies outside [0, 512)"),
    (_first_event("send", "cells", 512), "send event cells {'stamp': 512}"),
    (lambda r: _start(r)["procs"][1]["free"].update(clk=512),
     "snapshot at step 0: pid 1: it needs free counters"),
    (lambda r: _first_cell_row(r).__setitem__(
        tr.CellRow._fields.index("residue"), 512),
     ": it needs free counters"),
    (lambda r: _first_msg_row(r)[tr.MsgRow._fields.index("cells")].update(
        stamp=-3), "with residues its kind's registers hold"),
], ids=["dcreate", "wfree", "wfree-negative", "rc-old", "rc-new", "send",
        "snapshot-free", "snapshot-cell", "snapshot-message"])
def test_a_residue_no_register_holds_is_refused(run_cli, tmp_path, change,
                                                fault):
    """Every residue a trace records must fit its family's register, as a
    fault's value must: a doctored one is refused before any check runs,
    naming its step."""
    at = {}
    code, stdout, err = _check_doctored(
        run_cli, tmp_path, SCENARIOS[1],
        lambda recs: at.update(step=change(recs)))
    assert code == EXIT_CONFIG, stdout
    assert err.startswith("config error: malformed trace: ")
    if at["step"] is not None:
        assert f"step {at['step']}: " in err
    assert fault in err
    assert "Traceback" not in err


def test_a_fault_may_fill_a_register_above_the_modulus(run_cli, tmp_path):
    """A fault may write any residue a register holds, 510 here where the
    modulus is 456; the residue it leaves is recorded and checked like any
    other."""
    doc = json.loads(open(SCENARIOS[1], encoding="utf-8").read())
    doc["seed"] = 1
    doc["faults"] = {"mode": "list", "entries": [
        {"when_kind": "region", "when": 15, "kind": "insert_dep",
         "target": "req", "pid": 0, "value": 510}]}
    path, out = tmp_path / "s.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("run", "--scenario", str(path), "--out", str(out))[0] == 0
    recs = [json.loads(line) for line in
            out.read_text(encoding="utf-8").splitlines()]
    assert any(ch[3] == 510 for ev in _events(recs, "rc")
               for ch in ev["changes"])
    code, stdout, _ = run_cli("check", "--trace", str(out),
                              "--scenario", str(path))
    assert code == EXIT_OK, stdout


def _mutex_with_dep_faults(tmp_path):
    """The mutex scenario with list-mode faults that insert a ``req`` cell
    on pid 0 and then overwrite it, both applied."""
    doc = json.loads(open(SCENARIOS[1], encoding="utf-8").read())
    doc["faults"] = {"mode": "list", "entries": [
        {"when_kind": "region", "when": 15, "kind": kind, "target": target,
         "pid": 0, "value": value}
        for kind, target, value in [("insert_dep", "req", 5),
                                    ("overwrite_dep", ["req", 0], 7)]]}
    path = tmp_path / "dep_faults.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _proc_free(value):
    return lambda edit: edit["proc"]["free"].update(clk=value)


def _last_cell(coll, value):
    """Set the residue of the last ``coll`` row of the recorded process."""
    return lambda edit: edit["proc"]["colls"][coll][-1].__setitem__(1, value)


def _msg_cells(cells):
    return lambda edit: edit["msg"].__setitem__(
        tr.MsgRow._fields.index("cells"), cells)


@pytest.mark.parametrize("kind,change,fault", [
    ("overwrite_free", _proc_free(10 ** 6), "pid 0: it needs free counters"),
    ("overwrite_free", _proc_free(-1), "pid 0: it needs free counters"),
    ("delete_dep", _proc_free(512), "pid 0: it needs free counters"),
    ("overwrite_msg", _msg_cells({"req_stamp": 512, "stamp": 180}),
     "with residues its kind's registers hold"),
    ("overwrite_msg", _msg_cells({"req_stamp": "x", "stamp": 180}),
     "with residues its kind's registers hold"),
    ("overwrite_msg", _msg_cells({"zz": 60, "stamp": 180}),
     "with residues its kind's registers hold"),
    ("insert_dep", _last_cell("req", 512), "pid 0: it needs free counters"),
    ("overwrite_dep", _last_cell("req", 10 ** 6),
     "pid 0: it needs free counters"),
    ("overwrite_dep", lambda edit: edit["proc"]["colls"].update(req=["req"]),
     "as lists of [cid, residue, created_local, tag] rows"),
    ("delete_dep", lambda edit: edit["proc"]["colls"].update(req=["req"]),
     "as lists of [cid, residue, created_local, tag] rows"),
    ("scramble_var", lambda edit: edit["proc"]["vars"].update(mood=1),
     "and vars ['in_cs']"),
], ids=["overwrite_free-free-high", "overwrite_free-free-low",
        "delete_dep-free", "overwrite_msg-cell-high", "overwrite_msg-cell-str",
        "overwrite_msg-cell-field", "insert_dep-cell", "overwrite_dep-cell",
        "overwrite_dep-coll", "delete_dep-coll", "scramble_var-var"])
def test_a_fault_detail_residue_no_register_holds_is_refused(
        run_cli, tmp_path, kind, change, fault):
    """An applied fault records the process or message row it edited, which
    must fit the program as a snapshot's must, every residue in its
    register: the seed-2024 mutex trace with a residue of the record of its
    first applied fault of a kind doctored, here the ``clk`` of its step-96
    ``overwrite_free`` to 10**6, is refused."""
    path = (_mutex_with_dep_faults(tmp_path)
            if kind in ("insert_dep", "overwrite_dep") else SCENARIOS[1])
    at = {}

    def doctor(recs):
        ev = next(e for e in _events(recs, "fault")
                  if e["fault_kind"] == kind and e["applied"])
        change(ev["detail"])
        at["step"] = ev["step"]
    code, stdout, err = _check_doctored(run_cli, tmp_path, path, doctor)
    assert code == EXIT_CONFIG, stdout
    assert err.startswith(f"config error: malformed trace: step {at['step']}: "
                          "fault event ")
    assert fault in err
    assert "Traceback" not in err
    if kind == "overwrite_free":
        assert at["step"] == 96


def test_a_fault_old_residue_the_counter_did_not_hold_fails_containment(
        run_cli, tmp_path):
    """A fault records its process's free counters as it left them, so one
    it did not write must hold the residue the trace says it held: the
    seed-2024 mutex trace with the ``clk`` of its step-96 ``scramble_var``
    on pid 1 doctored from 180 to 181 fails free containment."""
    def change(recs):
        ev = next(e for e in _events(recs, "fault") if e["step"] == 96
                  and e["fault_kind"] == "scramble_var")
        assert ev["detail"]["proc"]["free"] == {"clk": 180}
        ev["detail"]["proc"]["free"]["clk"] = 181
    code, stdout, err = _check_doctored(run_cli, tmp_path, SCENARIOS[1],
                                        change)
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert ("FAIL free-containment: step 96: pid 1 fault records residue "
            "181 of 'clk', which held 180") in stdout.splitlines()


def _stamp_step_2_cell(recs):
    ev = next(e for e in _events(recs, "dcreate") if e["step"] == 2)
    assert (ev["pid"], ev["cid"], ev["created_local"]) == (0, 0, 11)
    ev["created_local"] = 61


def _stamp_start_cell(recs):
    assert _start(recs)["regions"][1] == 11
    _start(recs)["procs"][1]["colls"]["req"].append([0, 136, 61, "own"])


@pytest.mark.parametrize("change,where", [
    (_stamp_step_2_cell, "step 2: pid 0"), (_stamp_start_cell, "step 0: pid 1")],
    ids=["dcreate", "start-snapshot"])
def test_a_cell_stamped_after_its_owners_region_fails_dep_lifetime(
        run_cli, tmp_path, change, where):
    """A cell stamped in a later region than its owner's would have a
    negative age and never expire: the seed-2024 mutex trace with its step-2
    ``dcreate`` doctored from ``created_local`` 11 to 61, or with such a
    cell added to its start snapshot, fails the scan."""
    code, stdout, err = _check_doctored(run_cli, tmp_path, SCENARIOS[1],
                                        change)
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert (f"FAIL dep-lifetime: {where} cell 0 in 'req' stamped in region "
            "61, after its owner's region 11") in stdout.splitlines()


@pytest.mark.parametrize("budget", [0, -5, 1])
def test_a_doctored_budget_fails_the_suffix_replay(run_cli, tmp_path, budget):
    """The replay reads a snapshot's budget as the kernel would have: one
    too small to pay for the recorded action fails the action selection."""
    def change(recs):
        next(r["data"]["state"] for r in recs if r["rec"] == "snapshot"
             and r["data"]["state"]["label"] == "region:51")[
                 "budgets"]["clk"] = budget
    code, stdout, err = _check_doctored(run_cli, tmp_path, SCENARIOS[1],
                                        change)
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert "FAIL suffix-replay" in stdout
    assert "action selection differs" in stdout


def test_an_exception_in_the_reference_run_is_a_divergence(run_cli,
                                                          tmp_path):
    """Protocol code that raises on a doctored state in the replay fails the
    replay at that step, naming the exception and the action, with no
    traceback: here every ``rot`` variable in the boundary snapshot of a
    vector-clocks run is a string, which ``gossip`` cannot take modulo the
    neighbour count."""
    doc = scenario_doc("vector_clocks", seed=2, faults={
        "mode": "list", "entries": [
            {"when_kind": "region", "when": 10, "kind": "overwrite_free",
             "target": "own", "pid": 0, "value": 7}]})
    path = tmp_path / "vc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def change(recs):
        snap = next(r["data"]["state"] for r in recs if r["rec"] == "snapshot"
                    and r["data"]["state"]["label"] == "region:39")
        for proc in snap["procs"]:
            proc["vars"]["rot"] = "x"
    code, stdout, err = _check_doctored(run_cli, tmp_path, str(path), change)
    assert code == EXIT_FAIL
    assert "Traceback" not in err
    assert ("FAIL suffix-replay: suffix from step 1551 (region 39) diverges "
            "at step 1551: reference run raised TypeError(") in stdout
    assert ") in 'gossip'" in stdout


def test_check_takes_the_fault_stop_from_the_scenario(run_cli, tmp_path):
    """A region a fault's record carries is not where check reads the fault
    stop: here the send region of the message row that the last fault of
    the seed-2024 mutex trace overwrote."""
    def change(recs):
        row = _events(recs, "fault")[-1]["detail"]["msg"]
        row[tr.MsgRow._fields.index("send_region_global")] = 30
    code, stdout, _ = _check_doctored(run_cli, tmp_path, SCENARIOS[1], change)
    assert code == EXIT_OK, stdout
    assert "the last fault (region 15)" in stdout


def test_an_event_before_step_0_is_refused(run_cli, tmp_path):
    """No replay compares an event recorded before the first row."""
    def change(recs):
        at = next(i for i, r in enumerate(recs) if r["rec"] == "event")
        recs.insert(at, {"rec": "event", "data": {
            "step": -1, "ev": "dcreate", "pid": 0, "coll": "pend",
            "cid": 999, "residue": 0, "lifted": 0, "created_local": -50,
            "tag": None, "corrected": False}})
    code, stdout, err = _check_doctored(run_cli, tmp_path, SCENARIOS[2],
                                        change)
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert ("config error: malformed trace: step -1: dcreate event is "
            "recorded before step 0") in err


@pytest.mark.parametrize("where", ["before", "after"])
def test_a_snapshot_outside_the_run_is_refused(run_cli, tmp_path, where):
    """No replay compares a snapshot recorded before step 0 or after the
    last step, so a doctored one there must not pass unread."""
    run = {}

    def change(recs):
        at = next(i for i, r in enumerate(recs) if r["rec"] == "snapshot")
        state = json.loads(json.dumps(_start(recs)))
        state["procs"][0]["colls"]["pend"].append([999, 0, -50, None])
        steps = sum(r["rec"] == "row" for r in recs)
        run.update(steps=steps, step=-1 if where == "before" else steps + 1)
        recs.insert(at, {"rec": "snapshot",
                         "data": {"step": run["step"], "state": state}})
    code, stdout, err = _check_doctored(run_cli, tmp_path, SCENARIOS[2],
                                        change)
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert (f"config error: malformed trace: snapshot at step {run['step']} "
            f"lies outside steps 0..{run['steps']} of the run") in err


@pytest.mark.parametrize("field,value", [
    ("drift_policy", {"kind": "none"}),
    ("channel", {"max_delay_steps": 25, "loss_probability": 0.5}),
], ids=["drift", "loss"])
def test_a_scenario_differing_in_any_run_field_does_not_match(
        run_cli, tmp_path, field, value):
    out, other = tmp_path / "t.jsonl", tmp_path / "other.json"
    run_cli("run", "--scenario", SCENARIOS[0], "--out", str(out))
    with open(SCENARIOS[0], encoding="utf-8") as fp:
        doc = json.load(fp)
    other.write_text(json.dumps({**doc, field: value}), encoding="utf-8")
    code, stdout, err = run_cli("check", "--trace", str(out),
                                "--scenario", str(other))
    assert code == EXIT_CONFIG
    assert stdout == ""
    key = {"drift_policy": "drift", "channel": "loss_probability"}[field]
    assert f"trace does not match scenario; {key}: trace has" in err


def test_a_meta_value_matches_only_its_own_json_type(run_cli, tmp_path):
    code, _, err = _check_doctored(
        run_cli, tmp_path, SCENARIOS[0],
        lambda r: next(x["data"] for x in r if x["rec"] == "meta")[
            "drift"].update(max_step_skew=3.0))
    assert code == EXIT_CONFIG
    assert "does not match scenario; drift: trace has" in err


def _nan_u1_at_step_5(recs):
    at = next(i for i, r in enumerate(recs)
              if r["rec"] == "row" and r["data"]["step"] == 5)
    recs[at]["data"]["u1"] = float("nan")
    return at


def _second_meta(recs):
    recs.insert(1, recs[0])
    return 1


def _forged_start_before_the_real_one(recs):
    at = next(i for i, r in enumerate(recs) if r["rec"] == "snapshot")
    forged = json.loads(json.dumps(recs[at]))
    forged["data"]["state"]["t"] += 100
    recs.insert(at, forged)
    return at + 1


@pytest.mark.parametrize("change,fault", [
    (_nan_u1_at_step_5, "not valid JSON: NaN is not a JSON number"),
    (_second_meta, "a second meta record"),
    (_forged_start_before_the_real_one, "a second snapshot at step 0"),
], ids=["nan", "meta", "snapshot"])
def test_a_non_finite_number_or_a_duplicate_record_is_refused(
        run_cli, tmp_path, change, fault):
    """Each of these once loaded and went on to the checks: the NaN failed
    the replay, and the duplicates passed."""
    where = []
    code, stdout, err = _check_doctored(
        run_cli, tmp_path, SCENARIOS[0], lambda r: where.append(change(r)))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err.endswith(f".jsonl: line {where[0] + 1}: {fault}\n")
