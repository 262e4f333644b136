"""One workload in one fresh process: set up, measure, verify, report.

Started by ``run.py``; prints one JSON object on its last stdout line.

Modes:
  setup    import the program, parse the workload's scenarios, run the
           warm-up job, report the set-up time and exit.
  memory   set up, then run one round of jobs untimed and report the
           process's peak resident memory (and the set-up time).
  measure  set up, then run whole rounds of jobs untraced until ``--seconds``
           of job time have passed, a reference pass timed after every
           job; report the end-to-end metrics at reference speed.
  trace    set up, wrap the layers (tracer.py) and run whole rounds for
           half of ``--seconds``, each traced job followed by the same job
           untraced; require identical traces, and report the per-layer
           metrics and the tracing overhead.

A job is one kernel run of one (scenario, seed) followed by the check that
``regionbound check`` applies to it. Only job time is measured: digests and
trace counts are taken between jobs, outside the timed region.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import fractions  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pprint  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import textwrap  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The reference pass: fixed pure-Python work of the benchmark's own (no
# program code), timed between jobs. A shared host's speed drifts by tens of
# percent over minutes, for every process alike; the pass drifts with it.
# Job and set-up times are scaled by REFERENCE_NS / (the pass's time measured
# next to them), i.e. to the speed at which the pass takes REFERENCE_NS,
# about its median on the 2-core host the benchmark was written on. A change
# to the program cannot move the pass, so it moves the scaled times fully.
# The pass has two parts. The loop reads a table of 200k tuples (~22 MB) at
# random, so that, like the program's traces, its data does not fit in the
# CPU's caches. The mix runs pure-Python standard-library code (difflib,
# fractions, pprint, textwrap), so that, like the program, it executes many
# different functions rather than one tight loop.
REFERENCE_TABLE_LEN = 200_000
REFERENCE_ITERS = 8000
REFERENCE_RESULT = (803349287, 10431)
REFERENCE_NS = 27_000_000
SETUP_REFERENCE_SAMPLES = 9
_reference_table: list = []
_MIX_LINES = [f"line {i} {'x' * (i % 7)} {i * 7919 % 101}" for i in range(300)]
_MIX_EDITED = [line if i % 5 else line + "!" for i, line in enumerate(_MIX_LINES)]
_MIX_NESTED = {i: [(j, str(j), j / 3) for j in range(i % 9)] for i in range(80)}


def reference_table() -> list:
    if not _reference_table:
        _reference_table.extend((i * 7919 % 100003, i)
                                for i in range(REFERENCE_TABLE_LEN))
    return _reference_table


def reference_loop(table: list, iters: int = REFERENCE_ITERS) -> int:
    counts = {}
    queue = []
    x = 1
    for _ in range(iters):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key, value = table[x % REFERENCE_TABLE_LEN]
        counts[key & 4095] = counts.get(key & 4095, 0) + value
        queue.append((key, value))
        if len(queue) == 64:
            queue.sort()
            del queue[:32]
    return sum(counts.values()) + sum(q[0] for q in queue)


def reference_mix() -> int:
    ops = difflib.SequenceMatcher(None, _MIX_LINES, _MIX_EDITED).get_opcodes()
    total = sum(fractions.Fraction(i, i + 1) for i in range(1, 30))
    text = pprint.pformat(_MIX_NESTED)
    lines = textwrap.wrap(" ".join(_MIX_LINES[:40]), 50)
    return len(ops) + total.numerator % 1000 + len(text) + len(lines)


def reference_ns() -> int:
    """One timed reference pass, checked for its results. The garbage
    collector is off meanwhile, so the program's heap cannot change the
    pass's time."""
    table = reference_table()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        result = (reference_loop(table), reference_mix())
        ns = perf_counter_ns() - t0
    finally:
        gc.enable()
    if result != REFERENCE_RESULT:
        raise SystemExit(f"reference pass returned {result}, not {REFERENCE_RESULT}")
    return ns


def import_program() -> dict:
    """Import regionbound from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    names = ("analysis", "cli", "errors", "faults", "kernel", "oracle", "scenario",
             "trace", "transform", "protocols.mutual_exclusion",
             "protocols.consensus")
    mods = {name.rsplit(".", 1)[-1]: importlib.import_module(f"regionbound.{name}")
            for name in names}
    where = Path(mods["kernel"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"imported regionbound from {where}, not from {ROOT / 'src'}")
    return mods


class _Sha256Sink:
    """File-like sink that hashes what ``Trace.write_jsonl`` writes."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode("utf-8"))


class Job:
    __slots__ = ("idx", "label", "seed", "ns", "ref_ns", "steps", "ok",
                 "detail", "digest")

    def __init__(self, idx, label, seed):
        self.idx, self.label, self.seed = idx, label, seed
        self.ns = self.steps = 0
        self.ref_ns = REFERENCE_NS
        self.ok = False
        self.detail = ""
        self.digest = None

    @property
    def scaled_ns(self) -> float:
        """Job time at the reference speed."""
        return self.ns * REFERENCE_NS / self.ref_ns


class Bench:
    def __init__(self, workload: str, size: str, mods: dict, workdir: Path):
        self.workload = workload
        self.mods = mods
        self.workdir = workdir
        self.entries = workloads.scenarios(workload, size)
        self.via_cli = workload == "cli-scenarios"
        self.scenarios = self.parse_all()

    def parse_all(self) -> list:
        scenario = self.mods["scenario"]
        if self.via_cli:
            return [scenario.load(src) for _, src in self.entries]
        return [scenario.parse(src) for _, src in self.entries]

    def run_job(self, job: Job, scens: list):
        """Time one job; returns what the post-job step reads the trace from
        (the Trace object, or the trace file's path), or None when the run
        aborted."""
        sc = scens[job.idx]
        job.steps = sc.cfg.total_steps
        if self.via_cli:
            return self._cli_job(job)
        kernel, analysis = self.mods["kernel"], self.mods["analysis"]
        errors = self.mods["errors"]
        t0 = perf_counter_ns()
        try:
            trace = kernel.run(sc.cfg, job.seed)
        except (errors.KernelInvariantError, errors.ProtocolBug) as exc:
            job.ns = perf_counter_ns() - t0
            job.detail = f"run aborted: {exc}"
            return None
        report = analysis.closure_check(sc.prog, trace)
        analysis.scan_region_gaps(trace, 1 if sc.cfg.drift.kind != "none" else 0,
                                  report=report)
        analysis.scan_msg_lifetime(trace, report=report)
        analysis.scan_dep_lifetimes(sc.prog, trace, report=report)
        if sc.prog.safety is not None:
            ok, detail = sc.prog.safety(trace, 0)
            report.add("protocol-safety", ok, detail)
        job.ns = perf_counter_ns() - t0
        expected = 4 + (sc.prog.safety is not None)
        job.ok = (report.ok and len(report.results) == expected
                  and trace.steps() == sc.cfg.total_steps)
        if not job.ok:
            job.detail = "; ".join(r.line() for r in report.results if not r.ok) \
                or f"{len(report.results)} checks, {trace.steps()} steps"
        return trace

    def _cli_job(self, job: Job):
        cli = self.mods["cli"]
        src = self.entries[job.idx][1]
        out = self.workdir / f"{job.label}.jsonl"
        out.unlink(missing_ok=True)
        buf = io.StringIO()
        t0 = perf_counter_ns()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(["run", "--scenario", src, "--seed", str(job.seed),
                           "--out", str(out)])
            if rc == 0:
                rc = cli.main(["check", "--trace", str(out), "--scenario", src])
        job.ns = perf_counter_ns() - t0
        lines = buf.getvalue().splitlines()
        last = lines[-1] if lines else ""
        job.ok = rc == 0 and last.startswith("all ") and last.endswith(" checks passed")
        if not job.ok:
            job.detail = f"exit {rc}: " + " | ".join(
                line for line in lines if line.startswith(("FAIL", "run aborted",
                                                           "config error")))
        return out if out.is_file() else None

    def load_trace(self, source):
        """The trace a job produced, read without any wrapped function."""
        if not self.via_cli:
            return source
        with open(source, encoding="utf-8") as fp:
            return self.mods["trace"].Trace.read_jsonl(fp)

    def digest(self, source) -> str:
        """SHA-256 of the job's trace in its JSONL form."""
        if self.via_cli:
            return hashlib.sha256(source.read_bytes()).hexdigest()
        sink = _Sha256Sink()
        source.write_jsonl(sink)
        return sink.hash.hexdigest()


def run_rounds(bench: Bench, scens: list, seeds, seconds: float, post,
               calibrate: bool = False) -> list[Job]:
    """Closed loop, one job at a time: whole rounds until ``seconds`` of job
    time have passed (at least one round). With ``calibrate`` a reference
    pass runs before the first job and after every job, and a job's
    ``ref_ns`` is the mean of the two passes beside it."""
    jobs: list[Job] = []
    before = reference_ns() if calibrate else None
    spent = 0
    budget = seconds * 1e9
    while not jobs or spent < budget:
        for idx, (label, _) in enumerate(bench.entries):
            job = Job(idx, label, seeds.randrange(1 << 30))
            source = bench.run_job(job, scens)
            if calibrate:
                after = reference_ns()
                job.ref_ns = (before + after) / 2
                before = after
            spent += job.ns
            jobs.append(job)
            post(job, source, len(jobs) - 1)
    return jobs


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def first_round_digest(jobs: list[Job], round_len: int) -> str:
    h = hashlib.sha256()
    for job in jobs[:round_len]:
        h.update((job.digest or "no trace").encode())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def memory(bench: Bench, seeds) -> dict:
    """One untimed round, run before the reference table exists (it would
    count in the peak): the peak resident memory of the program's jobs."""
    jobs = run_rounds(bench, bench.scenarios, seeds, 0, lambda *_: None)
    failed = [j for j in jobs if not j.ok]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": len(jobs),
        "failed": len(failed),
        "errors": [f"{j.label} seed {j.seed}: {j.detail}" for j in failed[:5]],
        "correct": not failed,
    }


def measure(bench: Bench, seeds, seconds: float) -> dict:
    round_len = len(bench.entries)

    def post(job, source, pos):
        if pos < round_len and source is not None:
            job.digest = bench.digest(source)

    jobs = run_rounds(bench, bench.scenarios, seeds, seconds, post, calibrate=True)
    raw_s = sum(j.ns for j in jobs) / 1e9
    scaled_s = sum(j.scaled_ns for j in jobs) / 1e9
    ms = [j.scaled_ns / 1e6 for j in jobs]
    failed = [j for j in jobs if not j.ok]
    verified = sum(j.steps for j in jobs if j.ok)
    rounds = [jobs[i:i + round_len] for i in range(0, len(jobs), round_len)]
    tail_ms, tail_pct = tail(ms)
    refs = [j.ref_ns / 1e6 for j in jobs]
    return {
        "metrics": {
            "verified_steps_per_s": metric(verified / scaled_s, "1/s"),
            "job_ms.p50": metric(statistics.median(
                statistics.median(j.scaled_ns / 1e6 for j in r) for r in rounds), "ms"),
            "job_ms.tail": metric(tail_ms, "ms"),
        },
        "notes": {
            "verified_steps_per_s": f"{verified} verified steps in {scaled_s:.3f} s "
                                    f"of job time at reference speed, "
                                    f"{len(rounds)} rounds; {verified / raw_s:.6g} "
                                    f"1/s unscaled ({raw_s:.3f} s)",
            "job_ms.p50": f"median over {len(rounds)} rounds of the round's median job",
            "job_ms.tail": f"p{tail_pct:.1f}, {len(jobs)} samples",
            "reference_pass_ms": f"median {statistics.median(refs):.3f}, range "
                                 f"{min(refs):.3f}-{max(refs):.3f}, reference "
                                 f"{REFERENCE_NS / 1e6:.3f}",
        },
        "digest": first_round_digest(jobs, round_len),
        "digest_jobs": round_len,
        "attempted": len(jobs),
        "failed": len(failed),
        "errors": [f"{j.label} seed {j.seed}: {j.detail}" for j in failed[:5]],
        "correct": not failed,
    }


def trace_counts(trace, tr) -> Counter:
    """Exact counts from one trace; ``tr`` is the regionbound.trace module."""
    c = Counter()
    c["steps"] = len(trace.rows)
    c["events"] = len(trace.events)
    c["selfloops"] = sum(1 for row in trace.rows if row[2] == tr.SELF_LOOP)
    for ev in trace.events:
        kind = ev[1]
        if kind == tr.EV_SEND:
            c["sent"] += 1
        elif kind == tr.EV_ARRIVE:
            c["arrived"] += 1
        elif kind == tr.EV_RC:
            c["corrections"] += sum(1 for change in ev[4] if change[6])
        elif kind == tr.EV_FAULT:
            c["faults"] += 1
            c["faults_applied"] += bool(ev[6])
    return c


def traced(bench: Bench, seeds, seconds: float, seed: int) -> dict:
    """Each traced job is followed by the same job untraced, so the overhead
    is measured under the same host conditions and the traces compared."""
    mods = bench.mods
    tracer = tracing.Tracer()
    tracing.install_layers(tracer, mods)
    traced_scens = bench.parse_all()
    parse_calls, parse_ns = tracer.calls("scenario.parse"), tracer.total_ns("scenario.parse")
    counts = Counter()
    traced_ns = plain_ns = 0

    def post(job, source, pos):
        nonlocal traced_ns, plain_ns
        tracer.job = pos + 1
        if source is None:
            return
        tracer.uninstall()
        job.digest = bench.digest(source)
        counts.update(trace_counts(bench.load_trace(source), mods["trace"]))
        if bench.via_cli:
            counts["bytes_saved"] += source.stat().st_size
        again = Job(job.idx, job.label, job.seed)
        plain = bench.run_job(again, bench.scenarios)
        traced_ns += job.ns
        plain_ns += again.ns
        if not again.ok:
            job.ok, job.detail = False, again.detail
        elif bench.digest(plain) != job.digest:
            job.ok, job.detail = False, "traced and untraced traces differ"
        tracing.install_layers(tracer, mods)

    tracer.job = 0
    try:
        # half the time traced, about as much again for the untraced twins
        jobs = run_rounds(bench, traced_scens, seeds, seconds / 2, post)
    finally:
        tracer.uninstall()

    spans_dir = BENCH / "out"
    spans_dir.mkdir(exist_ok=True)
    tracer.write_spans(spans_dir / f"spans-{bench.workload}-seed{seed}.jsonl")

    n_jobs = len(jobs)
    steps = counts["steps"]
    replayed = tracer.counts["oracle.replayed_steps"]
    kernel_ns = tracer.total_ns("kernel.run")
    T = tracer

    def per_call_ns(name):
        return T.total_ns(name) / T.calls(name) if T.calls(name) else 0.0

    def per_call_us(name):
        return per_call_ns(name) / 1e3

    def per_job_ms(ns):
        return ns / n_jobs / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "kernel.self_us_per_step": metric(ratio(T.self_ns("kernel.run"), steps) / 1e3, "us"),
        "kernel.events_per_step": metric(ratio(counts["events"], steps), "count"),
        "kernel.selfloop_ratio": metric(ratio(counts["selfloops"], steps), "ratio"),
        "kernel.msg_delivery_ratio": metric(ratio(counts["arrived"], counts["sent"]), "ratio"),
        "transform.choose_action_us.kernel": metric(per_call_us("transform.choose_action.kernel"), "us"),
        "transform.choose_action_us.oracle": metric(per_call_us("transform.choose_action.oracle"), "us"),
        "transform.region_shift_us": metric(per_call_us("transform.region_shift"), "us"),
        "transform.corrections": metric(counts["corrections"] / n_jobs, "count"),
        "counters.lift_calls_per_step.kernel": metric(ratio(T.calls("counters.lift.kernel"), steps), "count"),
        "counters.lift_calls_per_step.oracle": metric(ratio(T.calls("counters.lift.oracle"), replayed), "count"),
        "counters.lift_ns.kernel": metric(per_call_ns("counters.lift.kernel"), "ns"),
        "counters.lift_ns.oracle": metric(per_call_ns("counters.lift.oracle"), "ns"),
        "regions.advance_clocks_us": metric(per_call_us("regions.advance_clocks"), "us"),
        "regions.advance_clocks_share": metric(ratio(T.total_ns("regions.advance_clocks"), kernel_ns), "ratio"),
        "oracle.replay_us_per_step": metric(ratio(T.total_ns("oracle.replay"), replayed) / 1e3, "us"),
        "oracle.replayed_step_ratio": metric(ratio(replayed, steps), "ratio"),
        "trace.save_ms": metric(per_job_ms(T.total_ns("trace.save")), "ms"),
        "trace.load_ms": metric(per_job_ms(T.total_ns("trace.load")), "ms"),
        "trace.bytes_per_step": metric(ratio(counts["bytes_saved"], steps), "B"),
        "analysis.check_self_ms": metric(per_job_ms(T.self_ns("analysis.check")), "ms"),
        "analysis.scans_ms": metric(per_job_ms(T.total_ns("analysis.scan")), "ms"),
        "protocols.safety_ms": metric(per_job_ms(T.total_ns("protocols.safety")), "ms"),
        "scenario.parse_ms": metric(ratio(T.total_ns("scenario.parse"), T.calls("scenario.parse")) / 1e6, "ms"),
        "faults.applied_ratio": metric(ratio(counts["faults_applied"], counts["faults"]), "ratio"),
        "cli.overhead_ms": metric(per_job_ms(T.self_ns("cli.main")), "ms"),
        "tracing.overhead_ms": metric(per_job_ms(traced_ns - plain_ns), "ms"),
        "tracing.overhead_share": metric(ratio(traced_ns - plain_ns, plain_ns), "ratio"),
    }
    failed = [j for j in jobs if not j.ok]
    return {
        "metrics": m,
        "notes": {
            "tracing.overhead_ms": f"traced {traced_ns / 1e9:.3f} s - untraced "
                                   f"{plain_ns / 1e9:.3f} s over {n_jobs} jobs",
            "faults.applied_ratio": f"{counts['faults_applied']} of {counts['faults']} fault entries applied",
            "scenario.parse_ms": f"{T.calls('scenario.parse')} parses, "
                                 f"{parse_calls} at set-up ({parse_ns / 1e6:.1f} ms)",
            "oracle.replayed_step_ratio": f"{replayed} of {steps} steps replayed",
            "counters.lift_calls_per_step.oracle": "per replayed step",
            "tracing.calibration": f"{T.outer_ns} ns per wrapped call charged to the tracer",
        },
        "digest": first_round_digest(jobs, len(bench.entries)),
        "digest_jobs": len(bench.entries),
        "attempted": n_jobs,
        "failed": len(failed),
        "errors": [f"{j.label} seed {j.seed}: {j.detail}" for j in failed[:5]],
        "correct": not failed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "memory", "measure", "trace"))
    p.add_argument("--size", default="full", choices=tuple(workloads.SIZES))
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        mods = import_program()
        bench = Bench(args.workload, args.size, mods, Path(workdir))
        seeds = workloads.seed_stream(args.workload, args.seed)
        warm = Job(0, bench.entries[0][0], seeds.randrange(1 << 30))
        bench.run_job(warm, bench.scenarios)
        setup_s = time.perf_counter() - _START
        result = memory(bench, seeds) if args.mode == "memory" else {}
        # the reference passes after set-up scale the set-up time
        setup_ref_ns = statistics.median(reference_ns()
                                         for _ in range(SETUP_REFERENCE_SAMPLES))
        if args.mode == "measure":
            result = measure(bench, seeds, args.seconds)
        elif args.mode == "trace":
            result = traced(bench, seeds, args.seconds, args.seed)
    if not warm.ok and args.mode != "setup":
        result["correct"] = False
        result["errors"].insert(0, f"warm-up {warm.label} seed {warm.seed}: {warm.detail}")
    result["setup_s"] = setup_s * REFERENCE_NS / setup_ref_ns
    result["setup_raw_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
