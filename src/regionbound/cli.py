"""Command-line front end: run scenarios, verify traces, size counters.

Exit codes: 0 on success, 1 when a run aborts or a check fails, 2 for
configuration problems (bad scenario, unreadable trace, mismatched pair).
All output is line-oriented so golden-file tests can diff it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import analysis, kernel, scenario
from . import trace as tr
from .counters import bits_required, maxbound_of
from .errors import ConfigError, KernelInvariantError, ProtocolBug

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

_text = functools.partial(json.dumps, sort_keys=True)


def _echo_derived(sc: scenario.Scenario, seed: int) -> None:
    """The scenario's derived sizes, headed by the seed the run uses."""
    d = sc.derived
    print(f"scenario: protocol={sc.protocol} n={sc.n} seed={seed}")
    print(f"derived: total_steps={d['total_steps']} "
          f"start_region={d['start_region']} end_region={d['end_region']} "
          f"lifetime_regions={d['lifetime_regions']}")
    for name, fam in d["families"].items():
        print(f"derived: family={name} max_r={fam['max_r']} "
              f"maxbound={fam['maxbound']} bits={fam['bits']}")
    if d["fault_count"]:
        print(f"derived: faults={d['fault_count']} "
              f"fault_stop_region={d['fault_stop_region']} "
              f"boundary_region={d['boundary_region']}")


def _match_trace(sc: scenario.Scenario, trace: tr.Trace) -> None:
    """Every meta field but the seed (``run --seed`` may override it) must be
    the one a run of ``sc`` writes, compared as JSON text, so ``true`` never
    matches ``1`` nor ``3.0`` matches ``3``."""
    want = kernel.trace_meta(sc.cfg, sc.seed)
    got = trace.meta
    bad = [f"{k}: trace has {got.get(k)!r}, scenario says {want.get(k)!r}"
           for k in {**want, **got} if k != "seed" and not (
               k in got and k in want and _text(got[k]) == _text(want[k]))]
    if bad:
        raise ConfigError("trace does not match scenario; " + "; ".join(bad))


def cmd_run(args) -> int:
    sc = scenario.load(args.scenario)
    seed = sc.seed if args.seed is None else args.seed
    _echo_derived(sc, seed)
    try:
        trace = kernel.run(sc.cfg, seed)
    except (KernelInvariantError, ProtocolBug) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        tr.save(trace, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write trace {args.out}: {exc}") from exc
    print(f"wrote {args.out}: {len(trace.events)} events, "
          f"{len(trace.rows)} action rows, {len(trace.snapshots)} snapshots")
    return EXIT_OK


def _load_trace(path: str) -> tr.Trace:
    try:
        return tr.load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed trace {path}: {exc}") from exc


def cmd_check(args) -> int:
    sc = scenario.load(args.scenario)
    trace = _load_trace(args.trace)
    _match_trace(sc, trace)
    report = analysis.check(sc, trace)
    for line in report.lines():
        print(line)
    n_bad = sum(1 for r in report.results if not r.ok)
    if n_bad:
        print(f"{n_bad} of {len(report.results)} checks failed")
        return EXIT_FAIL
    print(f"all {len(report.results)} checks passed")
    return EXIT_OK


def cmd_bits(args) -> int:
    print(f"maxbound={maxbound_of(args.maxinc, args.maxr)} "
          f"bits={bits_required(args.maxinc, args.maxr)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = scenario.read_json(args.grid, "grid")
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a JSON object")
    names = ("rs", "delays", "rates")
    scenario._strict(grid, "grid", names)
    rows = analysis.sweep(*(scenario._require(grid, "grid", name)
                            for name in names))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fp:
                analysis.write_sweep_csv(rows, fp)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}: {len(rows)} rows")
    else:
        analysis.write_sweep_csv(rows, sys.stdout)
    return EXIT_OK


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionbound",
        description="Run, verify, and size bounded-counter simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario, write a trace")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--out", required=True, help="trace output path")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify a trace against its "
                             "scenario")
    p_check.add_argument("--trace", required=True, help="trace JSONL file")
    p_check.add_argument("--scenario", required=True,
                         help="scenario that produced the trace")
    p_check.set_defaults(func=cmd_check)

    p_bits = sub.add_parser("bits", help="counter size for one parameter "
                            "pair")
    p_bits.add_argument("--maxinc", type=int, required=True,
                        help="largest per-region increase")
    p_bits.add_argument("--maxr", type=int, required=True,
                        help="region reach (lookback + forward)")
    p_bits.set_defaults(func=cmd_bits)

    p_sweep = sub.add_parser("sweep", help="tabulate counter sizes over a "
                             "parameter grid")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON file with rs, delays, rates")
    p_sweep.add_argument("--out", default=None,
                         help="CSV output path (stdout when omitted)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
