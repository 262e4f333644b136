"""Workload definitions, self-contained so that edits to the test suite or to
the shipped scenarios cannot change what the benchmark measures.

``CRITERION4_DOCS`` and ``CRITERION4_COMMON`` are copies of the per-protocol
scenario documents and shared timing/channel settings of the acceptance
suite's closure batch (criterion 4). ``scenarios/`` beside this file holds
copies of the four shipped scenario files.

A workload is a list of scenarios; one round runs every scenario once, and a
measured phase runs whole rounds so that each scenario contributes the same
number of jobs.
"""

from __future__ import annotations

import copy
import random
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

WORKLOADS = ("closure-batch", "cli-scenarios", "wide-drift")

CRITERION4_DOCS = {
    "logical_clocks": {
        "protocol": "logical_clocks",
        "n": 4,
        "topology": "complete",
        "families": {"clock": {"maxinc": 3, "r_b": 3, "r_f": 1}},
    },
    "vector_clocks": {
        "protocol": "vector_clocks",
        "protocol_params": {"view_expiry": 2},
        "n": 4,
        "topology": "complete",
        "families": {"vc": {"maxinc": 3, "r_b": 3, "r_f": 3}},
    },
    "mutual_exclusion": {
        "protocol": "mutual_exclusion",
        "protocol_params": {"request_expiry": 2},
        "n": 4,
        "topology": "complete",
        "families": {"clk": {"maxinc": 4, "r_b": 6, "r_f": 3}},
    },
    "diffusing": {
        "protocol": "diffusing",
        "protocol_params": {"wave_expiry": 3},
        "n": 4,
        "topology": "complete",
        "families": {"wave": {"maxinc": 2, "r_b": 9, "r_f": 4}},
    },
    "round_checker": {
        "protocol": "round_checker",
        "protocol_params": {"round_expiry": 3},
        "n": 4,
        "topology": "star",
        "families": {"round": {"maxinc": 2, "r_b": 6, "r_f": 7}},
    },
    "consensus": {
        "protocol": "consensus",
        "protocol_params": {"proposal_expiry": 2, "acceptor_expiry": 7},
        "n": 5,
        "topology": "complete",
        "families": {
            "nextseq": {"maxinc": 3, "r_b": 6, "r_f": 1},
            "pending": {"maxinc": 3, "r_b": 6, "r_f": 3},
            "aseq": {"maxinc": 3, "r_b": 6, "r_f": 8},
        },
    },
}

CRITERION4_COMMON = {
    "rs": 25,
    "steps_per_time_unit": 2,
    "channel": {"max_delay_steps": 30, "loss_probability": 0.05},
    "drift_policy": {"kind": "bounded_jitter", "max_step_skew": 3},
    "run_regions": 40,
    "seed": 99,
}

CLI_SCENARIOS = ("consensus_clean", "diffusing_ring_faults",
                 "logical_clocks_drift", "mutex_fault_recovery")

# Full size: criterion 4's 200 regions (10^4 steps per job). Wide drift runs
# n = 64 logical clocks for 10 regions and n = 32 mutual exclusion for 26, so
# that a run of a few tens of seconds holds enough jobs for a tail percentile
# with ten samples beyond it, and so that both scenarios' jobs take about
# the same time (~0.6 s on a 2-core host) and the job-time median does not
# fall into the gap between two scenarios. "minimal" is the smoke test's size.
SIZES = {
    "full": {"closure_regions": 200,
             "wide": {"logical_clocks": (64, 10), "mutual_exclusion": (32, 26)}},
    "minimal": {"closure_regions": 4,
                "wide": {"logical_clocks": (8, 2), "mutual_exclusion": (6, 2)}},
}


def criterion4_doc(protocol: str, **over) -> dict:
    doc = copy.deepcopy(CRITERION4_DOCS[protocol])
    doc.update(copy.deepcopy(CRITERION4_COMMON))
    doc.update(over)
    return doc


def scenarios(workload: str, size: str) -> list[tuple[str, object]]:
    """(label, source) per scenario of one round, in round order.

    The source is a scenario document for the in-memory workloads and a
    scenario file path for cli-scenarios.
    """
    dims = SIZES[size]
    if workload == "closure-batch":
        return [(p, criterion4_doc(p, run_regions=dims["closure_regions"]))
                for p in CRITERION4_DOCS]
    if workload == "wide-drift":
        return [(f"{p}_n{n}", criterion4_doc(p, n=n, run_regions=regions))
                for p, (n, regions) in dims["wide"].items()]
    if workload == "cli-scenarios":
        return [(name, str(SCENARIO_DIR / f"{name}.json"))
                for name in CLI_SCENARIOS]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"pick one of {', '.join(WORKLOADS)}")


def seed_stream(workload: str, seed: int) -> random.Random:
    """Kernel seeds for the warm-up job and then every measured job, in
    order; the same workload and seed always give the same sequence."""
    return random.Random(f"{workload}:{seed}")
