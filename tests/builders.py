"""Shared scenario builders: one small, fast setup per protocol.

Family sizes are the smallest each builder accepts for a channel with a
1-region message lifetime (rs=25, two steps per time unit, 30-step delays),
so runs cross many regions quickly and every counter works near its bound.

This module needs no pytest, so a script such as
``python tests/test_golden_traces.py`` runs on a bare interpreter;
``conftest.py`` re-exports it to the tests.
"""

import copy

from regionbound import kernel, scenario

BASE_DOCS = {
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

PROTOCOLS = tuple(BASE_DOCS)

_COMMON = {
    "rs": 25,
    "steps_per_time_unit": 2,
    "channel": {"max_delay_steps": 30, "loss_probability": 0.05},
    "drift_policy": {"kind": "bounded_jitter", "max_step_skew": 3},
    "run_regions": 40,
    "seed": 99,
}


def scenario_doc(protocol: str, **over) -> dict:
    doc = copy.deepcopy(BASE_DOCS[protocol])
    for key, value in {**_COMMON, **over}.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


def build_scenario(protocol: str, **over) -> scenario.Scenario:
    return scenario.parse(scenario_doc(protocol, **over))


def run_scenario(sc: scenario.Scenario, seed=None):
    return kernel.run(sc.cfg, sc.seed if seed is None else seed)
