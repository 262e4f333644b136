"""Protocol registry: scenario files select a module by name.

Each module offers ``build(info)`` and ``PARAMS``, the protocol_params names
it accepts with their defaults.
"""

from . import (consensus, diffusing, logical_clocks, mutual_exclusion,
               round_checker, vector_clocks)

REGISTRY = {
    "logical_clocks": logical_clocks,
    "vector_clocks": vector_clocks,
    "mutual_exclusion": mutual_exclusion,
    "diffusing": diffusing,
    "round_checker": round_checker,
    "consensus": consensus,
}
