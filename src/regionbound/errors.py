"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad configuration: invalid parameters, malformed scenario files,
    preconditions violated at setup time. CLI maps this to exit code 2."""


class ProtocolBug(RuntimeError):
    """A protocol action did something the counter discipline forbids,
    e.g. sending to a non-neighbour or writing to an undeclared slot.

    This aborts the run: it indicates a bug in the protocol definition,
    not a property of the system under test.
    """


class KernelInvariantError(RuntimeError):
    """The simulation kernel detected a broken run-time contract, e.g. a
    counter family growing faster per region than its declared budget."""


class TraceFormatError(ValueError):
    """A trace file could not be parsed or has inconsistent records."""


def is_int(v) -> bool:
    """An integer that is not a bool, as every integer field of a scenario
    or grid must be."""
    return isinstance(v, int) and not isinstance(v, bool)
