"""The shared scenario builders of :mod:`builders`, re-exported to the
tests, and the fixture that runs a test once per protocol."""

import pytest

from builders import (BASE_DOCS, PROTOCOLS, build_scenario,  # noqa: F401
                      run_scenario, scenario_doc)


@pytest.fixture(params=PROTOCOLS)
def any_protocol(request):
    return request.param
