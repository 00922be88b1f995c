"""Fixtures shared across the test packages."""

import pytest

from repro.isl import intern as _intern
from repro.isl import memo as _memo


@pytest.fixture(params=["fast", "reference"])
def isl_mode(request):
    """Run the test against the optimized isl substrate and against the
    pure-Python ``REPRO_ISL_REFERENCE`` paths, memo tables cleared
    between the two so neither reuses the other's results."""
    _memo.clear_all()
    previous = _intern.set_reference_mode(request.param == "reference")
    yield request.param
    _intern.set_reference_mode(previous)
    _memo.clear_all()
