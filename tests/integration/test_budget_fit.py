"""Every returned design says whether it fits its resource budget.

One rule decides fit everywhere (``FPGADevice.admits``).  A sweep whose
returned design is over the budget -- a degree-1 baseline that is
already too large, or a dataflow design whose realized stages or FIFOs
do not fit -- reports ``feasible=False``, is ``degraded`` and carries
one ``DSE009``; every published frontier point fits.
"""

import pytest

from repro import workloads
from repro.cli import main
from repro.dse.options import DseOptions
from repro.hls.device import DEFAULT_DEVICE
from repro.workloads import dnn

FRACTIONS = (0.1, 0.25, 1.0)

#: The inputs below whose returned design does not fit (measured): the
#: degree-1 vgg16 design (25 DSP against 22).  A dataflow design's
#: realized stages are the points the balancer selected and checked
#: against the budget.
OVER_BUDGET = {("vgg16", 0.1)}


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("name", workloads.names())
def test_a_returned_design_fits_or_says_it_does_not(name, fraction):
    size = 2 if name in dnn.SUITE else 16
    result = workloads.get(name, size).auto_DSE(
        options=DseOptions(resource_fraction=fraction)
    )
    budget = DEFAULT_DEVICE.scaled(fraction)
    over = [d for d in result.diagnostics if d.code == "DSE009"]
    assert result.feasible is budget.admits(result.report.resources)
    assert result.feasible is ((name, fraction) not in OVER_BUDGET)
    if result.feasible:
        assert not over
    else:
        assert result.degraded
        assert len(over) == 1
    for point in result.frontier or ():
        assert budget.admits(point), point.key


def test_an_over_budget_design_exits_3_unless_allowed(capsys):
    argv = ["dse", "conv-block", "--size", "128", "--resource-fraction", "0.1"]
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if "DSE009" in line] == [
        "warning[DSE009]: returned design exceeds the xc7z020@10% budget: "
        "bram_bits 524288 > 513802"
    ]
    assert main(argv + ["--allow-degraded"]) == 0
