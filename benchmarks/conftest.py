"""Shared configuration for the timing benchmarks left here.

``polybench_size`` is the DSE-cache benchmark's problem size
(``--paper-scale`` reruns it at the paper's 4096).  The paper's claims
are not checked here: each experiment declares them
(``repro.evaluation``), and the tier-1 suite and ``report_all`` check
them.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run benchmarks at the paper's exact problem sizes (slow)",
    )


@pytest.fixture(scope="session")
def paper_scale(request):
    return request.config.getoption("--paper-scale")


@pytest.fixture(scope="session")
def polybench_size(paper_scale):
    return 4096 if paper_scale else 512
