"""Experiment harness: one module per table/figure of the paper.

Each module exposes ``run(...)`` returning structured results,
``render(results)`` producing the paper-style ASCII table, and
``EXPERIMENT``, the :class:`~repro.evaluation.frameworks.Experiment`
that ``python -m repro.evaluation.table3`` runs.  ``ALL_EXPERIMENTS``
maps each experiment id to it, importing the module on first use (an
eager import would make ``python -m`` run a module already imported).
"""

import importlib
from collections.abc import Mapping

from repro.evaluation.frameworks import Experiment, RunResult, format_table, run_framework


class _Registry(Mapping):
    """Experiment id -> its module's ``EXPERIMENT``, imported on lookup."""

    def __init__(self, modules):
        self._modules = modules

    def __getitem__(self, name: str) -> Experiment:
        return importlib.import_module(f"{__name__}.{self._modules[name]}").EXPERIMENT

    def __iter__(self):
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


#: Experiment id -> module name, in report order.
ALL_EXPERIMENTS = _Registry({
    **{name: name for name in (
        "fig2", "table3", "fig11", "table4", "fig12", "table5", "table6",
        "fig13", "table7", "fig14", "fig15", "pareto_front",
    )},
    "dataflow": "dataflow_pipe",
})

__all__ = ["ALL_EXPERIMENTS", "Experiment", "RunResult", "run_framework", "format_table"]
