"""The consolidated DSE configuration surface.

Everything configurable about a sweep travels in one validated
dataclass, the only form :func:`~repro.dse.engine.auto_dse` accepts::

    from repro import DseOptions
    result = function.auto_DSE(options=DseOptions(cache=False))

Validation that does not need the function under search lives in
:meth:`DseOptions.validate` so every entry point (engine, serve jobs,
CLI) rejects a bad configuration identically -- and *before* any side
effect such as creating a checkpoint journal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.hls.device import FPGADevice

#: Hard ceiling on any node's parallelism degree (paper Section VI).
MAX_PARALLELISM = 256


@dataclass
class DseOptions:
    """Everything configurable about one ``auto_dse`` sweep.

    Grouped the way ``docs/dse.md`` discusses them:

    * **target**: ``device``, ``resource_fraction``, ``clock_ns``
      (``None`` inherits the device's own clock target, so zoo parts
      retimed with ``FPGADevice.at_clock`` estimate at their declared
      frequency);
    * **search**: ``max_parallelism``, ``keep_existing_schedule``,
      ``cache``;
    * **resilience**: ``checkpoint``, ``resume``,
      ``candidate_timeout_s``, ``time_budget_s``, ``fault_plan``;
    * **objective**: ``objective`` (a spec string parsed by
      :func:`repro.dse.pareto.parse_objective` -- ``"single"``,
      ``"pareto[:axes]"``, or ``"weighted:axis=w,..."``).

    Instances are plain data: picklable (given a picklable
    ``fault_plan``) and reusable across calls.
    """

    device: Optional[FPGADevice] = None
    resource_fraction: float = 1.0
    clock_ns: Optional[float] = None
    max_parallelism: int = MAX_PARALLELISM
    keep_existing_schedule: bool = False
    cache: bool = True
    checkpoint: Optional[str] = None
    resume: bool = False
    candidate_timeout_s: Optional[float] = None
    time_budget_s: Optional[float] = None
    fault_plan: Optional[object] = None
    objective: str = "single"

    def validate(self) -> "DseOptions":
        """Raise on any function-independent misconfiguration.

        Every number must be finite and in range (``resource_fraction``
        in (0, 1], and large enough that no budget of the device
        truncates to zero).  Returns self so call sites can chain.  The
        engine performs the same checks (plus the function-dependent ones)
        before creating any journal; this front door lets the CLI and
        serve jobs fail fast with identical messages.
        """
        if not 0 < self.resource_fraction <= 1:  # also rejects nan
            raise ValueError(
                f"resource_fraction must be > 0 and <= 1, got {self.resource_fraction}"
            )
        self.resolved_device().scaled(self.resource_fraction)
        if self.clock_ns is not None and not 0 < self.clock_ns < math.inf:
            raise ValueError(f"clock_ns must be > 0 and finite, got {self.clock_ns}")
        if self.max_parallelism < 1:
            raise ValueError(
                f"max_parallelism must be >= 1, got {self.max_parallelism}"
            )
        if self.candidate_timeout_s is not None and not 0 <= self.candidate_timeout_s < math.inf:
            raise ValueError(
                f"candidate_timeout_s must be >= 0 and finite, got {self.candidate_timeout_s}"
            )
        if self.time_budget_s is not None and not 0 <= self.time_budget_s < math.inf:
            raise ValueError(
                f"deadline budget must be >= 0 and finite, got {self.time_budget_s}"
            )
        # Late import: pareto depends on hls.report only, but keeping
        # the import local means `repro.dse.options` stays importable
        # from the pareto module itself without a cycle.
        from repro.dse.pareto import parse_objective

        parse_objective(self.objective)
        return self

    def resolved_device(self) -> FPGADevice:
        """The target device (default: the paper's XC7Z020)."""
        from repro.hls.device import DEFAULT_DEVICE

        return self.device if self.device is not None else DEFAULT_DEVICE

    def resolved_clock_ns(self) -> float:
        """The effective clock: an explicit override or the device's own."""
        if self.clock_ns is not None:
            return self.clock_ns
        return self.resolved_device().clock_ns

    def parsed_objective(self):
        """The validated :class:`~repro.dse.pareto.Objective`."""
        from repro.dse.pareto import parse_objective

        return parse_objective(self.objective)

    def replace(self, **changes) -> "DseOptions":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return replace(self, **changes)
