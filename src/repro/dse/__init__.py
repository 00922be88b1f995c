"""Two-stage design space exploration (paper Section VI).

Stage 1 (dependence-aware code transformation) relieves tight
loop-carried dependences with interchange/skew/split and plans
conservative fusion; stage 2 (bottleneck-oriented code optimization)
walks the parallelism ladder on the critical path under resource
constraints using the virtual HLS estimator as its cost model.
"""

from repro.dse.checkpoint import (
    CheckpointJournal,
    candidate_key,
    make_header,
    workload_fingerprint,
)
from repro.dse.engine import DseResult, QuarantinedCandidate, auto_dse
from repro.dse.options import MAX_PARALLELISM, DseOptions
from repro.dse.pareto import (
    AXES,
    Objective,
    ParetoFrontier,
    ParetoPoint,
    dominates,
    frontier_summary,
    parse_objective,
)
from repro.dse.stage1 import Stage1Plan, plan_stage1
from repro.dse.stats import DseStats
from repro.dse.stage2 import (
    NodeConfig,
    derive_partitions,
    plan_node_config,
)

__all__ = [
    "auto_dse",
    "DseOptions",
    "MAX_PARALLELISM",
    "DseResult",
    "DseStats",
    "QuarantinedCandidate",
    "CheckpointJournal",
    "candidate_key",
    "make_header",
    "workload_fingerprint",
    "plan_stage1",
    "Stage1Plan",
    "NodeConfig",
    "plan_node_config",
    "derive_partitions",
    "AXES",
    "Objective",
    "ParetoFrontier",
    "ParetoPoint",
    "dominates",
    "frontier_summary",
    "parse_objective",
]
