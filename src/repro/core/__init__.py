"""The ACD algorithm family (the paper's contribution).

- :func:`crowd_pivot` — Algorithm 1, sequential crowd-based Pivot;
- :func:`pc_pivot` — Algorithms 2-3, the batched cluster-generation
  phase with the Equation-4 wasted-pair budget ε, run per connected
  component;
- :func:`crowd_refine` / :func:`pc_refine` — Algorithms 4-5, the cluster
  refinement phase with split/merger operations, the equi-depth histogram
  estimator, and the per-round budget T;
- :func:`run_acd` — the end-to-end three-phase pipeline.
"""

from repro.core.acd import ACDResult, run_acd
from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS, HistogramEstimator
from repro.core.evaluation_cache import EvaluationCache, EvaluationStats
from repro.core.generation import (
    DEFAULT_EPSILON,
    LiveVertexOrder,
    PartialPivotResult,
    PCPivotDiagnostics,
    choose_pivots,
    crowd_pivot,
    pc_pivot,
    waste_estimates,
)
from repro.core.lowerbound import lp_lower_bound, optimality_gap
from repro.core.objective import (
    lambda_objective,
    merge_benefit,
    pairwise_cost,
    split_benefit,
)
from repro.core.operations import (
    Merge,
    Operation,
    OperationEvaluator,
    Split,
    apply_operation,
    independent,
)
from repro.core.pc_refine import (
    DEFAULT_THRESHOLD_DIVISOR,
    PCRefineDiagnostics,
    pc_refine,
    refinement_budget,
)
from repro.core.permutation import Permutation
from repro.core.refine import (
    BENEFIT_TOLERANCE,
    build_estimator,
    crowd_refine,
    enumerate_operations,
)

__all__ = [
    "ACDResult",
    "BENEFIT_TOLERANCE",
    "Clustering",
    "DEFAULT_EPSILON",
    "DEFAULT_NUM_BUCKETS",
    "DEFAULT_THRESHOLD_DIVISOR",
    "EvaluationCache",
    "EvaluationStats",
    "HistogramEstimator",
    "LiveVertexOrder",
    "Merge",
    "Operation",
    "OperationEvaluator",
    "PCPivotDiagnostics",
    "PCRefineDiagnostics",
    "PartialPivotResult",
    "Permutation",
    "Split",
    "apply_operation",
    "build_estimator",
    "choose_pivots",
    "crowd_pivot",
    "crowd_refine",
    "enumerate_operations",
    "independent",
    "lambda_objective",
    "lp_lower_bound",
    "merge_benefit",
    "optimality_gap",
    "pairwise_cost",
    "pc_pivot",
    "pc_refine",
    "refinement_budget",
    "run_acd",
    "split_benefit",
    "waste_estimates",
]
