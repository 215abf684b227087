"""Pruning phase: machine-based candidate generation (phase 1 of ACD).

Builds the candidate set ``S`` (pairs with machine similarity above τ) and
the candidate graph ``G = (V_R, E_S)`` all clustering algorithms run on.
"""

from repro.pruning.blocking import (
    all_pairs,
    sorted_neighborhood_pairs,
    token_blocking_pairs,
)
from repro.pruning.analysis import (
    PruningQuality,
    evaluate_candidates,
    threshold_tradeoff,
)
from repro.pruning.candidate import (
    DEFAULT_THRESHOLD,
    CandidateSet,
    build_candidate_set,
)
from repro.pruning.graph import CandidateGraph
from repro.pruning.prefix_join import prefix_length
from repro.pruning.minhash import (
    MinHasher,
    lsh_candidate_pairs,
    minhash_blocking_pairs,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "CandidateGraph",
    "CandidateSet",
    "MinHasher",
    "PruningQuality",
    "all_pairs",
    "build_candidate_set",
    "evaluate_candidates",
    "lsh_candidate_pairs",
    "minhash_blocking_pairs",
    "prefix_length",
    "sorted_neighborhood_pairs",
    "threshold_tradeoff",
    "token_blocking_pairs",
]
