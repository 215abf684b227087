"""Ablation: blocking strategy for the pruning phase.

The paper treats the pruning phase as a given; this ablation compares the
candidate sets produced by the library's three blocking strategies on the
Restaurant dataset — exhaustive scoring, token blocking (exact for Jaccard),
and MinHash LSH (approximate, sub-quadratic) — reporting candidate counts,
duplicate recall, and pairs scored (build time is printed only).

Expected shape: token blocking matches exhaustive scoring exactly; MinHash
trades a few points of recall for a smaller scored-pair workload.
"""

import time

import pytest

from repro.pruning.analysis import evaluate_candidates
from repro.pruning.candidate import build_candidate_set
from repro.pruning.minhash import minhash_blocking_pairs
from repro.similarity.composite import jaccard_similarity_function
from repro.experiments.tables import format_table

from common import emit, instance


def run_strategies():
    inst = instance("restaurant", "3w")
    dataset = inst.dataset
    rows = {}

    def measure(name, **kwargs):
        similarity = jaccard_similarity_function()
        start = time.perf_counter()
        candidates = build_candidate_set(
            dataset.records, similarity, threshold=0.3, **kwargs
        )
        elapsed = time.perf_counter() - start
        quality = evaluate_candidates(candidates, dataset)
        rows[name] = (len(candidates), quality.recall, elapsed,
                      similarity.cache_size())
        return candidates

    exact = measure("exhaustive", use_token_blocking=False)
    token = measure("token-blocking")
    measure("minhash-lsh", candidate_pairs=minhash_blocking_pairs(
        dataset.records, bands=16, rows=4, seed=7
    ))
    rows["_same"] = token.pairs == exact.pairs
    return rows


def test_ablation_blocking(benchmark):
    rows = benchmark.pedantic(run_strategies, rounds=1, iterations=1)
    token_equals_exact = rows.pop("_same")
    # Build time is wall clock, so it is printed but kept out of the
    # results file, which must regenerate byte for byte.
    emit("ablation_blocking_restaurant", format_table(
        ["strategy", "candidate pairs", "dup recall", "pairs scored"],
        [[name, f"{pairs}", f"{recall:.3f}", f"{scored}"]
         for name, (pairs, recall, _, scored) in rows.items()],
    ))
    for name, (_, _, seconds, _) in rows.items():
        print(f"{name}: built in {seconds:.2f}s")
    # Token blocking is exact for Jaccard.
    assert token_equals_exact
    # MinHash recovers nearly all duplicates while scoring fewer pairs.
    assert rows["minhash-lsh"][1] > rows["exhaustive"][1] - 0.1
    assert rows["minhash-lsh"][3] < rows["exhaustive"][3]
