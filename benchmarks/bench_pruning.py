"""Pruning-phase benchmark: reference scoring loop vs the prefix join.

Runs the pruning phase on every dataset twice — through the
enumerate-and-score oracle (``repro.reference.candidate_set``) and through
the production path, which takes the prefix join for Jaccard — checks the
outputs are byte-identical, and writes ``BENCH_pruning.json`` at the repo
root in the shared BENCH schema (see :mod:`repro.perf.timing`).

Each side runs with an in-memory :class:`~repro.obs.ObsContext` inside a
harness ``total`` span, and its stage table is that context's span
rollup: ``blocking`` and ``scoring`` (plus the production side's
``pruning`` phase span).  Both sides of the A/B therefore include the
same in-memory tracing.  Every variant runs in its own forked child
(``common.in_fork``), so its peak RSS is its own.

Standalone (no pytest)::

    REPRO_BENCH_SCALE=2 python benchmarks/bench_pruning.py

Environment knob:
    REPRO_BENCH_SCALE     dataset scale (default 1.0)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import in_fork  # noqa: E402
from repro.datasets.registry import generate  # noqa: E402
from repro.experiments.configs import PRUNING_THRESHOLD  # noqa: E402
from repro.obs import ObsContext  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    StageTimings,
    bench_payload,
    run_entry,
    stage_seconds,
    write_bench_json,
)
from repro.pruning.candidate import (  # noqa: E402
    _prefix_join_eligible,
    build_candidate_set,
)
from repro.reference import candidate_set  # noqa: E402
from repro.similarity.composite import (  # noqa: E402
    SimilarityFunction,
    jaccard_similarity_function,
)
from repro.similarity.jaccard import token_jaccard  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = 1
DATASETS = ("paper", "restaurant", "product")
OUTPUT = REPO_ROOT / "BENCH_pruning.json"


def reference_similarity() -> SimilarityFunction:
    """The seed's metric: plain token Jaccard, no view cache, no set
    metadata — the text-scoring loop as the seed ran it."""
    return SimilarityFunction("jaccard", token_jaccard)


def _measure(build, records, similarity):
    """One traced pruning run in a forked child; returns (candidates,
    stage table, total seconds, meters)."""

    def run():
        obs = ObsContext()
        with obs.span("total"):
            candidates = build(records, similarity,
                               threshold=PRUNING_THRESHOLD, obs=obs)
        stages = obs.tracer.span_summaries()
        total = stage_seconds(stages)["total"]
        meters = StageTimings()
        meters.record_throughput("records_per_second", len(records), total)
        meters.record_peak_rss()
        return candidates, stages, total, meters

    return in_fork(run)


def main() -> int:
    runs = {}
    derived = {}
    if not _prefix_join_eligible(jaccard_similarity_function(), None, True):
        print("FAIL: the production path would not take the prefix join",
              file=sys.stderr)
        return 1
    for dataset_name in DATASETS:
        dataset = generate(dataset_name, scale=SCALE, seed=SEED)
        records = len(dataset.records)

        reference, ref_stages, ref_total, ref_meters = _measure(
            candidate_set, dataset.records, reference_similarity())
        runs[f"{dataset_name}/reference"] = run_entry(
            ref_stages, ref_meters, records=records, pairs=len(reference),
        )

        joined, join_stages, join_total, join_meters = _measure(
            build_candidate_set, dataset.records,
            jaccard_similarity_function())
        runs[f"{dataset_name}/prefix"] = run_entry(
            join_stages, join_meters, records=records, pairs=len(joined),
        )

        identical = (
            reference.pairs == joined.pairs
            and reference.machine_scores == joined.machine_scores
        )
        if not identical:
            print(f"FAIL: {dataset_name}: engines disagree", file=sys.stderr)
            return 1
        speedup = ref_total / max(join_total, 1e-12)
        derived[f"{dataset_name}/speedup"] = round(speedup, 2)
        print(
            f"{dataset_name}: reference {ref_total:.3f}s, "
            f"prefix {join_total:.3f}s "
            f"({speedup:.1f}x, {len(joined)} pairs, identical)"
        )

    derived["min_speedup"] = min(
        value for key, value in derived.items() if key.endswith("/speedup")
    )
    payload = bench_payload(
        "pruning",
        config={"scale": SCALE, "seed": SEED,
                "threshold": PRUNING_THRESHOLD, "datasets": list(DATASETS)},
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT} (min speedup {derived['min_speedup']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
