"""Shared fixtures for the test suite.

The heavy fixtures (prepared experiment instances) are session-scoped and
small-scale, so the full suite stays fast while still exercising the real
pipeline end to end.
"""

from __future__ import annotations

import pytest

from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from repro.experiments.runner import Instance, prepare_instance
from repro.pruning.candidate import CandidateSet


@pytest.fixture(scope="session")
def tiny_restaurant() -> Instance:
    """A small but realistic Restaurant instance (3-worker setting)."""
    return prepare_instance("restaurant", "3w", scale=0.1, seed=3)


@pytest.fixture(scope="session")
def tiny_paper() -> Instance:
    """A small Paper instance — the hard dataset with crowd errors."""
    return prepare_instance("paper", "3w", scale=0.1, seed=3)


@pytest.fixture(scope="session")
def tiny_product() -> Instance:
    """A small Product instance — sparse candidate graph."""
    return prepare_instance("product", "3w", scale=0.1, seed=3)


def make_candidates(scores) -> CandidateSet:
    """Build a CandidateSet directly from a {pair: machine score} mapping."""
    pairs = tuple(sorted((min(a, b), max(a, b)) for a, b in scores))
    machine = {(min(a, b), max(a, b)): s for (a, b), s in scores.items()}
    return CandidateSet(pairs=pairs, machine_scores=machine, threshold=0.3)


def scripted_oracle(confidences, num_workers: int = 1,
                    default=None) -> CrowdOracle:
    """An oracle over hand-written crowd confidences."""
    return CrowdOracle(
        ScriptedAnswers(confidences, num_workers=num_workers, default=default)
    )


# ---------------------------------------------------------------------------
# The paper's Figure 2 example graph (Section 4.2).
#
# Vertices a..f (0..5); every edge's crowd confidence is above 0.5.
# ---------------------------------------------------------------------------

FIG2_IDS = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5}

FIG2_EDGES = [
    ("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"),
    ("a", "e"), ("d", "e"), ("e", "f"), ("d", "f"),
]


def fig2_candidates() -> CandidateSet:
    """Figure 2a's candidate graph with uniform machine scores."""
    return make_candidates({
        (FIG2_IDS[x], FIG2_IDS[y]): 0.8 for x, y in FIG2_EDGES
    })


def fig2_oracle() -> CrowdOracle:
    """All Figure 2 edges confirmed by the crowd (confidence 0.8)."""
    return scripted_oracle({
        (FIG2_IDS[x], FIG2_IDS[y]): 0.8 for x, y in FIG2_EDGES
    })


def pruned_with(build, *args, **kwargs):
    """Run a pruning entry point traced; return ``(candidate set, the
    path its pruning span reports)`` — ``"prefix"`` for the join,
    ``"reference"`` for the scoring loop."""
    from repro.obs import ObsContext

    obs = ObsContext()
    candidates = build(*args, obs=obs, **kwargs)
    (span,) = [root for root in obs.tracer.roots if root.name == "pruning"]
    return candidates, span.attrs["engine"]
