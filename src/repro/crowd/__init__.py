"""Simulated crowdsourcing substrate.

Replaces the paper's Amazon Mechanical Turk deployment with a deterministic,
replayable simulator:

- :class:`DifficultyModel` / :class:`WorkerPool` — pair-correlated worker
  error model calibrated to Table 3's measured error rates;
- :class:`AnswerFile` — the paper's recorded answer file ``F``: one shared,
  memoized set of answers that every method replays, and the memo every
  answer source subclasses (overriding only its per-pair ``_vote``);
  wrappers around a source extend :class:`AnswerWrapper`;
- :class:`CrowdOracle` — the only crowd interface algorithms see, with
  per-run cost accounting (:class:`CrowdStats`);
- HIT packing helpers matching the paper's AMT settings;
- fault tolerance: :class:`FaultModel` fault injection for the platform,
  :class:`FallbackAnswers` machine-score degradation, and
  :class:`AnswerJournal` / :class:`JournalingAnswerFile` crash-safe
  write-ahead persistence with resume.
"""

from repro.crowd.adaptive import AdaptiveAnswerFile
from repro.crowd.cache import (
    AnswerFile,
    AnswerWrapper,
    FallbackAnswers,
    ScriptedAnswers,
)
from repro.crowd.cluster_hits import (
    ClusterHitPlan,
    RecordGroup,
    cluster_based_hits,
    hit_cost_comparison,
    pairs_covered_by,
)
from repro.crowd.faults import (
    FaultEvent,
    FaultModel,
    UnansweredPairError,
)
from repro.crowd.hits import Hit, monetary_cost_cents, num_hits, pack_hits
from repro.crowd.latency import LatencyModel, format_duration
from repro.crowd.oracle import CrowdOracle
from repro.crowd.persistence import (
    AnswerJournal,
    JournalingAnswerFile,
    load_answers,
    save_answers,
)
from repro.crowd.platform import (
    Assignment,
    BatchReceipt,
    PlatformAnswerFile,
    PlatformSimulator,
)
from repro.crowd.render import (
    parse_submission,
    render_hit_html,
    render_hit_text,
)
from repro.crowd.seeding import stable_rng, stable_seed
from repro.crowd.stats import CrowdStats
from repro.crowd.truth_inference import (
    TruthInferenceResult,
    WorkerEstimate,
    dawid_skene,
)
from repro.crowd.worker import DifficultyModel, WorkerPool
from repro.crowd.workforce import (
    SimulatedWorker,
    Workforce,
    WorkforceAnswerFile,
)

__all__ = [
    "AdaptiveAnswerFile",
    "AnswerFile",
    "AnswerJournal",
    "AnswerWrapper",
    "Assignment",
    "BatchReceipt",
    "ClusterHitPlan",
    "CrowdOracle",
    "CrowdStats",
    "DifficultyModel",
    "FallbackAnswers",
    "FaultEvent",
    "FaultModel",
    "Hit",
    "JournalingAnswerFile",
    "LatencyModel",
    "PlatformAnswerFile",
    "PlatformSimulator",
    "RecordGroup",
    "ScriptedAnswers",
    "SimulatedWorker",
    "TruthInferenceResult",
    "UnansweredPairError",
    "WorkerEstimate",
    "WorkerPool",
    "Workforce",
    "WorkforceAnswerFile",
    "cluster_based_hits",
    "dawid_skene",
    "format_duration",
    "hit_cost_comparison",
    "load_answers",
    "monetary_cost_cents",
    "num_hits",
    "pack_hits",
    "pairs_covered_by",
    "parse_submission",
    "render_hit_html",
    "render_hit_text",
    "save_answers",
    "stable_rng",
    "stable_seed",
]
