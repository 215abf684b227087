"""Phase-level crash-safe checkpoints: resume from the last finished phase.

The answer journal (:mod:`repro.crowd.persistence`) makes the *crowd*
phases crash-safe — but everything before them (pruning at 1M records is
two minutes of CPU) was recomputed from scratch on ``--resume``.  A
:class:`CheckpointStore` closes that gap: after each expensive phase the
driver snapshots the phase's complete output atomically
(:func:`repro.runtime.atomic.atomic_write_text` — temp file + fsync +
``os.replace`` + directory fsync), stamped with a fingerprint of the run
configuration.  A resumed run loads the snapshot *iff* the configuration
matches (the same validation contract as the journal header: resuming
under different settings would silently splice phases from different
experiments) and skips straight past the completed phase.

Checkpointed phases:

- ``pruning`` — the full candidate set (pairs + machine scores +
  threshold), via :func:`candidate_state` / :func:`restore_candidates`.
- ``generation`` — the cluster state between the pivot and refine
  phases, assembled by :func:`repro.core.acd.run_acd` (clustering,
  generation-phase cost counters, the answer set ``A``).
- ``refinement`` — the finished pipeline state after phase 3, also
  assembled by :func:`repro.core.acd.run_acd` (final clustering,
  total cost counters, the full answer set, and both phases'
  diagnostics); a resume that finds it skips generation *and*
  refinement.

Floats survive the JSON round trip exactly (``json`` serializes with
``repr``, the shortest exact representation), so a restored phase is
byte-identical to the phase that was checkpointed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.runtime.atomic import atomic_write_text

CHECKPOINT_VERSION = 1

#: The phases the pipeline checkpoints, in execution order.
CHECKPOINT_PHASES = ("pruning", "generation", "refinement")


class CheckpointMismatch(ValueError):
    """A checkpoint exists but was written under another configuration."""


def config_fingerprint(config: Optional[Mapping[str, Any]]) -> Optional[str]:
    """A short stable digest of a run configuration (``None`` passes
    through — an unfingerprinted store accepts any checkpoint)."""
    if config is None:
        return None
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class CheckpointStore:
    """A directory of per-phase snapshots for one run configuration.

    Each phase is one JSON file, written atomically and durably; the
    store validates the recorded configuration on load exactly like the
    answer journal validates its header, naming the differing keys.
    """

    def __init__(self, directory: Union[str, Path],
                 config: Optional[Mapping[str, object]] = None):
        """Open (or create) the store at ``directory``.

        Args:
            directory: Checkpoint directory; created when absent.
            config: The run-configuration fingerprint recorded in every
                snapshot and validated on load.  ``None`` skips the
                validation (accepts any checkpoint) — prefer passing it.
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config: Optional[Dict[str, object]] = (
            dict(config) if config is not None else None
        )

    def path(self, phase: str) -> Path:
        return self.directory / f"{phase}.checkpoint.json"

    def save(self, phase: str, payload: Mapping[str, Any]) -> Path:
        """Atomically snapshot one completed phase; returns the file."""
        document = {
            "checkpoint": CHECKPOINT_VERSION,
            "phase": phase,
            "config": self.config,
            "payload": dict(payload),
        }
        path = self.path(phase)
        atomic_write_text(path, json.dumps(document, sort_keys=True,
                                           separators=(",", ":")))
        return path

    def load(self, phase: str) -> Optional[Dict[str, Any]]:
        """The payload checkpointed for ``phase`` — or ``None`` if absent.

        Raises:
            ValueError: On a corrupt or wrong-version checkpoint file.
            CheckpointMismatch: When the checkpoint was recorded under a
                different run configuration (differing keys are named).
        """
        path = self.path(phase)
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise ValueError(
                f"{path}: corrupt checkpoint ({error})"
            ) from None
        if (not isinstance(document, dict)
                or document.get("checkpoint") != CHECKPOINT_VERSION
                or document.get("phase") != phase
                or not isinstance(document.get("payload"), dict)):
            raise ValueError(
                f"{path}: not a version-{CHECKPOINT_VERSION} "
                f"{phase!r} checkpoint"
            )
        recorded = document.get("config")
        if self.config is not None and recorded is None:
            raise CheckpointMismatch(
                f"{path}: checkpoint records no run configuration but this "
                f"store is fingerprinted (expected keys: "
                f"{', '.join(sorted(self.config))}); resuming would splice "
                "phases from another experiment"
            )
        if (recorded is not None and self.config is not None
                and recorded != self.config):
            differing = sorted(
                key for key in set(self.config) | set(recorded)
                if self.config.get(key) != recorded.get(key)
            )
            raise CheckpointMismatch(
                f"{path}: checkpoint was recorded under a different run "
                f"configuration (differs on: {', '.join(differing)}); "
                "resuming would splice phases from another experiment"
            )
        return document["payload"]

    def clear(self, phase: Optional[str] = None) -> None:
        """Delete one phase's snapshot, or every phase's when ``None``."""
        phases = (phase,) if phase is not None else CHECKPOINT_PHASES
        for name in phases:
            try:
                self.path(name).unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Phase payload codecs
# ----------------------------------------------------------------------

def candidate_state(candidates) -> Dict[str, Any]:
    """Serialize a :class:`~repro.pruning.candidate.CandidateSet`."""
    return {
        "threshold": candidates.threshold,
        "pairs": [[a, b, candidates.machine_scores[(a, b)]]
                  for a, b in candidates.pairs],
    }


def restore_candidates(payload: Mapping[str, Any]):
    """Rebuild the :class:`~repro.pruning.candidate.CandidateSet` a
    ``pruning`` checkpoint recorded, byte-identical to the original."""
    from repro.pruning.candidate import CandidateSet

    try:
        threshold = float(payload["threshold"])
        entries = [(int(a), int(b), float(score))
                   for a, b, score in payload["pairs"]]
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"malformed pruning checkpoint payload ({error})"
        ) from None
    pairs = tuple((a, b) for a, b, _ in entries)
    scores = {(a, b): score for a, b, score in entries}
    if len(scores) != len(pairs):
        raise ValueError("malformed pruning checkpoint payload "
                         "(duplicate pairs)")
    return CandidateSet(pairs=pairs, machine_scores=scores,
                        threshold=threshold)
