"""Persistence for crowd answers — the paper's file ``F`` made literal.

Section 6.1 records all AMT answers in a local file and replays them for
every method.  These helpers serialize any answer source to JSON and load
it back as a :class:`~repro.crowd.cache.ScriptedAnswers` — an
:class:`~repro.crowd.cache.AnswerFile` whose memo starts out holding the
saved table — so an expensive crowd run, real or simulated, can be
archived and replayed across processes.

Two durability levels:

- :func:`save_answers` / :func:`load_answers` — a one-shot snapshot of a
  finished answer set.  Writes are atomic (temp file + ``os.replace``), so
  a crash mid-write can never corrupt an existing file ``F``.
- :class:`AnswerJournal` + :class:`JournalingAnswerFile` — a write-ahead
  journal for runs *in flight*.  The journaling file is an
  :class:`~repro.crowd.cache.AnswerWrapper` around any answer source.
  Every resolved crowd batch is appended as one fsynced line; a crash can
  tear at most the final line, which replay discards.  Re-opening the
  journal resumes a killed run: already-answered batches are served from
  the journal (no crowd cost), the platform's batch counter is
  fast-forwarded so fresh batches draw the same votes they would have
  drawn uninterrupted, and the resumed run's result is byte-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.crowd.cache import AnswerWrapper, ScriptedAnswers
from repro.datasets.schema import canonical_pair
from repro.runtime.atomic import atomic_write_text as _atomic_write_text

Pair = Tuple[int, int]

_FORMAT_VERSION = 1
_JOURNAL_VERSION = 1


def save_answers(answers, pairs: Iterable[Pair],
                 path: Union[str, Path]) -> int:
    """Materialize and save the answers for ``pairs`` to a JSON file.

    The write is atomic: a crash mid-save leaves any existing file at
    ``path`` untouched.

    Args:
        answers: Any answer source with ``confidence(a, b)`` and
            ``num_workers``.
        pairs: The pairs to record (typically the whole candidate set).
        path: Destination file.

    Returns:
        The number of pairs written.
    """
    records = []
    seen = set()
    for a, b in pairs:
        key = (a, b) if a < b else (b, a)
        if key in seen:
            continue
        seen.add(key)
        records.append([key[0], key[1], answers.confidence(*key)])
    records.sort()
    payload = {
        "version": _FORMAT_VERSION,
        "num_workers": answers.num_workers,
        "answers": records,
    }
    _atomic_write_text(path, json.dumps(payload))
    return len(records)


def load_answers(path: Union[str, Path]) -> ScriptedAnswers:
    """Load a saved answer file as replayable :class:`ScriptedAnswers`.

    Raises:
        ValueError: On an unknown format version, a malformed payload, a
            confidence outside [0, 1], or duplicate pairs in the payload.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"{path}: not a version-{_FORMAT_VERSION} answer file")
    try:
        num_workers = int(payload["num_workers"])
        entries = [(int(a), int(b), float(confidence))
                   for a, b, confidence in payload["answers"]]
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: malformed answer file ({error})") from None
    confidences: Dict[Pair, float] = {}
    for a, b, confidence in entries:
        if a == b:
            raise ValueError(f"{path}: self-pair ({a}, {b}) in answer file")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(
                f"{path}: confidence for pair ({a}, {b}) outside [0, 1]: "
                f"{confidence}"
            )
        key = (a, b) if a < b else (b, a)
        if key in confidences:
            raise ValueError(f"{path}: duplicate answers for pair {key}")
        confidences[key] = confidence
    return ScriptedAnswers(confidences, num_workers=num_workers)


class AnswerJournal:
    """An append-only write-ahead journal of resolved crowd batches.

    Line 1 is a JSON header; every further line records one *complete*
    batch — its answers, which pairs came back degraded, and the fault
    counters the batch produced — written in a single ``write`` +
    ``fsync``.  A crash can therefore tear at most the final line; replay
    truncates a torn tail and raises on corruption anywhere else.

    The journal is the recovery log for :class:`JournalingAnswerFile` —
    wrap the answers handed to ``run_acd`` in one —
    and for ``repro run --journal``.
    """

    def __init__(self, path: Union[str, Path],
                 num_workers: Optional[int] = None,
                 config: Optional[Mapping[str, object]] = None):
        """Open (or create) the journal at ``path``.

        Args:
            path: Journal file; created when absent, replayed when present.
            num_workers: Worker count recorded in the header of a *new*
                journal (an existing journal keeps its own).
            config: Optional run-configuration fingerprint (e.g. dataset,
                scale, seed, method) recorded in the header of a *new*
                journal.  When an existing journal carries a config and the
                caller supplies one too, they must match — resuming a run
                under different settings would silently replay answers from
                a different experiment.  Journals without a recorded config
                (older files) accept any caller config.

        Raises:
            ValueError: On a corrupt journal, a worker-count mismatch, or a
                config mismatch against an existing journal.
        """
        self.path = Path(path)
        self.num_workers = num_workers
        self.config: Optional[Dict[str, object]] = (
            dict(config) if config is not None else None
        )
        self._answers: Dict[Pair, float] = {}
        self._degraded: Set[Pair] = set()
        self._batch_faults: List[Dict[str, int]] = []
        if self.path.exists() and self.path.stat().st_size > 0:
            self._replay()
        else:
            header: Dict[str, object] = {
                "journal": _JOURNAL_VERSION, "num_workers": num_workers,
            }
            if self.config is not None:
                header["config"] = self.config
            # Atomic + directory-fsynced: a crash during journal creation
            # leaves either no journal or a complete, durable header line.
            _atomic_write_text(self.path,
                               json.dumps(header, sort_keys=True) + "\n")
        self._handle = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        raw = self.path.read_bytes()
        records = []
        consumed = 0
        torn = False
        for line in raw.splitlines(keepends=True):
            stripped = line.strip()
            record = None
            if stripped:
                try:
                    record = json.loads(stripped.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    record = None
            if (record is None and stripped) or not line.endswith(b"\n"):
                torn = True
                break
            if record is not None:
                records.append(record)
            consumed += len(line)
        if torn:
            rest = raw[consumed:]
            # Our writer emits one newline-terminated JSON object per
            # write, so only the file's final line can legitimately be
            # torn; garbage with further lines after it means the file was
            # edited or damaged, not crashed.
            if b"\n" in rest.rstrip(b"\r\n") or not rest:
                raise ValueError(f"{self.path}: corrupt journal (mid-file)")
            with open(self.path, "r+b") as handle:
                handle.truncate(consumed)
        if not records or not isinstance(records[0], dict) \
                or records[0].get("journal") != _JOURNAL_VERSION:
            raise ValueError(
                f"{self.path}: not a version-{_JOURNAL_VERSION} answer journal"
            )
        header = records[0]
        recorded_workers = header.get("num_workers")
        if recorded_workers is not None:
            recorded_workers = int(recorded_workers)
            if (self.num_workers is not None
                    and self.num_workers != recorded_workers):
                raise ValueError(
                    f"{self.path}: journal was recorded with "
                    f"{recorded_workers} workers, not {self.num_workers}"
                )
            self.num_workers = recorded_workers
        recorded_config = header.get("config")
        if recorded_config is not None:
            if not isinstance(recorded_config, dict):
                raise ValueError(
                    f"{self.path}: malformed journal config header"
                )
            if self.config is not None and self.config != recorded_config:
                differing = sorted(
                    key for key in set(self.config) | set(recorded_config)
                    if self.config.get(key) != recorded_config.get(key)
                )
                raise ValueError(
                    f"{self.path}: journal was recorded under a different "
                    f"run configuration (differs on: {', '.join(differing)}); "
                    "resuming would replay answers from another experiment"
                )
            self.config = recorded_config
        for record in records[1:]:
            self._ingest(record)

    def _ingest(self, record) -> None:
        try:
            raw_answers = record["answers"]
            answers = {(int(a), int(b)): float(confidence)
                       for a, b, confidence in raw_answers}
            degraded = {(int(a), int(b))
                        for a, b in record.get("degraded", [])}
            faults = {str(key): int(value)
                      for key, value in record.get("faults", {}).items()}
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{self.path}: malformed journal record ({error})"
            ) from None
        for pair, confidence in answers.items():
            if pair[0] >= pair[1]:
                raise ValueError(
                    f"{self.path}: non-canonical pair {pair} in journal"
                )
            if not 0.0 <= confidence <= 1.0:
                raise ValueError(
                    f"{self.path}: confidence for {pair} outside [0, 1]"
                )
            if pair in self._answers:
                raise ValueError(
                    f"{self.path}: pair {pair} journaled twice"
                )
        self._answers.update(answers)
        self._degraded.update(degraded)
        self._batch_faults.append(faults)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append_batch(self, answers: Mapping[Pair, float],
                     degraded: Iterable[Pair] = (),
                     faults: Optional[Mapping[str, int]] = None) -> None:
        """Durably record one resolved batch (single write + fsync)."""
        canonical = {canonical_pair(*pair): float(confidence)
                     for pair, confidence in answers.items()}
        for pair, confidence in canonical.items():
            if not 0.0 <= confidence <= 1.0:
                raise ValueError(
                    f"confidence for {pair} must be in [0, 1], "
                    f"got {confidence}"
                )
            if pair in self._answers:
                raise ValueError(f"pair {pair} already journaled")
        degraded_set = {canonical_pair(*pair) for pair in degraded}
        fault_counts = {key: int(value)
                        for key, value in (faults or {}).items() if value}
        record: Dict[str, object] = {
            "answers": sorted([a, b, confidence]
                              for (a, b), confidence in canonical.items()),
        }
        if degraded_set:
            record["degraded"] = sorted([a, b] for a, b in degraded_set)
        if fault_counts:
            record["faults"] = fault_counts
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._answers.update(canonical)
        self._degraded.update(degraded_set)
        self._batch_faults.append(fault_counts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._answers)

    def __contains__(self, pair: Pair) -> bool:
        return canonical_pair(*pair) in self._answers

    @property
    def num_batches(self) -> int:
        """Complete batches on record."""
        return len(self._batch_faults)

    def get(self, pair: Pair) -> Optional[float]:
        return self._answers.get(canonical_pair(*pair))

    def answers(self) -> Dict[Pair, float]:
        """Every journaled answer (a copy)."""
        return dict(self._answers)

    def degraded_pairs(self) -> Set[Pair]:
        """Every journaled degraded pair (a copy)."""
        return set(self._degraded)

    def batch_faults(self, index: int) -> Dict[str, int]:
        """The fault counters recorded with batch ``index`` (a copy)."""
        return dict(self._batch_faults[index])

    # ------------------------------------------------------------------
    # Checkpointing / lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self, path: Union[str, Path]) -> int:
        """Compact the journal into a version-1 answer file, atomically.

        The checkpoint is a plain :func:`load_answers`-compatible snapshot
        — the long-term archive format — written with the same temp-file +
        ``os.replace`` discipline as :func:`save_answers`.

        Returns:
            The number of pairs written.
        """
        if self.num_workers is None:
            raise ValueError(
                "cannot checkpoint a journal with unknown num_workers"
            )
        records = sorted([a, b, confidence]
                         for (a, b), confidence in self._answers.items())
        payload = {
            "version": _FORMAT_VERSION,
            "num_workers": self.num_workers,
            "answers": records,
        }
        _atomic_write_text(path, json.dumps(payload))
        return len(records)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "AnswerJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JournalingAnswerFile(AnswerWrapper):
    """A write-ahead journaling wrapper around any answer source.

    Every batch resolved through the wrapped source is durably appended to
    an :class:`AnswerJournal` *before* the caller sees it; pairs already
    in the journal are served from it without touching the source.  On a
    platform-backed source the batch counter is fast-forwarded past the
    journaled batches (see
    :meth:`~repro.crowd.platform.PlatformSimulator.skip_batches`), so a
    killed run re-opened on the same journal continues exactly where it
    stopped and produces a byte-identical result — including the fault
    counters, which are replayed from the journal for recovered batches.
    """

    def __init__(self, source,
                 journal: Union[AnswerJournal, str, Path],
                 config: Optional[Mapping[str, object]] = None):
        """Args:
        source: Any answer source (``confidence`` and optionally
            ``confidence_batch`` / ``drain_fault_counters`` /
            ``degraded_pairs`` / ``skip_batches``).
        journal: An open :class:`AnswerJournal` or a path to open.
        config: Optional run-configuration fingerprint forwarded to
            :class:`AnswerJournal` (ignored when ``journal`` is already
            open); a mismatch against an existing journal's recorded
            config raises.

        Raises:
            ValueError: If the journal was recorded under a different
                worker count than the source reports, or under a
                different run configuration.
        """
        if not isinstance(journal, AnswerJournal):
            journal = AnswerJournal(journal, num_workers=source.num_workers,
                                    config=config)
        if journal.num_workers is None:
            journal.num_workers = source.num_workers
        elif journal.num_workers != source.num_workers:
            raise ValueError(
                f"journal {journal.path} was recorded with "
                f"{journal.num_workers} workers, but the answer source "
                f"reports {source.num_workers}"
            )
        super().__init__(source)
        self.journal = journal
        #: Answers already on record when this wrapper opened the journal —
        #: the resume inheritance.
        self.resumed_answers = len(journal)
        self._resumed_batches = journal.num_batches
        self._replay_cursor = 0
        self._pending_faults: Dict[str, int] = {}
        skip = getattr(source, "skip_batches", None)
        if skip is not None and self._resumed_batches:
            skip(self._resumed_batches)

    @property
    def fork_source(self):
        """The answer source forked worker processes should read.

        Workers must never write through this wrapper: the journal file
        handle duplicated by fork would interleave appends from several
        processes and corrupt the write-ahead log.  A generation pool
        forks the *underlying* source (pair-deterministic, so the
        workers compute the same confidences) and the parent replays
        their merged rounds through this wrapper, which journals them
        exactly as a single-process run would.
        """
        return self._inner

    def __len__(self) -> int:
        return len(self.journal)

    def skip_replayed_batches(self, num_batches: int) -> None:
        """Mark the first ``num_batches`` journaled batches as consumed.

        A phase checkpoint (:mod:`repro.runtime.checkpoint`) already
        carries the cost counters of the batches it covers; when a resumed
        run restores the phase instead of replaying it, those batches'
        journaled fault counters must not be re-surfaced by
        :meth:`confidence_batch`'s replay path.  Advances the replay
        cursor without merging the skipped batches' counters (capped at
        the batches actually inherited from the journal).
        """
        if num_batches < 0:
            raise ValueError(
                f"num_batches must be >= 0, got {num_batches}"
            )
        self._replay_cursor = max(
            self._replay_cursor, min(num_batches, self._resumed_batches)
        )

    # ------------------------------------------------------------------
    # Answer-source interface
    # ------------------------------------------------------------------

    def confidence_batch(self, pairs: Sequence[Pair]) -> Dict[Pair, float]:
        requested = [canonical_pair(*pair) for pair in pairs]
        missing = sorted({pair for pair in requested
                          if pair not in self.journal})
        if missing:
            resolver = getattr(self._inner, "confidence_batch", None)
            if resolver is not None:
                resolved = resolver(missing)
            else:
                resolved = {pair: self._inner.confidence(*pair)
                            for pair in missing}
            degraded: Set[Pair] = set()
            degraded_source = getattr(self._inner, "degraded_pairs", None)
            if degraded_source is not None:
                degraded = set(degraded_source()) & set(missing)
            faults: Dict[str, int] = {}
            drain = getattr(self._inner, "drain_fault_counters", None)
            if drain is not None:
                faults = drain()
            self.journal.append_batch(
                {pair: resolved[pair] for pair in missing},
                degraded=degraded, faults=faults,
            )
            self._merge_faults(faults)
            # Anything the journal already held counts as replayed.
            self._replay_cursor = self.journal.num_batches
        elif requested and self._replay_cursor < self._resumed_batches:
            # A batch served entirely from the pre-existing journal: this
            # is the resumed run replaying what the killed run already
            # collected.  Re-surface the fault counters that batch
            # recorded so the resumed stats match the uninterrupted run.
            self._merge_faults(self.journal.batch_faults(self._replay_cursor))
            self._replay_cursor += 1
        return {pair: self.journal.get(pair) for pair in requested}

    def confidence(self, record_a: int, record_b: int) -> float:
        return self.confidence_batch([(record_a, record_b)])[
            canonical_pair(record_a, record_b)
        ]

    # ------------------------------------------------------------------
    # Fault-surface passthrough
    # ------------------------------------------------------------------

    def _merge_faults(self, faults: Mapping[str, int]) -> None:
        for key, value in faults.items():
            if value:
                self._pending_faults[key] = (
                    self._pending_faults.get(key, 0) + value
                )

    def drain_fault_counters(self) -> Dict[str, int]:
        counters = self._pending_faults
        self._pending_faults = {}
        return counters

    def degraded_pairs(self) -> Set[Pair]:
        degraded = self.journal.degraded_pairs()
        source = getattr(self._inner, "degraded_pairs", None)
        if source is not None:
            degraded |= set(source())
        return degraded

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self, path: Union[str, Path]) -> int:
        """Atomically compact the journal to an answer-file snapshot."""
        return self.journal.checkpoint(path)

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "JournalingAnswerFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
