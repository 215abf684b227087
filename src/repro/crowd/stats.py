"""Crowdsourcing cost accounting.

The paper reports three costs per method: the number of record pairs
crowdsourced (Figure 7), the number of crowd iterations, i.e. HIT batches
(Figure 8), and implicitly the number of HITs (each HIT packs a fixed number
of pairs and is paid a fixed reward).  :class:`CrowdStats` tracks all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

#: The per-run counters, in checkpoint order: the batch costs first, then
#: the crowd-side failures a fault-injecting source reports.
COUNTERS = ("pairs_issued", "iterations", "hits", "votes", "retries",
            "timeouts", "abandonments", "degraded_pairs", "quorum_stops")
FAULT_COUNTERS = COUNTERS[4:]


@dataclass
class CrowdStats:
    """Mutable per-run crowdsourcing cost counters.

    Attributes:
        pairs_issued: Unique record pairs sent to the crowd in this run.
        iterations: Crowd iterations (batches of HITs posted and awaited).
        hits: HITs posted, assuming ``pairs_per_hit`` pairs per HIT.
        votes: Total worker judgements collected.
        pairs_per_hit: HIT packing factor (paper: 20 pairs in the 3-worker
            setting, 10 in the 5-worker setting).
        reward_cents_per_hit: Payment per HIT per worker (paper: 2 cents).
        retries: Assignment slots reposted after a failure.
        timeouts: Assignments that expired past their deadline.
        abandonments: Assignments abandoned by their worker.
        degraded_pairs: Pairs answered degraded (partial votes or machine
            fallback after the repost budget ran out).
        quorum_stops: HITs closed early because every majority was
            mathematically unbeatable.
    """

    pairs_per_hit: int = 20
    reward_cents_per_hit: float = 2.0
    num_workers: int = 3
    pairs_issued: int = 0
    iterations: int = 0
    hits: int = 0
    votes: int = 0
    retries: int = 0
    timeouts: int = 0
    abandonments: int = 0
    degraded_pairs: int = 0
    quorum_stops: int = 0
    batch_sizes: List[int] = field(default_factory=list)

    def record_batch(self, new_pairs: int) -> None:
        """Account for one crowd iteration issuing ``new_pairs`` fresh pairs.

        A batch with zero new pairs costs nothing: every answer was already
        known, so no HITs are posted and no round-trip to the crowd happens.
        """
        if new_pairs < 0:
            raise ValueError(f"new_pairs must be >= 0, got {new_pairs}")
        if new_pairs == 0:
            return
        self.pairs_issued += new_pairs
        self.iterations += 1
        self.hits += math.ceil(new_pairs / self.pairs_per_hit)
        self.votes += new_pairs * self.num_workers
        self.batch_sizes.append(new_pairs)

    def record_faults(self, **counts: int) -> None:
        """Account for crowd-side failures observed during a batch.

        Keyword arguments name counters in :data:`FAULT_COUNTERS`.  The
        counts come from a fault-injecting answer source's
        ``drain_fault_counters()`` (e.g.
        :class:`~repro.crowd.platform.PlatformAnswerFile`); a fault-free
        source never reports any.
        """
        for name, count in counts.items():
            if name not in FAULT_COUNTERS:
                raise TypeError(f"unknown fault counter {name!r}")
            if count < 0:
                raise ValueError(f"{name} must be >= 0, got {count}")
        for name, count in counts.items():
            setattr(self, name, getattr(self, name) + count)

    @property
    def monetary_cost_cents(self) -> float:
        """Total reward paid: HITs x workers x reward per HIT."""
        return self.hits * self.num_workers * self.reward_cents_per_hit

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict view for reports and experiment records."""
        view: Dict[str, float] = {name: getattr(self, name)
                                  for name in COUNTERS[:4]}
        view["cost_cents"] = self.monetary_cost_cents
        view.update((name, getattr(self, name)) for name in FAULT_COUNTERS)
        return view

    def to_state(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of every counter (including the
        per-iteration batch sizes, which :meth:`snapshot` omits) — the
        phase-checkpoint form (:mod:`repro.runtime.checkpoint`)."""
        state: Dict[str, object] = {
            "pairs_per_hit": self.pairs_per_hit,
            "reward_cents_per_hit": self.reward_cents_per_hit,
            "num_workers": self.num_workers,
        }
        state.update((name, getattr(self, name)) for name in COUNTERS)
        state["batch_sizes"] = list(self.batch_sizes)
        return state

    @staticmethod
    def from_state(state: Dict[str, object]) -> "CrowdStats":
        """Rebuild the :meth:`to_state` snapshot, counter for counter."""
        try:
            stats = CrowdStats(
                pairs_per_hit=int(state["pairs_per_hit"]),
                reward_cents_per_hit=float(state["reward_cents_per_hit"]),
                num_workers=int(state["num_workers"]),
                batch_sizes=[int(size) for size in state["batch_sizes"]],
            )
            for name in COUNTERS:
                setattr(stats, name, int(state[name]))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"malformed crowd-stats state ({error})"
            ) from None
        return stats

    def merge(self, other: "CrowdStats") -> None:
        """Fold another phase's counters into this one (e.g. generation +
        refinement into a whole-pipeline total)."""
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.batch_sizes.extend(other.batch_sizes)
