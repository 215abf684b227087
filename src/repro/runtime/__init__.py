"""The resilience runtime: durable writes, supervised pools, checkpoints.

Three layers, each usable on its own:

- :mod:`repro.runtime.atomic` — the one crash-durable file writer shared by
  the answer journal, the run manifest, and the phase checkpoints (temp
  file + fsync + ``os.replace`` + directory fsync).
- :mod:`repro.runtime.supervisor` — the one supervised fork pool, shared
  by the pruning layer and ACD's cluster generation: worker-death
  detection, per-task deadlines with straggler re-dispatch, bounded
  exponential-backoff retries, and a final degradation to in-process
  execution with byte-identical results.
- :mod:`repro.runtime.checkpoint` — atomic, config-fingerprinted
  phase-level snapshots (candidate set after pruning, cluster state after
  generation) so a killed run resumes from the last completed phase.

:mod:`repro.runtime.faults` injects deterministic process-level chaos
(worker kills, task delays, poison chunks) into the supervised pool; the
``repro chaos`` suite drives it.
"""

from repro.runtime.atomic import atomic_write_text, fsync_directory
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointMismatch,
    CheckpointStore,
    candidate_state,
    config_fingerprint,
    restore_candidates,
)
from repro.runtime.faults import FAULT_KINDS, FaultDirective, ProcessFaultPlan
from repro.runtime.supervisor import (
    RuntimeReport,
    SupervisedPool,
    SupervisorPolicy,
    supervised_map,
)

__all__ = [
    "atomic_write_text", "fsync_directory",
    "CHECKPOINT_VERSION", "CheckpointMismatch", "CheckpointStore",
    "candidate_state", "config_fingerprint", "restore_candidates",
    "FAULT_KINDS", "FaultDirective", "ProcessFaultPlan",
    "RuntimeReport", "SupervisedPool", "SupervisorPolicy", "supervised_map",
]
