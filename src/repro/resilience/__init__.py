"""Crash safety and supervision for the toolflow (``repro.resilience``).

The paper's incremental loop only works if a ~20-minute -O1 compile
survives the realities of a developer workstation: Ctrl-C, OOM kills,
lost nodes, runaway steps.  This package is the supervision layer that
makes every compile crash-safe and time-bounded:

* :class:`BuildJournal` — a write-ahead journal next to the artifact
  store; ``pld compile --resume`` replays it and skips completed steps
  (the store's content keys make the resumed manifest bit-identical to
  an uninterrupted build);
* :class:`Deadline` — a wall-clock budget threaded through the engine,
  the flows and the cluster; expiry raises a structured
  :class:`repro.errors.DeadlineExceeded` carrying the partial results;
* :class:`CircuitBreaker` — fast-fails deterministically-crashing build
  steps straight to the -O0 degradation path;
* :class:`StoreLock` — the cross-process advisory lock serializing
  store maintenance;
* :func:`fsck_store` — the ``pld fsck`` doctor: reaps orphan temp
  files, re-hashes and heals corrupt objects, repairs the journal.

The crash-injection harness lives in :class:`repro.faults.CrashPlan`.
"""

from repro.resilience.breaker import (
    CircuitBreaker,
    DEFAULT_FAILURE_THRESHOLD,
)
from repro.resilience.deadline import Deadline
from repro.resilience.fsck import (
    FsckReport,
    TMP_GRACE_SECONDS,
    fsck_store,
    stale_tmps,
)
from repro.resilience.journal import (
    BuildJournal,
    JOURNAL_NAME,
    completed_steps,
    in_flight_steps,
    interrupted,
    journal_path,
    load_journal,
    repair_journal,
)
from repro.resilience.lock import LOCK_NAME, StoreLock

__all__ = [
    "BuildJournal",
    "CircuitBreaker",
    "DEFAULT_FAILURE_THRESHOLD",
    "Deadline",
    "FsckReport",
    "JOURNAL_NAME",
    "LOCK_NAME",
    "StoreLock",
    "TMP_GRACE_SECONDS",
    "completed_steps",
    "fsck_store",
    "stale_tmps",
    "in_flight_steps",
    "interrupted",
    "journal_path",
    "load_journal",
    "repair_journal",
]
