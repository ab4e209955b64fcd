"""Per-step circuit breakers for the build engine.

A step whose builder crashes once is retried (a pooled engine's
in-process retry, the cluster's backoff ladder); a step that crashes
*every time* is deterministic breakage, and burning the full ladder on
each compile just delays the developer.  :class:`CircuitBreaker` counts
consecutive builder failures per step name; once a step reaches the
threshold its breaker *opens* and the engine raises
:class:`repro.errors.CircuitOpenError` instead of running the builder —
the -O1 flow then routes the operator straight to the -O0 softcore
degradation path (same fallback as an exhausted cluster job).

A later success (e.g. after the developer fixes the operator and the
content key changes) resets the count, closing the breaker.

The same class guards *shards* of the remote artifact store
(:mod:`repro.store.remote`): there the "step" is a shard address, and
an optional ``cooldown_seconds`` turns the breaker into a quarantine
with **half-open probes** — once the cooldown after the last failure
has passed, :meth:`is_open` admits exactly one trial request; a
success closes the breaker, another failure re-arms the cooldown.
Without a cooldown (the build-engine default) behaviour is unchanged:
open stays open until a success is recorded.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.errors import CircuitOpenError

#: Consecutive failures after which a step's breaker opens.
DEFAULT_FAILURE_THRESHOLD = 3


class CircuitBreaker:
    """Counts consecutive failures per step name; opens at a threshold.

    Args:
        failure_threshold: consecutive failures that open the breaker.
        cooldown_seconds: when set, an open breaker *half-opens* this
            many seconds after its last recorded failure, admitting one
            probe request; None (the default) keeps an open breaker
            open until a success is recorded.
        clock: injectable monotonic clock (tests); defaults to
            :func:`time.monotonic`.
    """

    def __init__(self, failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 cooldown_seconds: Optional[float] = None, clock=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_seconds is not None and cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock if clock is not None else time.monotonic
        # One breaker is shared by the request workers' engines and
        # the store reconciler; the half-open admission in
        # is_open() is check-then-act, so all state lives under a lock.
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._last_failure: Dict[str, float] = {}
        self._probing: Dict[str, bool] = {}

    def record_failure(self, step: str) -> int:
        """Count one builder failure; returns the new count."""
        with self._lock:
            self._failures[step] = self._failures.get(step, 0) + 1
            self._last_failure[step] = self._clock()
            self._probing.pop(step, None)
            return self._failures[step]

    def record_success(self, step: str) -> None:
        """A completed build closes the step's breaker."""
        with self._lock:
            self._failures.pop(step, None)
            self._last_failure.pop(step, None)
            self._probing.pop(step, None)

    def failures(self, step: str) -> int:
        with self._lock:
            return self._failures.get(step, 0)

    def is_open(self, step: str) -> bool:
        with self._lock:
            if self._failures.get(step, 0) < self.failure_threshold:
                return False
            if self.cooldown_seconds is None:
                return True
            # Quarantine mode: after the cooldown, half-open — admit
            # one probe request (is_open -> False once); further
            # requests stay blocked until the probe's outcome is
            # recorded.
            if self._probing.get(step, False):
                return True
            last = self._last_failure.get(step, 0.0)
            if self._clock() - last >= self.cooldown_seconds:
                self._probing[step] = True
                return False
            return True

    def half_open(self, step: str) -> bool:
        """True while one probe request is in flight for ``step``."""
        with self._lock:
            return self._probing.get(step, False)

    def open_steps(self) -> List[str]:
        with self._lock:
            return sorted(step for step, count in self._failures.items()
                          if count >= self.failure_threshold)

    def check(self, step: str) -> None:
        """Raise :class:`CircuitOpenError` when the step's breaker is open."""
        with self._lock:
            count = self._failures.get(step, 0)
        if count >= self.failure_threshold:
            raise CircuitOpenError(
                f"step {step!r} fast-failed: circuit breaker open after "
                f"{count} consecutive builder failures",
                step=step, failures=count)

    def __repr__(self) -> str:
        return (f"CircuitBreaker(threshold={self.failure_threshold}, "
                f"open={self.open_steps()})")
