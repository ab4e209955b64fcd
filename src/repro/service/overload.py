"""Overload protection for the compile service: admit → shed → brownout.

A daemon that accepts unbounded work melts down exactly when it is
needed most — the paper's whole premise is that compilation stays
interactive, so the service layer must degrade *gracefully* under a
tenant flood instead of queueing without bound.  This module is the
policy layer :class:`~repro.service.core.CompileService` consults at
submit time: a plain data structure the service locks, with no threads,
no lock of its own and an injectable clock, so every decision is
unit-testable:

* **Admission control** — a global bounded queue depth
  (``max_queued``), a per-tenant bound (``max_queued_per_tenant``) and
  per-tenant token-bucket rate limits (``rates`` / ``default_rate``).
  A rejected submit raises :class:`~repro.errors.OverloadedError`
  carrying a computed ``retry_after`` drain estimate.
* **Class-aware load shedding** — between "plenty of room" and "queue
  full" sit two watermarks: past :data:`SHED_BATCH_FRACTION` of the
  queue bound new ``batch`` requests are shed, past
  :data:`SHED_INTERACTIVE_FRACTION` new ``interactive`` requests shed
  too; ``deadline``-class requests are only refused when the queue is
  genuinely full.  Shedding cheap work first keeps the interactive
  edit loop alive through a batch flood.
* **Brownout** — a time-decayed EWMA of queue depth detects *sustained*
  overload (a single burst does not trip it).  Above
  ``brownout_high`` the service enters brownout: new one-shot compiles
  route to the existing -O0 degradation path (seconds, not minutes,
  of work).  The EWMA must fall below
  ``brownout_low`` to exit — hysteresis, so the mode does not flap.

State transitions surface as ``brownout:enter`` / ``brownout:exit``
trace instants and every decision increments a counter in
:attr:`AdmissionController.counters`, exported via service ``stats``.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Optional

from repro.errors import OverloadedError
from repro.trace import NULL_TRACER

#: Fraction of ``max_queued`` past which new batch-class requests shed.
SHED_BATCH_FRACTION = 0.5
#: Fraction past which interactive requests shed too (deadline-class
#: requests ride until the queue is genuinely full).
SHED_INTERACTIVE_FRACTION = 0.8
#: Default fraction of ``max_queued`` for the brownout high watermark.
BROWNOUT_HIGH_FRACTION = 0.75
#: Queue-depth EWMA time constant (seconds): how much history "sustained
#: overload" looks at.
EWMA_TAU_SECONDS = 2.0
#: Floor for every retry_after hint — never tell a client "retry now".
MIN_RETRY_AFTER = 0.1


class TokenBucket:
    """A per-tenant request-rate limiter (``--rate TENANT=N/s``).

    Classic token bucket: tokens accrue at ``rate`` per second up to
    ``burst``; each admitted request spends one.  :meth:`try_take`
    returns 0.0 on admit, else the seconds until enough tokens accrue —
    which is exactly the ``retry_after`` the rejection should carry.
    """

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        #: Burst capacity; defaults to one second's worth (min 1).
        self.burst = float(burst) if burst is not None \
            else max(1.0, self.rate)
        self.clock = clock
        self.tokens = self.burst
        self._last = clock()

    def try_take(self, cost: float = 1.0) -> float:
        """Spend ``cost`` tokens; 0.0 on success, else seconds to wait."""
        now = self.clock()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate

    def __repr__(self) -> str:
        return (f"TokenBucket({self.tokens:.2f}/{self.burst:g} tokens, "
                f"{self.rate:g}/s)")


class AdmissionController:
    """The submit-time gate: bounded queues, rate limits, shed, brownout.

    Not thread-safe: the service calls every method under its one lock,
    which also covers the scheduler whose depths :meth:`admit` reads.

    Args:
        max_queued: global queued-request bound (None = unbounded, the
            pre-overload-protection behaviour).
        max_queued_per_tenant: per-tenant queued bound.
        rates: per-tenant token-bucket rates (requests/second).
        default_rate: rate for tenants without an explicit entry
            (None = unlimited).
        slots: the scheduler's concurrency — used only to estimate how
            fast the queue drains for ``retry_after`` hints.
        brownout_high/brownout_low: queue-depth EWMA watermarks for
            entering/leaving brownout.  Defaults derive from
            ``max_queued`` (:data:`BROWNOUT_HIGH_FRACTION`, low = half
            of high); both None disables brownout.
        clock: injectable monotonic clock (tests use a fake).
        tracer: receives ``brownout:enter``/``exit`` instants on the
            ``service`` lane.
    """

    def __init__(self, *, max_queued: Optional[int] = None,
                 max_queued_per_tenant: Optional[int] = None,
                 rates: Optional[Dict[str, float]] = None,
                 default_rate: Optional[float] = None,
                 slots: int = 1,
                 brownout_high: Optional[float] = None,
                 brownout_low: Optional[float] = None,
                 ewma_tau: float = EWMA_TAU_SECONDS,
                 clock: Callable[[], float] = time.monotonic,
                 tracer=None):
        self.max_queued = max_queued
        self.max_queued_per_tenant = max_queued_per_tenant
        self.rates = dict(rates or {})
        self.default_rate = default_rate
        self.slots = max(1, slots)
        if brownout_high is None and max_queued is not None:
            brownout_high = BROWNOUT_HIGH_FRACTION * max_queued
        self.brownout_high = brownout_high
        self.brownout_low = brownout_low if brownout_low is not None \
            else (brownout_high / 2.0 if brownout_high else None)
        self.ewma_tau = ewma_tau
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._buckets: Dict[str, TokenBucket] = {}
        self.brownout = False
        self.ewma = 0.0
        self._ewma_at = clock()
        #: Mean request wall seconds (EWMA), seeding the drain estimate.
        self._avg_wall = 1.0
        self.counters: Dict[str, int] = {
            "admitted": 0, "rejected": 0, "rate_limited": 0,
            "shed_batch": 0, "shed_interactive": 0, "shed_deadline": 0,
            "queue_full": 0, "tenant_queue_full": 0,
            "brownout_enters": 0, "brownout_exits": 0,
            "brownout_routed": 0,
        }

    # -- rate limits ---------------------------------------------------------

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        rate = self.rates.get(tenant, self.default_rate)
        if rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(rate, clock=self.clock)
            self._buckets[tenant] = bucket
        return bucket

    # -- the brownout EWMA ---------------------------------------------------

    def _update_ewma(self, depth: int) -> None:
        """Fold ``depth`` into the time-decayed queue-depth EWMA and
        fire a brownout transition when a watermark is crossed."""
        now = self.clock()
        dt = max(0.0, now - self._ewma_at)
        self._ewma_at = now
        alpha = 1.0 - math.exp(-dt / self.ewma_tau) if dt > 0 else 0.0
        self.ewma += alpha * (depth - self.ewma)
        # A submit observing a deeper queue than the EWMA pulls it up
        # immediately by a small step too, so a standing-start flood
        # (dt≈0 between submits) still registers as sustained load.
        if depth > self.ewma:
            self.ewma += 0.1 * (depth - self.ewma)
        if self.brownout_high is None:
            return
        if not self.brownout and self.ewma >= self.brownout_high:
            self.brownout = True
            self.counters["brownout_enters"] += 1
            self.tracer.instant("brownout:enter", category="service",
                                lane="service",
                                ewma=round(self.ewma, 2),
                                high=self.brownout_high)
        elif self.brownout and self.brownout_low is not None \
                and self.ewma <= self.brownout_low:
            self.brownout = False
            self.counters["brownout_exits"] += 1
            self.tracer.instant("brownout:exit", category="service",
                                lane="service",
                                ewma=round(self.ewma, 2),
                                low=self.brownout_low)

    def observe(self, depth: int) -> None:
        """Feed a queue-depth sample outside submit (a request's
        release) so the EWMA decays — and brownout exits — even when
        nobody is submitting."""
        self._update_ewma(depth)

    def note_routed(self) -> None:
        """Count one compile brownout rerouted to the -O0 path."""
        self.counters["brownout_routed"] += 1

    def note_done(self, wall_seconds: float) -> None:
        """Fold one finished request's wall time into the drain-rate
        estimate behind ``retry_after``."""
        self._avg_wall += 0.2 * (max(0.0, wall_seconds) - self._avg_wall)

    # -- retry_after ---------------------------------------------------------

    def _drain_estimate(self, excess: float) -> float:
        """Seconds until ``excess`` queued requests drain through the
        slot pool, by the observed mean request wall time."""
        return max(MIN_RETRY_AFTER,
                   round(excess * self._avg_wall / self.slots, 3))

    # -- the gate ------------------------------------------------------------

    def admit(self, tenant: str, *, priority: str = "interactive",
              queued: int = 0, queued_tenant: int = 0) -> None:
        """Admit or shed one submit.

        ``queued``/``queued_tenant`` are the scheduler's current queue
        depths, read under the same service lock as this call, so
        concurrent submits cannot all see one stale depth and overshoot
        the bound.  Raises :class:`OverloadedError` on rejection; on
        return the request may enter the scheduler.
        """
        self._update_ewma(queued)
        reason = self._reject_reason(tenant, priority, queued,
                                     queued_tenant)
        if reason is None:
            self.counters["admitted"] += 1
            return
        kind, retry_after, message = reason
        self.counters["rejected"] += 1
        self.counters[kind.replace("-", "_")] = \
            self.counters.get(kind.replace("-", "_"), 0) + 1
        raise OverloadedError(message, retry_after=retry_after,
                              reason=kind)

    def _reject_reason(self, tenant: str, priority: str, queued: int,
                       queued_tenant: int):
        """(reason, retry_after, message) or None."""
        if self.max_queued is not None and queued >= self.max_queued:
            return ("queue-full",
                    self._drain_estimate(queued - self.max_queued + 1),
                    f"queue full ({queued}/{self.max_queued} queued); "
                    f"all classes shed")
        if self.max_queued_per_tenant is not None \
                and queued_tenant >= self.max_queued_per_tenant:
            return ("tenant-queue-full",
                    self._drain_estimate(queued_tenant
                                         - self.max_queued_per_tenant
                                         + 1),
                    f"tenant {tenant!r} queue full ({queued_tenant}/"
                    f"{self.max_queued_per_tenant} queued)")
        if self.max_queued is not None and priority != "deadline":
            # Class-aware shedding between the watermarks: batch goes
            # first, interactive next, deadline rides to the bound.
            fraction = SHED_BATCH_FRACTION if priority == "batch" \
                else SHED_INTERACTIVE_FRACTION
            watermark = fraction * self.max_queued
            if queued >= watermark:
                return (f"shed-{priority}",
                        self._drain_estimate(queued - watermark + 1),
                        f"shedding {priority}-class work: {queued} "
                        f"queued ≥ {priority} watermark "
                        f"{watermark:g}/{self.max_queued}")
        bucket = self._bucket(tenant)
        if bucket is not None:
            wait = bucket.try_take()
            if wait > 0:
                return ("rate-limit", max(MIN_RETRY_AFTER,
                                          round(wait, 3)),
                        f"tenant {tenant!r} over its "
                        f"{bucket.rate:g}/s rate limit")
        return None

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "brownout": self.brownout,
            "queue_ewma": round(self.ewma, 3),
            "max_queued": self.max_queued,
            "max_queued_per_tenant": self.max_queued_per_tenant,
            "rates": dict(self.rates),
            "default_rate": self.default_rate,
            "counters": dict(self.counters),
        }

    def __repr__(self) -> str:
        state = "brownout" if self.brownout else "normal"
        return (f"AdmissionController({state}, "
                f"ewma={self.ewma:.2f}, "
                f"{self.counters['rejected']} rejected)")
