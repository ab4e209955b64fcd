"""Fair-share request scheduling for the compile service.

The daemon multiplexes many tenants onto one pool of engine workers;
this module decides *who goes next*.  The policy is a plain data
structure the service locks: no threads, no clocks and no lock of its
own.  :class:`~repro.service.core.CompileService` calls every method
under its one lock and validates a request's priority class before it
gets here, and the fairness properties are tested exhaustively on the
bare structure (see ``tests/test_service_scheduler.py``):

* **Per-tenant quotas** — a tenant's running requests may never hold
  more than its quota of workers; everyone else's requests stay
  eligible, so one tenant flooding the queue cannot occupy the pool.
* **Fair share** — among eligible requests, the tenant with the least
  service consumed so far (a stride-scheduling virtual time, advanced
  by each request's worker cost on acquire) wins; ties break by
  submission order.
* **Priority classes** — ``deadline`` > ``interactive`` > ``batch``.
  A request with a deadline sorts earliest-deadline-first within its
  class.
* **Aging** — a queued request's effective class improves by one step
  every :data:`AGING_ROUNDS` acquire calls it sits out, without a
  floor, so strict priority cannot starve anyone: a request that has
  waited long enough out-ranks every fresh arrival, deadline class
  included.  Among equally-aged requests virtual time takes over and
  the least-served tenant wins — a waiting tenant's virtual time is
  frozen while everyone being served advances theirs, so it
  eventually becomes the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServiceError

#: Priority class -> rank (lower runs first).
PRIORITY_CLASSES = {"deadline": 0, "interactive": 1, "batch": 2}

#: Acquire rounds a queued request sits out before its effective
#: priority class improves by one step.
AGING_ROUNDS = 8


@dataclass
class ScheduledRequest:
    """One queue entry (identity is ``seq``, assigned at submit)."""

    seq: int
    tenant: str
    cost: int = 1
    priority: str = "interactive"
    #: Absolute deadline in the caller's clock; only the *ordering*
    #: matters to the scheduler (earliest first within a class).
    deadline_at: Optional[float] = None
    #: Round counter value when the request was submitted (for aging).
    submitted_round: int = 0
    payload: object = None
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        self.rank = PRIORITY_CLASSES[self.priority]
        if self.deadline_at is not None:
            self.rank = PRIORITY_CLASSES["deadline"]


class RequestScheduler:
    """Fair-share scheduler over a fixed pool of engine workers.

    Args:
        total_workers: size of the shared worker pool; the sum of
            running request costs never exceeds it.
        default_quota: per-tenant worker cap when the tenant has no
            explicit entry in ``quotas`` (defaults to the whole pool —
            i.e. quotas off unless configured).
        quotas: explicit per-tenant worker caps.

    Not thread-safe: the service calls it under its one lock.
    ``acquire`` is non-blocking and returns ``None`` when nothing is
    eligible — the service's request workers then wait on its condition
    variable and retry after every submit and release.
    """

    def __init__(self, total_workers: int = 1,
                 default_quota: Optional[int] = None,
                 quotas: Optional[Dict[str, int]] = None):
        if total_workers < 1:
            raise ServiceError("scheduler needs at least one worker")
        self.total_workers = total_workers
        self.default_quota = total_workers if default_quota is None \
            else max(1, default_quota)
        self.quotas = dict(quotas or {})
        self._queued: List[ScheduledRequest] = []
        self._running: Dict[int, ScheduledRequest] = {}
        self._in_use: Dict[str, int] = {}
        self._vtime: Dict[str, float] = {}
        self._rounds = 0
        self._seq = 0

    # -- configuration -------------------------------------------------------

    def quota(self, tenant: str) -> int:
        return min(self.total_workers,
                   self.quotas.get(tenant, self.default_quota))

    # -- the queue -----------------------------------------------------------

    def submit(self, tenant: str, *, cost: int = 1,
               priority: str = "interactive",
               deadline_at: Optional[float] = None,
               payload: object = None) -> ScheduledRequest:
        """Enqueue one request; returns its entry (identity: ``seq``)."""
        cost = max(1, min(int(cost), self.total_workers))
        self._seq += 1
        entry = ScheduledRequest(
            seq=self._seq, tenant=tenant, cost=cost,
            priority=priority, deadline_at=deadline_at,
            submitted_round=self._rounds, payload=payload)
        self._queued.append(entry)
        return entry

    def _effective_rank(self, entry: ScheduledRequest) -> int:
        # Deliberately NOT clamped at zero: deadline ordering sorts
        # before virtual time within a rank, so a clamped rank would
        # let an endless stream of fresh deadline requests starve an
        # aged batch request forever.  Unbounded aging means any
        # waiter eventually out-ranks every fresh arrival.
        waited = self._rounds - entry.submitted_round
        return entry.rank - waited // AGING_ROUNDS

    def acquire(self) -> Optional[ScheduledRequest]:
        """Pick the next request to run, or None.

        The winner's workers are charged against its tenant until
        :meth:`release`; its tenant's virtual time advances by its
        cost, which is what rotates service across tenants.
        """
        self._rounds += 1
        free = self.total_workers - sum(
            e.cost for e in self._running.values())
        best: Optional[ScheduledRequest] = None
        best_key = None
        for entry in self._queued:
            if entry.cost > free:
                continue
            used = self._in_use.get(entry.tenant, 0)
            if used + entry.cost > self.quota(entry.tenant):
                continue
            key = (self._effective_rank(entry),
                   entry.deadline_at if entry.deadline_at is not None
                   else float("inf"),
                   self._vtime.get(entry.tenant, 0.0),
                   entry.seq)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        if best is None:
            return None
        self._queued.remove(best)
        self._running[best.seq] = best
        self._in_use[best.tenant] = \
            self._in_use.get(best.tenant, 0) + best.cost
        self._vtime[best.tenant] = \
            self._vtime.get(best.tenant, 0.0) + best.cost
        return best

    def release(self, seq: int) -> None:
        """Return a running request's workers to the pool."""
        entry = self._running.pop(seq, None)
        if entry is None:
            raise ServiceError(f"release of unknown request {seq}")
        remaining = self._in_use.get(entry.tenant, 0) - entry.cost
        if remaining > 0:
            self._in_use[entry.tenant] = remaining
        else:
            self._in_use.pop(entry.tenant, None)

    def clear_queue(self) -> List[ScheduledRequest]:
        """Empty the queue and return what it held (the service is
        closing: none of it will run)."""
        queued, self._queued = self._queued, []
        return queued

    # -- introspection -------------------------------------------------------

    def queued_counts(self) -> "tuple[int, Dict[str, int]]":
        """(total queued, per-tenant queued) — what admission control
        samples before letting a submit enter the queue."""
        per_tenant: Dict[str, int] = {}
        for entry in self._queued:
            per_tenant[entry.tenant] = per_tenant.get(entry.tenant, 0) + 1
        return len(self._queued), per_tenant

    def queue_position(self, seq: int) -> Optional[int]:
        """0-based position in the queue, or None once dequeued."""
        for i, entry in enumerate(self._queued):
            if entry.seq == seq:
                return i
        return None

    def stats(self) -> Dict[str, object]:
        return {
            "queued": len(self._queued),
            "running": len(self._running),
            "workers": self.total_workers,
            "busy_workers": sum(e.cost for e in self._running.values()),
            "in_use": dict(self._in_use),
            "vtime": dict(self._vtime),
            "rounds": self._rounds,
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"RequestScheduler({s['busy_workers']}/"
                f"{s['workers']} workers, {s['queued']} queued)")
