"""Property tests for the fair-share request scheduler.

The two guarantees the service's multi-tenancy stands on, checked
exhaustively with hypothesis over adversarial submit orders:

* **No starvation** — whatever mix of tenants, priorities and costs is
  queued, every submitted request is eventually acquired when the
  consumer keeps draining (aging lifts any request to rank 0, where
  least-virtual-time fair share admits the longest-waiting tenant).
* **Quota containment** — at no instant does a tenant hold more
  workers than its quota, nor the pool more than its capacity.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServiceError
from repro.service import (
    PRIORITY_CLASSES,
    RequestScheduler,
)

TENANTS = ["a", "b", "c", "d"]

#: One adversarial submit: (tenant index, priority, cost, deadline?).
submit_st = st.tuples(
    st.integers(min_value=0, max_value=len(TENANTS) - 1),
    st.sampled_from(sorted(PRIORITY_CLASSES)),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0,
                                   allow_nan=False)),
)


class TestNoStarvation:
    @given(submits=st.lists(submit_st, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_every_request_eventually_runs(self, submits):
        sched = RequestScheduler(total_workers=4)
        entries = [
            sched.submit(TENANTS[t], cost=cost, priority=prio,
                         deadline_at=deadline)
            for t, prio, cost, deadline in submits]
        acquired = []
        running = []
        # A consumer that keeps draining: acquire until empty, release
        # everything, repeat.  Bounded by a generous round count so a
        # starving scheduler fails the assert rather than hanging.
        for _round in range(40 * len(entries) + 40):
            entry = sched.acquire()
            if entry is None:
                if not running:
                    break
                sched.release(running.pop(0).seq)
                continue
            acquired.append(entry.seq)
            running.append(entry)
            if len(running) >= 2:
                sched.release(running.pop(0).seq)
        while running:
            sched.release(running.pop(0).seq)
        assert sorted(acquired) == sorted(e.seq for e in entries)

    @given(flood=st.integers(min_value=5, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_deadline_flood_cannot_starve_batch(self, flood):
        """One batch request queued behind an endless deadline stream
        still runs: aging lifts it past the privileged class."""
        sched = RequestScheduler(total_workers=1)
        batch = sched.submit("victim", priority="batch")
        for i in range(flood):
            sched.submit("flooder", priority="interactive",
                         deadline_at=float(i))
        ran_batch_at = None
        for step in range(flood * 40 + 400):
            entry = sched.acquire()
            if entry is None:
                break
            sched.release(entry.seq)
            if entry.seq == batch.seq:
                ran_batch_at = step
                break
            # The adversary keeps the deadline queue topped up.
            sched.submit("flooder", priority="interactive",
                         deadline_at=float(1000 + step))
        assert ran_batch_at is not None


class TestQuotaContainment:
    @given(submits=st.lists(submit_st, min_size=1, max_size=40),
           quota=st.integers(min_value=1, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_tenant_never_exceeds_quota(self, submits, quota):
        sched = RequestScheduler(total_workers=4,
                                 quotas={"a": quota})
        for t, prio, cost, deadline in submits:
            sched.submit(TENANTS[t], cost=cost, priority=prio,
                         deadline_at=deadline)
        running = []
        for _round in range(4 * len(submits) + 8):
            entry = sched.acquire()
            if entry is None:
                if running:
                    sched.release(running.pop(0).seq)
                continue
            running.append(entry)
            # The invariant, checked at every instant work is held:
            stats = sched.stats()
            assert stats["in_use"].get("a", 0) <= quota
            assert stats["busy_workers"] <= 4
            for tenant, used in stats["in_use"].items():
                assert used <= sched.quota(tenant)
        while running:
            sched.release(running.pop(0).seq)

    def test_quota_blocked_tenant_does_not_block_others(self):
        sched = RequestScheduler(total_workers=4, quotas={"hog": 1})
        first = sched.submit("hog")
        sched.submit("hog")                # over quota while first runs
        other = sched.submit("quiet")
        got = sched.acquire()
        assert got.seq == first.seq
        # The hog's second request is quota-gated; the other tenant's
        # request must flow past it.
        got = sched.acquire()
        assert got is not None and got.seq == other.seq


class TestSchedulerAPI:
    def test_bad_priority_rejected(self):
        """The service's submit gate rejects an unknown priority class;
        the scheduler, a plain data structure, never sees it."""
        from repro.service import (CompileRequest, CompileService,
                                   ServiceConfig)

        with CompileService(ServiceConfig()) as service:
            with pytest.raises(ServiceError, match="priority") as err:
                service.submit(CompileRequest(app="spam-filter",
                                              priority="urgent"))
            assert err.value.kind == "bad-request"
            assert service.scheduler.stats()["queued"] == 0

    def test_release_unknown_rejected(self):
        sched = RequestScheduler(total_workers=2)
        with pytest.raises(ServiceError, match="unknown"):
            sched.release(99)

    def test_earliest_deadline_first_within_class(self):
        sched = RequestScheduler(total_workers=1)
        late = sched.submit("t", deadline_at=50.0)
        early = sched.submit("t", deadline_at=10.0)
        assert sched.queue_position(late.seq) == 0
        got = sched.acquire()
        assert got.seq == early.seq
        assert sched.queue_position(early.seq) is None
        sched.release(got.seq)
        assert sched.acquire().seq == late.seq

    def test_fair_share_rotates_tenants(self):
        sched = RequestScheduler(total_workers=1)
        for _ in range(3):
            sched.submit("a")
            sched.submit("b")
        order = []
        for _ in range(6):
            entry = sched.acquire()
            order.append(entry.tenant)
            sched.release(entry.seq)
        # Strict alternation: each acquire advances that tenant's
        # virtual time, so the other tenant wins the next round.
        assert order == ["a", "b", "a", "b", "a", "b"]
