"""Overload protection: admission, shedding, brownout, drain, GC.

The contract under test (DESIGN.md §16): a flooded service sheds cheap
work *before* important work (batch → interactive → deadline), every
rejection carries a drain-estimate ``retry_after``, sustained overload
flips brownout (compiles reroute to -O0, hedging pauses) with
hysteresis, a draining service bounces submits to peers while running
work finishes — and none of it violates the PR 7 scheduler invariants
for the requests that *were* admitted.
"""

import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OverloadedError, ServiceError
from repro.service import (
    PRIORITY_CLASSES,
    SHED_BATCH_FRACTION,
    SHED_INTERACTIVE_FRACTION,
    AdmissionController,
    CompileRequest,
    CompileService,
    RequestScheduler,
    ServiceConfig,
    TokenBucket,
)
from repro.trace import Tracer

APP = "digit-recognition"
EFFORT = 0.05


class FakeClock:
    """A controllable monotonic clock for deterministic rate/EWMA tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_dry(self):
        clock = FakeClock()
        bucket = TokenBucket(2.0, clock=clock)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0
        clock.tick(0.25)                   # one token accrues
        assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0

    def test_burst_caps_accrual(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, burst=2.0, clock=clock)
        clock.tick(100.0)                  # a long idle gap
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0     # only burst=2 banked

    def test_wait_hint_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(1.0, clock=clock)
        bucket.try_take()
        wait = bucket.try_take()
        clock.tick(wait)
        assert bucket.try_take() == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(0.0)


# -- admission control ---------------------------------------------------------


class TestAdmission:
    def test_unbounded_by_default(self):
        ctrl = AdmissionController(clock=FakeClock())
        for depth in (0, 10, 10_000):
            ctrl.admit("t", priority="batch", queued=depth)
        assert ctrl.counters["admitted"] == 3
        assert ctrl.counters["rejected"] == 0

    def test_shed_order_batch_interactive_deadline(self):
        """The tentpole ordering: batch sheds at 50% of the bound,
        interactive at 80%, deadline only when genuinely full."""
        ctrl = AdmissionController(max_queued=10, clock=FakeClock())
        batch_mark = int(SHED_BATCH_FRACTION * 10)
        inter_mark = int(SHED_INTERACTIVE_FRACTION * 10)
        ctrl.admit("t", priority="batch", queued=batch_mark - 1)
        with pytest.raises(OverloadedError) as err:
            ctrl.admit("t", priority="batch", queued=batch_mark)
        assert err.value.reason == "shed-batch"
        ctrl.admit("t", priority="interactive", queued=inter_mark - 1)
        with pytest.raises(OverloadedError) as err:
            ctrl.admit("t", priority="interactive", queued=inter_mark)
        assert err.value.reason == "shed-interactive"
        ctrl.admit("t", priority="deadline", queued=9)
        with pytest.raises(OverloadedError) as err:
            ctrl.admit("t", priority="deadline", queued=10)
        assert err.value.reason == "queue-full"

    def test_every_rejection_carries_retry_after(self):
        ctrl = AdmissionController(max_queued=4, rates={"limited": 1.0},
                                   clock=FakeClock())
        ctrl.admit("limited", queued=0)
        for kwargs in (dict(tenant="t", priority="batch", queued=2),
                       dict(tenant="t", priority="deadline", queued=4),
                       dict(tenant="limited", queued=0)):
            tenant = kwargs.pop("tenant")
            with pytest.raises(OverloadedError) as err:
                ctrl.admit(tenant, **kwargs)
            assert err.value.retry_after > 0
            assert err.value.kind == "overloaded"

    def test_retry_after_scales_with_excess_and_wall(self):
        ctrl = AdmissionController(max_queued=4, slots=2,
                                   clock=FakeClock())
        for _ in range(8):
            ctrl.note_done(10.0)           # slow requests observed
        with pytest.raises(OverloadedError) as slow:
            ctrl.admit("t", priority="deadline", queued=8)
        ctrl2 = AdmissionController(max_queued=4, slots=2,
                                    clock=FakeClock())
        for _ in range(8):
            ctrl2.note_done(0.01)          # fast requests observed
        with pytest.raises(OverloadedError) as fast:
            ctrl2.admit("t", priority="deadline", queued=8)
        assert slow.value.retry_after > fast.value.retry_after

    def test_per_tenant_bound(self):
        ctrl = AdmissionController(max_queued_per_tenant=2,
                                   clock=FakeClock())
        ctrl.admit("hog", queued=50, queued_tenant=1)
        with pytest.raises(OverloadedError) as err:
            ctrl.admit("hog", queued=50, queued_tenant=2)
        assert err.value.reason == "tenant-queue-full"
        # Another tenant is unaffected by the hog's backlog.
        ctrl.admit("quiet", queued=50, queued_tenant=0)

    def test_rate_limit_only_hits_limited_tenant(self):
        clock = FakeClock()
        ctrl = AdmissionController(rates={"limited": 1.0}, clock=clock)
        ctrl.admit("limited", queued=0)
        with pytest.raises(OverloadedError) as err:
            ctrl.admit("limited", queued=0)
        assert err.value.reason == "rate-limit"
        for _ in range(10):
            ctrl.admit("free", queued=0)
        clock.tick(1.0)
        ctrl.admit("limited", queued=0)

    def test_default_rate_applies_to_unlisted_tenants(self):
        ctrl = AdmissionController(default_rate=1.0, clock=FakeClock())
        ctrl.admit("anyone", queued=0)
        with pytest.raises(OverloadedError):
            ctrl.admit("anyone", queued=0)

    def test_counters_and_snapshot(self):
        ctrl = AdmissionController(max_queued=4, clock=FakeClock())
        ctrl.admit("t", queued=0)
        with pytest.raises(OverloadedError):
            ctrl.admit("t", priority="batch", queued=2)
        snap = ctrl.snapshot()
        assert snap["counters"]["admitted"] == 1
        assert snap["counters"]["rejected"] == 1
        assert snap["counters"]["shed_batch"] == 1
        assert snap["max_queued"] == 4
        assert snap["brownout"] is False


# -- brownout ------------------------------------------------------------------


class TestBrownout:
    def _controller(self, **kwargs):
        clock = FakeClock()
        tracer = Tracer()
        ctrl = AdmissionController(
            max_queued=10, brownout_high=4.0, brownout_low=1.0,
            clock=clock, tracer=tracer, **kwargs)
        return ctrl, clock, tracer

    @staticmethod
    def _transitions(tracer):
        """Brownout enters (True) and exits (False), in trace order."""
        return [e.name == "brownout:enter" for e in tracer.events
                if e.name in ("brownout:enter", "brownout:exit")]

    def _sustain(self, ctrl, clock, depth, seconds=30.0, step=0.5):
        for _ in range(int(seconds / step)):
            clock.tick(step)
            ctrl.observe(depth)

    def test_single_burst_does_not_trip(self):
        ctrl, clock, tracer = self._controller()
        ctrl.observe(9)                    # one spike, no sustain
        assert not ctrl.brownout
        assert self._transitions(tracer) == []

    def test_sustained_overload_enters_and_recovers(self):
        ctrl, clock, tracer = self._controller()
        self._sustain(ctrl, clock, depth=9)
        assert ctrl.brownout
        assert self._transitions(tracer) == [True]
        self._sustain(ctrl, clock, depth=0, seconds=60.0)
        assert not ctrl.brownout
        assert self._transitions(tracer) == [True, False]
        names = [e.name for e in tracer.events if e.kind == "instant"]
        assert names == ["brownout:enter", "brownout:exit"]
        snap = ctrl.snapshot()
        assert snap["counters"]["brownout_enters"] == 1
        assert snap["counters"]["brownout_exits"] == 1

    def test_hysteresis_no_flapping_between_watermarks(self):
        """Depth between low and high must not toggle the mode."""
        ctrl, clock, tracer = self._controller()
        self._sustain(ctrl, clock, depth=9)
        assert self._transitions(tracer) == [True]
        self._sustain(ctrl, clock, depth=2, seconds=120.0)  # 1 < 2 < 4
        assert ctrl.brownout
        assert self._transitions(tracer) == [True]

    def test_defaults_derive_from_max_queued(self):
        ctrl = AdmissionController(max_queued=100, clock=FakeClock())
        assert ctrl.brownout_high == pytest.approx(75.0)
        assert ctrl.brownout_low == pytest.approx(37.5)


class TestBrownoutService:
    """Brownout wired through the service: -O0 rerouting."""

    def _browned_out_service(self):
        svc = CompileService(ServiceConfig(
            slots=1, max_queued=100, brownout_high=0.5,
            brownout_low=0.1))
        # Force the EWMA over the (tiny) high watermark.
        for _ in range(100):
            svc.admission.observe(50)
            svc.admission._ewma_at -= 1.0  # simulate elapsed time
        assert svc.admission.brownout
        return svc

    def test_brownout_routes_oneshot_to_o0(self):
        with self._browned_out_service() as svc:
            outcome = svc.compile(CompileRequest(
                app=APP, flow="o1", effort=EFFORT), timeout=300)
            assert outcome.brownout
            # The -O0 flow maps every operator to the softcore overlay;
            # no pages are recompiled, which is the whole point.
            assert "PLD -O0" in outcome.build.describe()

    def test_normal_mode_does_not_reroute(self):
        with CompileService(ServiceConfig(slots=1)) as svc:
            outcome = svc.compile(CompileRequest(
                app=APP, flow="o0", effort=EFFORT), timeout=300)
            assert not outcome.brownout


# -- the deterministic flood (acceptance scenario) ----------------------------


class TestFloodShedding:
    def test_batch_sheds_while_admitted_deadline_completes(self):
        """With ``max_queued`` exceeded, batch-class submits shed with
        ``kind="overloaded"`` + ``retry_after`` while every admitted
        deadline-class request still completes."""
        from repro.faults import FaultPlan

        plan = FaultPlan(11, overload_bursts=2, overload_burst_size=10,
                         overload_deadline_fraction=0.3)
        injector = plan.overload_faults()
        svc = CompileService(ServiceConfig(slots=1, max_queued=3))
        deadline_tickets = []
        shed = []
        try:
            for b in range(plan.overload_bursts):
                for i, (tenant, priority, _cost) in \
                        enumerate(injector.burst(b)):
                    req = CompileRequest(
                        app=APP, flow="o0", effort=EFFORT,
                        tenant=tenant,
                        priority=priority
                        if priority != "deadline" else "interactive",
                        deadline=120.0
                        if priority == "deadline" else None)
                    try:
                        ticket = svc.submit(req)
                    except OverloadedError as exc:
                        assert exc.kind == "overloaded"
                        assert exc.retry_after > 0
                        injector.record_shed(tenant, exc.reason, b, i)
                        shed.append(priority)
                        continue
                    injector.record_admitted(tenant, b, i)
                    if priority == "deadline":
                        deadline_tickets.append(ticket)
            assert injector.shed > 0
            assert deadline_tickets, "flood admitted no deadline work"
            # Batch is shed preferentially: it never survives deeper
            # into the queue than the batch watermark allows.
            assert "batch" in shed
            for ticket in deadline_tickets:
                outcome = svc.result(ticket, timeout=300)
                assert outcome.ticket == ticket
            # The chaos log records the overload domain.
            events = plan.events("overload")
            assert len(events) == injector.shed
            assert all(e.kind.startswith("shed:") for e in events)
        finally:
            svc.close()

    def test_flood_is_deterministic(self):
        from repro.faults import FaultPlan

        def run(seed):
            plan = FaultPlan(seed, overload_bursts=3,
                             overload_burst_size=16,
                             overload_tenants=("a", "b", "c"),
                             overload_deadline_fraction=0.25)
            return plan.overload_faults().bursts()

        assert run(5) == run(5)
        assert run(5) != run(6)
        flat = [r for burst in run(5) for r in burst]
        classes = {priority for _, priority, _ in flat}
        assert classes == {"batch", "interactive", "deadline"}
        assert all(1 <= cost <= 2 for _, _, cost in flat)


# -- shedding preserves the PR 7 invariants (satellite) -----------------------


TENANTS = ["a", "b", "c", "d"]

submit_st = st.tuples(
    st.integers(min_value=0, max_value=len(TENANTS) - 1),
    st.sampled_from(sorted(PRIORITY_CLASSES)),
    st.integers(min_value=1, max_value=3),
)


class TestSheddingPreservesInvariants:
    @given(submits=st.lists(submit_st, min_size=1, max_size=60),
           max_queued=st.integers(min_value=2, max_value=8),
           quota=st.integers(min_value=1, max_value=2))
    @settings(max_examples=50, deadline=None)
    def test_admitted_deadline_completes_and_quotas_hold(
            self, submits, max_queued, quota):
        """Under adversarial flood + shed: every *admitted* request is
        eventually acquired (deadline class included), and per-tenant
        quotas hold at every instant — admission control composes with
        the scheduler, it does not corrupt it."""
        clock = FakeClock()
        ctrl = AdmissionController(max_queued=max_queued, clock=clock)
        sched = RequestScheduler(total_workers=4, quotas={"a": quota})
        admitted = []
        deadline_admitted = []
        for t, prio, cost in submits:
            tenant = TENANTS[t]
            if tenant == "a":
                # A request costlier than its tenant's quota can never
                # run (pre-existing scheduler semantics, not a shed
                # property) — keep the flood satisfiable.
                cost = min(cost, quota)
            queued, per_tenant = sched.queued_counts()
            try:
                ctrl.admit(tenant, priority=prio, queued=queued,
                           queued_tenant=per_tenant.get(tenant, 0))
            except OverloadedError:
                continue
            entry = sched.submit(
                tenant, cost=cost, priority=prio,
                deadline_at=clock() if prio == "deadline" else None)
            admitted.append(entry)
            if prio == "deadline":
                deadline_admitted.append(entry)
            clock.tick(0.01)
        # Depth after admission never exceeds the configured bound.
        queued, _ = sched.queued_counts()
        assert queued <= max_queued
        acquired, running = [], []
        for _round in range(40 * max(1, len(admitted)) + 40):
            entry = sched.acquire()
            if entry is None:
                if not running:
                    break
                sched.release(running.pop(0).seq)
                continue
            acquired.append(entry.seq)
            running.append(entry)
            stats = sched.stats()
            assert stats["in_use"].get("a", 0) <= quota
            assert stats["busy_workers"] <= 4
            if len(running) >= 2:
                sched.release(running.pop(0).seq)
        while running:
            sched.release(running.pop(0).seq)
        assert sorted(acquired) == sorted(e.seq for e in admitted)
        for entry in deadline_admitted:
            assert entry.seq in acquired


# -- ticket GC (satellite: the _tickets leak) ---------------------------------


class _NoopFlowService(CompileService):
    """CompileService with the execution stubbed out: tickets flow
    through submit → run → result instantly, so GC behaviour is
    testable without compiling anything."""

    def _execute(self, ticket):
        from repro.service.core import RequestOutcome
        return RequestOutcome(ticket=ticket.id, kind="compile",
                              tenant=ticket.request.tenant)


class TestTicketGC:
    @staticmethod
    def _service(monkeypatch, cap=float("inf"), ttl=float("inf")):
        """A service under the given GC constants (``MAX_TICKETS``,
        ``TICKET_TTL_SECONDS``); an infinite one turns its policy off."""
        from repro.service import core
        monkeypatch.setattr(core, "MAX_TICKETS", cap)
        monkeypatch.setattr(core, "TICKET_TTL_SECONDS", ttl)
        return _NoopFlowService(ServiceConfig(slots=1))

    def test_delivered_tickets_do_not_accumulate(self, monkeypatch):
        """The leak regression: before the GC existed, ``_tickets``
        grew by one entry per request, forever."""
        with self._service(monkeypatch, cap=16) as svc:
            for _ in range(100):
                ticket = svc.submit(CompileRequest(app=APP, flow="o0"))
                svc.result(ticket, timeout=30)
            assert len(svc._tickets) <= 17   # cap + the in-flight one
            stats = svc.scheduler.stats()
            assert stats["queued"] == 0 and stats["running"] == 0

    def test_ttl_reaps_undelivered_results(self, monkeypatch):
        """An abandoned result (client never called ``result``) still
        goes away once its TTL passes."""
        with self._service(monkeypatch, ttl=0.1) as svc:
            ticket = svc.submit(CompileRequest(app=APP, flow="o0"))
            svc.result(ticket, timeout=30)   # wait for it to finish
            deadline = time.monotonic() + 10.0
            while ticket in svc._tickets:
                time.sleep(0.15)
                svc.submit(CompileRequest(app=APP, flow="o0"))
                assert time.monotonic() < deadline, "TTL GC never ran"

    def test_queued_and_running_never_evicted(self, monkeypatch):
        release = threading.Event()
        svc = self._service(monkeypatch, cap=1)
        inner = svc._execute
        svc._execute = lambda t: (release.wait(30), inner(t))[1]
        try:
            # One running + several queued, all over the cap of 1.
            tickets = [svc.submit(CompileRequest(app=APP, flow="o0"))
                       for _ in range(5)]
            with svc._lock:
                svc._gc_tickets()
            assert all(t in svc._tickets for t in tickets)
            release.set()
            # The in-flight work still resolves; only *finished*
            # tickets are ever subject to the cap.
            assert svc.result(tickets[0], timeout=30).ticket == \
                tickets[0]
        finally:
            release.set()
            svc.close()

    def test_unknown_after_gc_raises_unknown_ticket(self, monkeypatch):
        with self._service(monkeypatch, cap=2) as svc:
            first = svc.submit(CompileRequest(app=APP, flow="o0"))
            svc.result(first, timeout=30)
            for _ in range(10):
                svc.result(svc.submit(CompileRequest(app=APP,
                                                     flow="o0")),
                           timeout=30)
            with pytest.raises(ServiceError, match="unknown ticket"):
                svc.result(first, timeout=1)


# -- drain ---------------------------------------------------------------------


class TestDrain:
    def test_draining_rejects_with_peers(self):
        svc = CompileService(ServiceConfig(
            slots=1, peers=["10.0.0.2:7411", "10.0.0.3:7411"]))
        try:
            svc.begin_drain()
            assert svc.draining
            with pytest.raises(ServiceError) as err:
                svc.submit(CompileRequest(app=APP, flow="o0"))
            assert err.value.kind == "draining"
            assert err.value.peers == ("10.0.0.2:7411", "10.0.0.3:7411")
            assert err.value.retry_after
        finally:
            svc.close()

    def test_drain_lets_running_work_finish(self):
        svc = _NoopFlowService(ServiceConfig(slots=1))
        try:
            tickets = [svc.submit(CompileRequest(app=APP, flow="o0"))
                       for _ in range(5)]
            svc.begin_drain()
            assert svc.wait_idle(timeout=30)
            for ticket in tickets:
                assert svc.result(ticket, timeout=1).ticket == ticket
        finally:
            svc.close()

    def test_wait_idle_times_out_while_busy(self):
        svc = CompileService(ServiceConfig(slots=1))
        release = threading.Event()
        svc._execute = lambda ticket: release.wait(30) or (_ for _ in
                                                           ()).throw(
            ServiceError("stop"))
        try:
            svc.submit(CompileRequest(app=APP, flow="o0"))
            assert not svc.wait_idle(timeout=0.3)
        finally:
            release.set()
            svc.close()

    def test_stats_reports_draining_and_admission(self):
        with CompileService(ServiceConfig(slots=1,
                                          max_queued=8)) as svc:
            stats = svc.stats()
            assert stats["draining"] is False
            assert stats["admission"]["max_queued"] == 8
            svc.begin_drain()
            assert svc.stats()["draining"] is True


# -- client backoff ------------------------------------------------------------


class TestClientBackoff:
    def _client(self, failures, retry_after=0.4):
        """A ServiceClient whose transport is stubbed: the first
        ``failures`` submits answer overloaded, then one succeeds."""
        from repro.service.client import ServiceClient

        sleeps = []
        client = ServiceClient(rng=random.Random(7),
                               sleep=sleeps.append)
        state = {"left": failures}

        def fake_call(header, timeout=None):
            if state["left"] > 0:
                state["left"] -= 1
                raise OverloadedError("queue full",
                                      retry_after=retry_after,
                                      reason="queue-full")
            return {"ok": True, "ticket": "t0042"}, b""

        client.call = fake_call
        return client, sleeps

    def test_honors_retry_after_with_jitter(self):
        client, sleeps = self._client(failures=2, retry_after=0.4)
        assert client.submit(APP, wait=60.0) == "t0042"
        assert client.retries == 2
        assert len(sleeps) == 2
        for delay in sleeps:
            # hint <= delay <= 2 * hint: full hint plus jittered hint.
            assert 0.4 <= delay <= 0.8

    def test_jitter_is_deterministic_under_seeded_rng(self):
        first = self._client(failures=2)
        second = self._client(failures=2)
        first[0].submit(APP, wait=60.0)
        second[0].submit(APP, wait=60.0)
        assert first[1] == second[1]

    def test_budget_exhaustion_reraises(self):
        client, sleeps = self._client(failures=100, retry_after=1.0)
        with pytest.raises(OverloadedError):
            client.submit(APP, wait=3.0)
        assert sum(sleeps) <= 3.0

    def test_no_wait_raises_immediately(self):
        client, sleeps = self._client(failures=1)
        with pytest.raises(OverloadedError):
            client.submit(APP)
        assert sleeps == []

    def test_wait_true_uses_default_budget(self):
        from repro.service.client import DEFAULT_SUBMIT_WAIT
        client, sleeps = self._client(failures=1, retry_after=0.1)
        assert client.submit(APP, wait=True) == "t0042"
        assert sum(sleeps) < DEFAULT_SUBMIT_WAIT

    def test_non_overload_errors_do_not_retry(self):
        from repro.service.client import ServiceClient

        client = ServiceClient(sleep=lambda _s: pytest.fail(
            "must not sleep on a non-overload error"))

        def fake_call(header, timeout=None):
            raise ServiceError("bad app", kind="bad-request")

        client.call = fake_call
        with pytest.raises(ServiceError, match="bad app"):
            client.submit(APP, wait=60.0)
