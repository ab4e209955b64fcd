"""The compile-service core: one session manager behind every frontend.

Before this package existed, ``repro/cli.py`` wired flows, engines,
stores, journals and tracers together inline, once per invocation.
:class:`CompileService` owns that orchestration instead, so the CLI
(in-process) and the ``pld serve`` daemon (over TCP) are thin frontends
over the same layer:

* **submit/status/result** — ``submit`` rejects a malformed request
  (``kind="bad-request"``) before admission control counts it or a
  ticket number is taken; an admitted request enters a fair-share
  :class:`~repro.service.scheduler.RequestScheduler` (per-tenant
  quotas, priority/deadline classes) and runs on one of ``slots``
  long-lived request workers; ``result`` blocks until done and
  re-raises the request's failure exactly as an inline call would.
  One lock guards the tickets, the scheduler and the admission
  controller; the latter two are plain data structures.
* **Named, leased sessions** — a request naming ``session=`` gets a
  long-lived :class:`~repro.core.IncrementalSession` whose journal
  lives in its own ``sessions/<name>/`` directory next to a
  ``lease.json``.  A killed daemon restarts, finds the lease with an
  interrupted journal, and the next compile into that session resumes
  bit-identically (content keys make correctness; the journal makes
  the bookkeeping).  The lease protocol (claim, publish, adopt, fence,
  release) is :class:`~repro.service.lease.SessionLeases`.
* **Cross-tenant dedup** — every session and request shares one
  content-addressed store, so two tenants compiling the same operator
  pay once; the second request's steps are store hits, reported as a
  dedup ratio per request and aggregated per tenant.
* **Shared engine workers** — with ``workers > 1`` the service owns a
  single :class:`~repro.core.build.WorkerPool` that every request's
  and session's ``BuildEngine(workers=N)`` borrows, so concurrent
  requests multiplex one set of engine workers (what the scheduler's
  quotas meter); a worker crash that breaks it gets it replaced, not
  abandoned.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServiceError
from repro.core import BuildEngine, IncrementalSession, touch_spec
from repro.core.build import WorkerPool
from repro.core.flows import FLOWS
from repro.resilience import Deadline
from repro.service.lease import Lease, SessionLeases
from repro.service.overload import AdmissionController
from repro.service.scheduler import PRIORITY_CLASSES, RequestScheduler
from repro.trace import NULL_TRACER

#: Finished-ticket GC: evict tickets this many seconds after they
#: finish, delivered or not.
TICKET_TTL_SECONDS = 900.0
#: Finished-ticket GC: hard cap on retained tickets (delivered results
#: evict first; queued and running tickets never).
MAX_TICKETS = 4096


@dataclass
class CompileRequest:
    """One unit of work for the service (a compile or a session edit)."""

    app: str
    flow: str = "o1"
    effort: float = 0.3
    tenant: str = "default"
    #: Named leased session; None is a one-shot request.
    session: Optional[str] = None
    priority: str = "interactive"
    #: Wall-clock budget in seconds (also promotes the request into
    #: the ``deadline`` scheduling class).
    deadline: Optional[float] = None
    #: Engine workers this request claims against its tenant's quota.
    cost: int = 1
    resume: bool = False
    seed: int = 1
    #: When set, the request is an *edit*: touch this operator in the
    #: named session and recompile incrementally ("first-hw" picks the
    #: first hardware operator).
    edit_operator: Optional[str] = None
    edit_tag: str = "edit"
    # Crash-injection hooks (the resume smoke tests; undocumented).
    crash_at_step: Optional[int] = None
    crash_point: str = "mid"


@dataclass
class RequestOutcome:
    """What one finished request produced."""

    ticket: str
    kind: str                     # "compile" | "edit"
    build: Any = None             # FlowBuild
    edit: Any = None              # EditResult for edit requests
    #: Cache-dedup accounting for this request's compile: total steps,
    #: store hits, overall ratio, and the impl-step ratio the
    #: acceptance gate watches.
    dedup: Dict[str, float] = field(default_factory=dict)
    resumed: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    tenant: str = "default"
    session: Optional[str] = None
    #: True when brownout rerouted this compile to the -O0 path.
    brownout: bool = False


def dedup_summary(record) -> Dict[str, float]:
    """Cache-dedup ratios from one engine invocation's BuildRecord."""
    steps = len(record.keys)
    built = len(record.built)
    hits = max(0, steps - built)
    impl = [name for name in record.keys if name.startswith("impl:")]
    impl_built = [name for name in record.built
                  if name.startswith("impl:")]
    return {
        "steps": steps,
        "hits": hits,
        "ratio": (hits / steps) if steps else 1.0,
        "impl_steps": len(impl),
        "impl_hits": len(impl) - len(impl_built),
        "impl_ratio": (1.0 - len(impl_built) / len(impl))
        if impl else 1.0,
    }


class Ticket:
    """Internal per-request record (the public handle is its id)."""

    def __init__(self, ticket_id: str, request: CompileRequest):
        self.id = ticket_id
        self.request = request
        #: The scheduler entry's seq, set once the ticket is queued.
        self.sched_seq: Optional[int] = None
        self.state = "queued"        # queued|running|done|failed
        self.outcome: Optional[RequestOutcome] = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: Set once result() handed the outcome to a caller — such
        #: tickets are the first the GC evicts under count pressure.
        self.delivered = False
        #: Brownout rerouted this request's flow to -O0 at submit.
        self.brownout = False


@dataclass
class ServiceConfig:
    """How a :class:`CompileService` is wired.

    Every service has one store (``cache_dir``, fronted by a shard
    fleet when ``store_urls`` is set) shared by all its requests and
    sessions, and with ``workers > 1`` one process pool all their
    engines borrow.  The store root's journal records one build at a
    time, so a one-shot build journals there — and ``pld compile
    --resume`` can replay it — only when ``slots`` is 1 (every CLI
    verb); a multi-slot daemon journals leased sessions only, each in
    its own directory.
    """

    cache_dir: Optional[str] = None
    store_urls: Optional[str] = None
    workers: Optional[int] = None
    #: Concurrent requests the scheduler may run (the worker pool the
    #: per-tenant quotas meter).  CLI frontends keep the default 1.
    slots: int = 1
    quotas: Dict[str, int] = field(default_factory=dict)
    default_quota: Optional[int] = None
    tracer: Any = None
    #: Human-facing progress notes (the CLI passes ``print``).
    notify: Optional[Callable[[str], None]] = None
    #: Stable identity for lease-epoch fencing across daemons sharing
    #: a store fleet; defaults to ``host:pid``.
    daemon_id: Optional[str] = None
    # -- overload protection (all off by default: None = unbounded,
    # -- the pre-admission-control behaviour) --------------------------
    #: Global bound on queued (not yet running) requests.
    max_queued: Optional[int] = None
    #: Per-tenant bound on queued requests.
    max_queued_per_tenant: Optional[int] = None
    #: Per-tenant token-bucket rates, requests/second (``--rate``).
    rates: Dict[str, float] = field(default_factory=dict)
    #: Rate for tenants without an explicit entry (None = unlimited).
    default_rate: Optional[float] = None
    #: Queue-depth EWMA watermarks for brownout enter/exit; defaults
    #: derive from ``max_queued`` (see :mod:`repro.service.overload`).
    brownout_high: Optional[float] = None
    brownout_low: Optional[float] = None
    #: Peer daemon addresses suggested to clients on drain rejections.
    peers: List[str] = field(default_factory=list)


class _SessionState:
    """A leased session held open by the service."""

    def __init__(self, session: IncrementalSession, lease: Lease):
        self.session = session
        self.lease = lease
        self.lock = threading.Lock()


class CompileService:
    """The session manager the CLI and the daemon both talk to."""

    def __init__(self, config: Optional[ServiceConfig] = None, **kwargs):
        self.config = config if config is not None \
            else ServiceConfig(**kwargs)
        self.tracer = self.config.tracer \
            if self.config.tracer is not None else NULL_TRACER
        from repro.store import ArtifactStore
        local = ArtifactStore(cache_dir=self.config.cache_dir)
        #: The shard fleet's client (over ``local``), or None.
        self.fleet = None
        if self.config.store_urls:
            from repro.store.remote import ShardedStoreClient
            self.fleet = ShardedStoreClient(
                self.config.store_urls, fallback=local, tracer=self.tracer)
        #: The store all requests and sessions share (cross-tenant dedup).
        self.store = self.fleet if self.fleet is not None else local
        self.leases = SessionLeases(
            self.config.cache_dir, self.fleet,
            self.config.daemon_id
            or f"{socket.gethostname()}:{os.getpid()}", self._notify)
        self.scheduler = RequestScheduler(
            total_workers=max(1, self.config.slots),
            default_quota=self.config.default_quota,
            quotas=self.config.quotas)
        self.admission = AdmissionController(
            max_queued=self.config.max_queued,
            max_queued_per_tenant=self.config.max_queued_per_tenant,
            rates=self.config.rates,
            default_rate=self.config.default_rate,
            slots=max(1, self.config.slots),
            brownout_high=self.config.brownout_high,
            brownout_low=self.config.brownout_low,
            tracer=self.tracer)
        self.peers: List[str] = list(self.config.peers)
        self._pool = WorkerPool(self.config.workers) \
            if (self.config.workers or 1) > 1 else None
        #: The one lock: it guards the scheduler, the admission
        #: controller and every field below.  ``_wake`` is signalled on
        #: every submit, release and close.
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._tickets: Dict[str, Ticket] = {}
        self._sessions: Dict[str, _SessionState] = {}
        self._tenant_totals: Dict[str, Dict[str, float]] = {}
        self._counter = 0
        self._draining = False
        self._closed = False
        # Each request costs at least one slot, so ``slots`` workers
        # are enough to fill the scheduler's pool.
        self._workers = [
            threading.Thread(target=self._work, args=(n,),
                             name=f"pld-worker-{n}", daemon=True)
            for n in range(max(1, self.config.slots))]
        for worker in self._workers:
            worker.start()

    # -- wiring (the orchestration that used to live in cli.py) -------------

    def _notify(self, message: str) -> None:
        if self.config.notify is not None:
            self.config.notify(message)

    def _engine(self, journal=None, deadline=None,
                crash_plan=None) -> BuildEngine:
        """An engine over the service store that borrows the service
        pool; closing it closes neither."""
        return BuildEngine(
            cache=self.store, tracer=self.tracer, journal=journal,
            deadline=deadline, crash_plan=crash_plan, owns_cache=False,
            workers=self.config.workers or 1, pool=self._pool)

    def build_engine(self, request: Optional[CompileRequest] = None
                     ) -> BuildEngine:
        """One request's engine: journal, deadline, crash plan.

        A one-slot service journals the build at the store root, so
        ``--resume`` can replay it; with more slots, concurrent
        one-shot builds would interleave in that one journal, so they
        run unjournaled (leased sessions journal in their own
        directories).
        """
        req = request if request is not None else CompileRequest(app="")
        journal = None
        if self.config.cache_dir and self.config.slots <= 1:
            from repro.resilience import BuildJournal
            journal = BuildJournal(self.config.cache_dir,
                                   resume=bool(req.resume))
            if journal.resuming and journal.interrupted:
                self._notify(
                    f"resuming interrupted build: "
                    f"{len(journal.completed)} journaled step(s) "
                    f"already banked in {self.config.cache_dir}")
        deadline = None
        if req.deadline is not None:
            deadline = Deadline(req.deadline)
        crash_plan = None
        if req.crash_at_step is not None:
            from repro.faults import CrashPlan
            crash_plan = CrashPlan(req.crash_at_step,
                                   point=req.crash_point,
                                   mode="sigkill")
        return self._engine(journal=journal, deadline=deadline,
                            crash_plan=crash_plan)

    def open_session(self, effort: float = 0.3) -> IncrementalSession:
        """An :class:`IncrementalSession` over the service store,
        journaled at ``cache_dir`` (the ``pld edit`` path)."""
        return IncrementalSession(store=self.store, effort=effort,
                                  tracer=self.tracer,
                                  engine=self._engine())

    # -- leased sessions -----------------------------------------------------

    def interrupted_sessions(self) -> List[str]:
        """Leased sessions whose journal shows a build that began but
        never ended — what a killed daemon left behind.  The next
        compile submitted into such a session resumes automatically."""
        return self.leases.interrupted()

    def _session_state(self, req: CompileRequest) -> _SessionState:
        name = req.session
        with self._lock:
            state = self._sessions.get(name)
            if state is not None:
                return state
        lease, resume = self.leases.open(
            name, tenant=req.tenant, app=req.app, effort=req.effort)
        session = IncrementalSession(
            store=self.store, effort=req.effort, seed=req.seed,
            tracer=self.tracer, resume=resume,
            journal_dir=lease.directory, engine=self._engine())
        state = _SessionState(session, lease)
        with self._lock:
            clash = self._sessions.get(name)
            if clash is not None:
                session.close()
                return clash
            self._sessions[name] = state
        self.leases.save(lease, "idle")
        if session.journal is not None:
            # Republish on every journal append: the pre-build publish
            # alone would leave the fleet with a journal from *before*
            # any step ran, so a daemon SIGKILLed mid-build would hand
            # its adopter nothing to resume.
            session.journal.publish = lambda: self.leases.publish(lease)
        return state

    # -- the request lifecycle ----------------------------------------------

    def _reject_bad_request(self, request: CompileRequest) -> None:
        """The submit-time gate: every check that needs only the
        request.  (An unknown *app* still fails when the request runs.)"""
        session = request.session
        if request.flow not in FLOWS:
            problem = (f"unknown flow {request.flow!r}; choose from "
                       f"{sorted(FLOWS)}")
        elif request.priority not in PRIORITY_CLASSES:
            problem = (f"unknown priority class {request.priority!r}; "
                       f"choose from {sorted(PRIORITY_CLASSES)}")
        elif session is not None and (not session or "/" in session
                                      or session.startswith(".")):
            problem = f"bad session name {session!r}"
        elif session is not None and request.flow != "o1":
            problem = (f"leased sessions compile with the o1 flow, not "
                       f"{request.flow!r}")
        elif session is None and request.edit_operator is not None:
            problem = (f"edit_operator {request.edit_operator!r} needs "
                       f"a session")
        else:
            return
        raise ServiceError(problem, kind="bad-request")

    def draining_error(self) -> ServiceError:
        """What a draining service answers every submit with."""
        return ServiceError("daemon is draining; resubmit to a peer",
                            kind="draining", retry_after=1.0,
                            peers=tuple(self.peers))

    def submit(self, request: CompileRequest) -> str:
        """Enqueue a request; returns its ticket id immediately.

        Under the one lock, in order: a closed service rejects
        (``kind="closed"``), a draining one too (``kind="draining"``,
        plus peer hints), then a malformed request
        (``kind="bad-request"``), all before admission control counts
        anything or a ticket number is taken.  Admission bounds queue
        depths, rate-limits tenants and sheds by class, raising
        :class:`~repro.errors.OverloadedError` with a ``retry_after``
        drain estimate.  During brownout, new one-shot compiles reroute
        to the -O0 degradation path (seconds of work, not minutes).
        """
        deadline_at = None
        if request.deadline is not None:
            deadline_at = time.monotonic() + float(request.deadline)
        # A deadline promotes the request into the deadline scheduling
        # class (scheduler behaviour); shed decisions must agree.
        shed_class = "deadline" if deadline_at is not None \
            else request.priority
        brownout = False
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down", kind="closed")
            if self._draining:
                raise self.draining_error()
            self._reject_bad_request(request)
            queued, per_tenant = self.scheduler.queued_counts()
            self.admission.admit(
                request.tenant, priority=shed_class, queued=queued,
                queued_tenant=per_tenant.get(request.tenant, 0))
            if self.admission.brownout and request.session is None \
                    and request.flow in ("o1", "o3"):
                request = replace(request, flow="o0")
                brownout = True
                self.admission.note_routed()
            self._counter += 1
            ticket = Ticket(f"t{self._counter:04d}", request)
            ticket.brownout = brownout
            ticket.sched_seq = self.scheduler.submit(
                request.tenant, cost=request.cost,
                priority=request.priority, deadline_at=deadline_at,
                payload=ticket).seq
            self._tickets[ticket.id] = ticket
            self._gc_tickets()
            # All, not one: a ``wait_idle`` caller may be waiting too.
            self._wake.notify_all()
        self.tracer.instant(f"submit:{ticket.id}", category="service",
                            lane=f"tenant:{request.tenant}",
                            app=request.app, flow=request.flow,
                            session=request.session or "",
                            brownout=brownout)
        return ticket.id

    def _gc_tickets(self) -> None:
        """Evict finished tickets so the registry stays bounded (the
        caller holds the lock).

        Two policies compose: a TTL on finished tickets (an abandoned
        result eventually goes away even if nobody collects it) and a
        hard count cap, under which delivered results evict first,
        then oldest-finished.  Queued/running tickets never evict.
        """
        now = time.monotonic()
        finished = [t for t in self._tickets.values()
                    if t.finished is not None]
        doomed = [t for t in finished
                  if now - t.finished >= TICKET_TTL_SECONDS]
        excess = len(self._tickets) - len(doomed) - MAX_TICKETS
        if excess > 0:
            doomed_ids = {t.id for t in doomed}
            spare = [t for t in finished if t.id not in doomed_ids]
            spare.sort(key=lambda t: (not t.delivered, t.finished))
            doomed.extend(spare[:excess])
        for t in doomed:
            self._tickets.pop(t.id, None)

    def _ticket(self, ticket_id: str) -> Ticket:
        """The live ticket (the caller holds the lock)."""
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise ServiceError(f"unknown ticket {ticket_id!r}",
                               kind="unknown-ticket")
        return ticket

    def status(self, ticket_id: str) -> Dict[str, Any]:
        with self._lock:
            ticket = self._ticket(ticket_id)
            return {
                "ticket": ticket.id,
                "state": ticket.state,
                "position": self.scheduler.queue_position(
                    ticket.sched_seq),
                "tenant": ticket.request.tenant,
                "app": ticket.request.app,
                "flow": ticket.request.flow,
                "session": ticket.request.session,
            }

    def wait(self, ticket_id: str, timeout: Optional[float] = None
             ) -> bool:
        """Block until the request finishes (True) or ``timeout``
        seconds pass (False).  Unlike :meth:`result` it neither raises
        the request's failure nor marks its result delivered — the
        daemon's ``result`` waiter slices its wait with it."""
        with self._lock:
            ticket = self._ticket(ticket_id)
        return ticket.done.wait(timeout)

    def result(self, ticket_id: str,
               timeout: Optional[float] = None) -> RequestOutcome:
        """Block until the request finishes; re-raise its failure."""
        with self._lock:
            ticket = self._ticket(ticket_id)
        if not ticket.done.wait(timeout):
            raise ServiceError(
                f"request {ticket_id} still {ticket.state} after "
                f"{timeout:g}s", kind="timeout")
        with self._lock:
            ticket.delivered = True
            self._gc_tickets()
        if ticket.error is not None:
            raise ticket.error
        assert ticket.outcome is not None
        return ticket.outcome

    def compile(self, request: CompileRequest,
                timeout: Optional[float] = None) -> RequestOutcome:
        """Submit + result: the synchronous frontend the CLI uses."""
        return self.result(self.submit(request), timeout=timeout)

    # -- the request workers --------------------------------------------------

    def _work(self, n: int) -> None:
        """One of the ``slots`` request workers.

        It picks the next eligible request and waits on ``_wake``
        inside one hold of the lock, so no submit or release can
        notify between an empty ``acquire`` and the wait.  While it
        runs a request the thread is named ``pld-request-<ticket>``.
        """
        thread = threading.current_thread()
        while True:
            with self._lock:
                while not self._closed:
                    entry = self.scheduler.acquire()
                    if entry is not None:
                        break
                    self._wake.wait()
                else:
                    return
                ticket = entry.payload
                ticket.state = "running"
                ticket.started = time.monotonic()
            thread.name = f"pld-request-{ticket.id}"
            try:
                ticket.outcome = self._execute(ticket)
            except BaseException as exc:  # noqa: B036 — re-raised in result()
                ticket.error = exc
            thread.name = f"pld-worker-{n}"
            with self._lock:
                ticket.state = "failed" if ticket.error is not None \
                    else "done"
                ticket.finished = time.monotonic()
                self.scheduler.release(entry.seq)
                self.admission.note_done(ticket.finished - ticket.started)
                # Feed the post-release queue depth to the brownout
                # EWMA so it decays — and brownout exits — as the
                # backlog drains.
                self.admission.observe(self.scheduler.queued_counts()[0])
                self._wake.notify_all()
                ticket.done.set()

    # -- execution -----------------------------------------------------------

    def _app(self, name: str):
        from repro.rosetta import get_app
        return get_app(name)

    def _execute(self, ticket: Ticket) -> RequestOutcome:
        req = ticket.request
        start = time.perf_counter()
        with self.tracer.span(f"request:{ticket.id}",
                              category="service",
                              lane=f"tenant:{req.tenant}",
                              tenant=req.tenant, app=req.app,
                              flow=req.flow,
                              session=req.session or ""):
            if req.session is not None:
                outcome = self._execute_session(ticket)
            else:
                outcome = self._execute_oneshot(ticket)
        outcome.wall_seconds = time.perf_counter() - start
        outcome.brownout = ticket.brownout
        self._charge(req.tenant, outcome)
        return outcome

    def _charge(self, tenant: str, outcome: RequestOutcome) -> None:
        with self._lock:
            totals = self._tenant_totals.setdefault(
                tenant, {"requests": 0, "steps": 0, "hits": 0})
            totals["requests"] += 1
            totals["steps"] += outcome.dedup.get("steps", 0)
            totals["hits"] += outcome.dedup.get("hits", 0)

    def _execute_oneshot(self, ticket: Ticket) -> RequestOutcome:
        req = ticket.request
        app = self._app(req.app)
        engine = self.build_engine(req)
        journal = engine.journal
        try:
            if journal is not None:
                journal.begin_build(req.flow, req.app)
            flow = FLOWS[req.flow](effort=req.effort, seed=req.seed)
            build = flow.compile(app.project, engine)
            if journal is not None:
                journal.end_build()
        finally:
            engine.close()
            if journal is not None:
                journal.close()
        return RequestOutcome(
            ticket=ticket.id, kind="compile", build=build,
            dedup=dedup_summary(engine.record),
            resumed=list(build.resumed), tenant=req.tenant)

    def _execute_session(self, ticket: Ticket) -> RequestOutcome:
        req = ticket.request
        app = self._app(req.app)
        state = self._session_state(req)
        lease = state.lease
        try:
            self.leases.check(lease)
        except ServiceError:
            # A peer adopted the session: evict it here, so a later
            # submit re-adopts at a higher epoch.
            with self._lock:
                if self._sessions.get(lease.name) is state:
                    del self._sessions[lease.name]
            with state.lock:
                state.session.close()
            raise
        with state.lock:
            lease.tenant, lease.app, lease.effort = \
                req.tenant, req.app, req.effort
            self.leases.save(lease, "active")
            try:
                engine = state.session.engine
                engine.deadline = Deadline(req.deadline) \
                    if req.deadline is not None else None
                if req.crash_at_step is not None:
                    # The crash-resume tests: SIGKILL this daemon at
                    # the Nth cache-miss step of the session's next
                    # compile.
                    from repro.faults import CrashPlan
                    engine.crash_plan = CrashPlan(
                        req.crash_at_step, point=req.crash_point,
                        mode="sigkill")
                if req.edit_operator is not None:
                    outcome = self._session_edit(ticket, state, app)
                else:
                    build = state.session.compile(app.project)
                    outcome = RequestOutcome(
                        ticket=ticket.id, kind="compile", build=build,
                        dedup=dedup_summary(engine.record),
                        resumed=list(build.resumed),
                        tenant=req.tenant, session=lease.name)
            finally:
                self.leases.save(lease, "idle")
        return outcome

    def _session_edit(self, ticket: Ticket, state: _SessionState,
                      app) -> RequestOutcome:
        req = ticket.request
        if state.session.build is None:
            raise ServiceError(
                f"session {state.lease.name!r} has no baseline build to "
                f"edit; submit a compile first", kind="bad-request")
        operator = req.edit_operator
        if operator in (None, "", "first-hw"):
            hw = [name for name, op in
                  state.session.project.graph.operators.items()
                  if op.target == "HW"]
            if not hw:
                raise ServiceError(f"{req.app} has no HW operators "
                                   f"to edit", kind="bad-request")
            operator = hw[0]
        op = state.session.project.graph.operators.get(operator)
        if op is None:
            raise ServiceError(f"no operator {operator!r} in "
                               f"session {state.lease.name!r}",
                               kind="bad-request")
        result = state.session.apply_edit(
            operator, touch_spec(op.hls_spec, tag=req.edit_tag),
            op.sample_spec)
        state.lease.edits += 1
        return RequestOutcome(
            ticket=ticket.id, kind="edit", build=result.build,
            edit=result,
            dedup=dedup_summary(state.session.engine.record),
            resumed=list(result.build.resumed),
            tenant=req.tenant, session=state.lease.name)

    # -- overload / drain -----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Flip to draining: new submits reject with ``kind="draining"``
        (plus peer hints); queued and running work continues.  Pair
        with :meth:`wait_idle` then :meth:`close` for a zero-downtime
        handoff — close republishes every session lease so a peer
        adopts them."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self.tracer.instant("drain:begin", category="service",
                            lane="service")
        self._notify("draining: rejecting new submits, finishing "
                     "running builds")

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or running (True), or the
        timeout passes or the service closes (False)."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._lock:
            while not self._closed:
                s = self.scheduler.stats()
                if s["queued"] == 0 and s["running"] == 0:
                    return True
                left = None if deadline is None \
                    else deadline - time.monotonic()
                if left is not None and left <= 0:
                    return False
                self._wake.wait(left)
            return False

    def undelivered(self) -> int:
        """Finished tickets whose result no :meth:`result` call has
        fetched yet — what a draining daemon lingers for."""
        with self._lock:
            return sum(1 for t in self._tickets.values()
                       if t.finished is not None and not t.delivered)

    # -- introspection / lifecycle -------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """One consistent snapshot of the service (the daemon's
        ``stats`` and ``health`` ops both read it)."""
        with self._lock:
            stats = {
                "tickets": len(self._tickets),
                "sessions": sorted(self._sessions),
                "tenants": {t: dict(v) for t, v in
                            self._tenant_totals.items()},
                "scheduler": self.scheduler.stats(),
                "admission": self.admission.snapshot(),
                "draining": self._draining,
            }
        steps = sum(v["steps"] for v in stats["tenants"].values())
        hits = sum(v["hits"] for v in stats["tenants"].values())
        stats["dedup_ratio"] = (hits / steps) if steps else 1.0
        stats["store"] = dict(self.store.stats())
        return stats

    def close(self, timeout: float = 30.0) -> None:
        """Finish running requests, close sessions, pool and store
        (idempotent).  Requests still queued are not started: their
        tickets fail with ``kind="closed"``, so no :meth:`result`
        waits on them forever."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            now = time.monotonic()
            for entry in self.scheduler.clear_queue():
                ticket = entry.payload
                ticket.state = "failed"
                ticket.error = ServiceError(
                    f"request {ticket.id} was still queued when the "
                    f"service shut down", kind="closed")
                ticket.finished = now
                ticket.done.set()
            self._wake.notify_all()
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(timeout=max(0.1, deadline - time.monotonic()))
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions = {}
        for state in sessions:
            with state.lock:
                state.session.close()
            self.leases.release(state.lease)
        if self._pool is not None:
            self._pool.shutdown()
        if self.fleet is not None:
            self.fleet.close()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"CompileService({state}, "
                f"{len(self._tickets)} ticket(s), "
                f"{len(self._sessions)} session(s))")
