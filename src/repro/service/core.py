"""The compile-service core: one session manager behind every frontend.

Before this package existed, ``repro/cli.py`` wired flows, engines,
stores, journals and tracers together inline, once per invocation.
:class:`CompileService` owns that orchestration instead, so the CLI
(in-process) and the ``pld serve`` daemon (over TCP) are thin frontends
over the same layer:

* **submit/status/result** — requests enter a fair-share
  :class:`~repro.service.scheduler.RequestScheduler` (per-tenant
  quotas, priority/deadline classes) and run on dispatcher-managed
  worker threads; ``result`` blocks until done and re-raises the
  request's failure exactly as an inline call would.
* **Named, leased sessions** — a request naming ``session=`` gets a
  long-lived :class:`~repro.core.IncrementalSession` whose journal
  lives in its own ``sessions/<name>/`` directory next to a
  ``lease.json``.  A killed daemon restarts, finds the lease with an
  interrupted journal, and the next compile into that session resumes
  bit-identically (content keys make correctness; the journal makes
  the bookkeeping).
* **Cross-tenant dedup** — every session and request shares one
  content-addressed store, so two tenants compiling the same operator
  pay once; the second request's steps are store hits, reported as a
  dedup ratio per request and aggregated per tenant.
* **Shared engine workers** — with ``workers > 1`` the service owns a
  single process pool that every request's and session's
  ``BuildEngine(workers=N)`` borrows, so concurrent requests multiplex
  one set of engine workers (what the scheduler's quotas meter).
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServiceError, StoreError
from repro.core import BuildEngine, IncrementalSession, touch_spec
from repro.core.flows import FLOWS
from repro.service.overload import AdmissionController
from repro.service.scheduler import RequestScheduler
from repro.trace import NULL_TRACER

#: Subdirectory of the state dir holding one directory per leased
#: session (journal + lease file).
SESSIONS_DIR = "sessions"
#: Lease record inside a session directory.
LEASE_NAME = "lease.json"
#: Store-key prefix for published session metadata (lease + journal),
#: the shared-plane record another daemon adopts a session from.
SESSION_META_PREFIX = "session-meta:"


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

    def __init__(self, ticket_id: str, request: CompileRequest,
                 sched_seq: int):
        self.id = ticket_id
        self.request = request
        self.sched_seq = sched_seq
        self.state = "queued"        # queued|running|done|failed
        self.outcome: Optional[RequestOutcome] = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        #: Invoked (with the ticket) when the request finishes; the
        #: daemon registers loop.call_soon_threadsafe wakeups here so
        #: a waiting client costs an asyncio.Event, not a thread.
        self.callbacks: List[Callable[["Ticket"], None]] = []
        self.submitted = time.monotonic()
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
    #: Hedged-retry quantile for the shared store and o1 page-compile
    #: cluster; brownout disables it until the EWMA recovers.
    hedge_quantile: Optional[float] = None
    #: Peer daemon addresses suggested to clients on drain rejections.
    peers: List[str] = field(default_factory=list)
    #: Finished-ticket GC: evict tickets this long after they finish.
    ticket_ttl: Optional[float] = 900.0
    #: Finished-ticket GC: hard cap on retained tickets (delivered
    #: results evict first, queued/running never).
    max_tickets: Optional[int] = 4096


class _SessionState:
    """A leased session held open by the service."""

    def __init__(self, name: str, session: IncrementalSession,
                 directory: pathlib.Path):
        self.name = name
        self.session = session
        self.directory = directory
        self.lock = threading.Lock()
        self.tenant = ""
        self.app = ""
        self.edits = 0
        self.resumed_last = 0
        #: Fencing epoch: bumped past the published epoch every time a
        #: daemon (re)opens the session, so exactly one daemon's writes
        #: are current and a stale owner fences itself off.
        self.epoch = 0
        self.owner = ""


class CompileService:
    """The session manager the CLI and the daemon both talk to."""

    def __init__(self, config: Optional[ServiceConfig] = None, **kwargs):
        self.config = config if config is not None \
            else ServiceConfig(**kwargs)
        self.tracer = self.config.tracer \
            if self.config.tracer is not None else NULL_TRACER
        self.daemon_id = self.config.daemon_id or \
            f"{socket.gethostname()}:{os.getpid()}"
        self.store = self._build_store()
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
            on_brownout=self._on_brownout,
            tracer=self.tracer)
        self._admit_lock = threading.Lock()
        self._draining = False
        self.peers: List[str] = list(self.config.peers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._tickets: Dict[str, Ticket] = {}
        self._by_seq: Dict[int, Ticket] = {}
        self._sessions: Dict[str, _SessionState] = {}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._counter = 0
        self._closed = False
        self._stopping = False
        self._active: List[threading.Thread] = []
        self._tenant_totals: Dict[str, Dict[str, float]] = {}
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="pld-dispatch", daemon=True)
        self._dispatcher.start()

    # -- wiring (the orchestration that used to live in cli.py) -------------

    def _notify(self, message: str) -> None:
        if self.config.notify is not None:
            self.config.notify(message)

    def _build_store(self):
        """The service-owned store: every request and session shares
        it, which is where cross-tenant dedup comes from."""
        from repro.store import ArtifactStore

        if self.config.store_urls:
            from repro.store.remote import ShardedStoreClient
            fallback = ArtifactStore(cache_dir=self.config.cache_dir)
            return ShardedStoreClient(
                self.config.store_urls, fallback=fallback,
                hedge_quantile=self.config.hedge_quantile,
                tracer=self.tracer)
        return ArtifactStore(cache_dir=self.config.cache_dir)

    def _shared_pool(self) -> Optional[ProcessPoolExecutor]:
        if not self.config.workers or self.config.workers <= 1:
            return None
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.config.workers)
            return self._pool

    def _engine(self, journal=None, deadline=None,
                crash_plan=None) -> BuildEngine:
        """An engine over the service store that borrows the service
        pool; closing it closes neither."""
        return BuildEngine(
            cache=self.store, tracer=self.tracer, journal=journal,
            deadline=deadline, crash_plan=crash_plan, owns_cache=False,
            workers=self.config.workers or 1, pool=self._shared_pool())

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
            from repro.resilience import Deadline
            deadline = Deadline(req.deadline)
        crash_plan = None
        if req.crash_at_step is not None:
            from repro.faults import CrashPlan
            crash_plan = CrashPlan(req.crash_at_step,
                                   point=req.crash_point,
                                   mode="sigkill")
        return self._engine(journal=journal, deadline=deadline,
                            crash_plan=crash_plan)

    def make_flow(self, name: str, effort: float, seed: int = 1):
        try:
            cls = FLOWS[name]
        except KeyError:
            raise ServiceError(f"unknown flow {name!r}; choose from "
                               f"{sorted(FLOWS)}", kind="bad-request")
        kwargs: Dict[str, Any] = {"effort": effort, "seed": seed}
        # Hedged page-compile retries for the o1 cluster — but not
        # during brownout, when speculation is the wrong spend.
        if name in ("o0", "o1") \
                and self.config.hedge_quantile is not None \
                and not self.admission.brownout:
            from repro.core.cluster import CompileCluster
            kwargs["cluster"] = CompileCluster(
                hedge_quantile=self.config.hedge_quantile)
        return cls(**kwargs)

    def open_session(self, effort: float = 0.3) -> IncrementalSession:
        """An :class:`IncrementalSession` over the service store,
        journaled at ``cache_dir`` (the ``pld edit`` path)."""
        return IncrementalSession(store=self.store, effort=effort,
                                  tracer=self.tracer,
                                  engine=self._engine())

    # -- session leases ------------------------------------------------------

    def _sessions_root(self) -> Optional[pathlib.Path]:
        if not self.config.cache_dir:
            return None
        return pathlib.Path(self.config.cache_dir) / SESSIONS_DIR

    def _write_lease(self, directory: pathlib.Path,
                     lease: Dict[str, Any]) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / (LEASE_NAME + ".tmp")
        tmp.write_text(json.dumps(lease, sort_keys=True, indent=2))
        os.replace(tmp, directory / LEASE_NAME)

    def _read_lease(self, directory: pathlib.Path) -> Dict[str, Any]:
        try:
            return json.loads((directory / LEASE_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return {}

    # -- shared-plane session metadata (cross-daemon migration) --------------

    def _session_meta_key(self, name: str) -> str:
        return SESSION_META_PREFIX + name

    def _journal_text(self, directory: pathlib.Path) -> str:
        from repro.resilience.journal import journal_path
        try:
            return journal_path(directory).read_text()
        except OSError:
            return ""

    def _published_meta(self, name: str) -> Optional[Dict[str, Any]]:
        """The session metadata another daemon last published to the
        shard fleet, or None without a fleet / publication.  Read
        remote-first (``fresh_get``): the local hot tier would shadow
        a peer's newer epoch forever."""
        if not hasattr(self.store, "fresh_get"):
            return None
        try:
            meta = self.store.fresh_get(self._session_meta_key(name))
        except StoreError:
            return None
        return meta if isinstance(meta, dict) else None

    def _publish_session(self, state: _SessionState,
                         lease: Dict[str, Any]) -> None:
        """Push the session's lease + journal to the shared store so a
        peer daemon can adopt it.  No-op without a shard fleet; a
        quarantined shard turns this into an owed write-behind put,
        drained by the next reconcile — publication is best-effort
        bookkeeping, the content-addressed artefacts are what make a
        cross-daemon resume bit-identical."""
        if not hasattr(self.store, "fresh_get") \
                or not state.directory.name:
            return
        meta = {"lease": dict(lease),
                "journal": self._journal_text(state.directory)}
        try:
            self.store.put(self._session_meta_key(state.name), meta)
        except StoreError:
            pass

    def _adopt_session(self, name: str,
                       directory: Optional[pathlib.Path]) -> int:
        """Reconcile local lease state with the fleet's published copy
        before opening ``name``; returns the fencing epoch this daemon
        now owns.

        When a peer's published epoch exceeds the local lease's, the
        peer owned the session more recently (possibly on a different
        machine): replay its lease + journal into our session
        directory, then claim ownership by bumping past every epoch
        seen.  Two daemons racing this protocol converge on
        last-adopter-wins — the loser's next build trips
        :meth:`_check_fence`, so at most one daemon's session writes
        stay current.
        """
        local_lease = self._read_lease(directory) \
            if directory is not None else {}
        local_epoch = int(local_lease.get("epoch", 0) or 0)
        published = self._published_meta(name)
        pub_lease = published.get("lease", {}) if published else {}
        pub_epoch = int(pub_lease.get("epoch", 0) or 0)
        if directory is not None and pub_epoch > local_epoch:
            from repro.resilience.journal import journal_path
            directory.mkdir(parents=True, exist_ok=True)
            journal_path(directory).write_text(
                str(published.get("journal", "")))
            self._write_lease(directory, dict(pub_lease))
            self._notify(
                f"session {name!r}: adopted from "
                f"{pub_lease.get('owner', 'unknown daemon')} "
                f"(epoch {pub_epoch})")
        return max(local_epoch, pub_epoch) + 1

    def _check_fence(self, state: _SessionState) -> None:
        """Refuse to build into a session a peer daemon has adopted.

        A published epoch above ours means another daemon ran
        :meth:`_adopt_session` after we did; our lease is stale.  Evict
        the local session state (a later submit re-adopts at a higher
        epoch) and surface the refusal as ``kind="fenced"``.
        """
        published = self._published_meta(state.name)
        if not published:
            return
        pub_lease = published.get("lease", {})
        pub_epoch = int(pub_lease.get("epoch", 0) or 0)
        if pub_epoch <= state.epoch:
            return
        with self._lock:
            if self._sessions.get(state.name) is state:
                del self._sessions[state.name]
        with state.lock:
            state.session.close()
        raise ServiceError(
            f"session {state.name!r} adopted by "
            f"{pub_lease.get('owner', 'another daemon')} at epoch "
            f"{pub_epoch} (ours: {state.epoch}); lease fenced — "
            f"resubmit there, or resubmit here to re-adopt",
            kind="fenced")

    def interrupted_sessions(self) -> List[str]:
        """Leased sessions whose journal shows a build that began but
        never ended — what a killed daemon left behind.  The next
        compile submitted into such a session resumes automatically."""
        root = self._sessions_root()
        if root is None or not root.is_dir():
            return []
        from repro.resilience.journal import (interrupted, journal_path,
                                              load_journal)
        return [directory.name for directory in sorted(root.iterdir())
                if directory.is_dir() and interrupted(
                    load_journal(journal_path(directory))[0])]

    def _session_state(self, req: CompileRequest) -> _SessionState:
        name = str(req.session)
        if not name or "/" in name or name.startswith("."):
            raise ServiceError(f"bad session name {name!r}",
                               kind="bad-request")
        with self._lock:
            state = self._sessions.get(name)
            if state is not None:
                return state
        root = self._sessions_root()
        directory = root / name if root is not None else None
        # Adoption first: a peer daemon's published journal must land
        # on disk *before* the interrupted-build scan, so a session
        # killed mid-build on daemon A resumes on daemon B.
        epoch = self._adopt_session(name, directory)
        resume = False
        if directory is not None:
            from repro.resilience.journal import (interrupted,
                                                  journal_path,
                                                  load_journal)
            resume = interrupted(load_journal(journal_path(directory))[0])
            if resume:
                self._notify(f"session {name!r}: resuming interrupted "
                             f"build from its journal")
        session = IncrementalSession(
            store=self.store, effort=req.effort, seed=req.seed,
            tracer=self.tracer, resume=resume,
            journal_dir=directory, engine=self._engine())
        state = _SessionState(name, session,
                              directory if directory is not None
                              else pathlib.Path("."))
        state.tenant = req.tenant
        state.epoch = epoch
        state.owner = self.daemon_id
        with self._lock:
            clash = self._sessions.get(name)
            if clash is not None:
                session.close()
                return clash
            self._sessions[name] = state
        if directory is not None:
            lease = {
                "session": name, "tenant": req.tenant,
                "app": req.app, "effort": req.effort,
                "status": "idle", "pid": os.getpid(),
                "epoch": state.epoch, "owner": state.owner}
            self._write_lease(directory, lease)
            self._publish_session(state, lease)
            # Republish on every journal append: the pre-build publish
            # alone would leave the fleet with a journal from *before*
            # any step ran, so a daemon SIGKILLed mid-build would hand
            # its adopter nothing to resume.
            if session.journal is not None \
                    and hasattr(self.store, "fresh_get"):
                session.journal.publish = lambda: self._publish_session(
                    state, self._read_lease(state.directory))
        return state

    # -- the request lifecycle ----------------------------------------------

    def submit(self, request: CompileRequest) -> str:
        """Enqueue a request; returns its ticket id immediately.

        Admission control runs here, *before* the scheduler ever sees
        the request: bounded queue depths, per-tenant rate limits and
        class-aware shedding reject with
        :class:`~repro.errors.OverloadedError` (``kind="overloaded"``,
        ``retry_after`` drain estimate).  A draining service rejects
        everything with ``kind="draining"`` plus peer hints.  During
        brownout, new one-shot compiles reroute to the -O0 degradation
        path (seconds of work instead of minutes).
        """
        if self._closed or self._stopping:
            raise ServiceError("service is shut down", kind="closed")
        if self._draining:
            raise ServiceError(
                "daemon is draining; resubmit to a peer",
                kind="draining", retry_after=1.0,
                peers=tuple(self.peers))
        if request.flow not in FLOWS:
            raise ServiceError(f"unknown flow {request.flow!r}; choose "
                               f"from {sorted(FLOWS)}", kind="bad-request")
        deadline_at = None
        if request.deadline is not None:
            deadline_at = time.monotonic() + float(request.deadline)
        # A deadline promotes the request into the deadline scheduling
        # class (scheduler behaviour); shed decisions must agree.
        shed_class = "deadline" if deadline_at is not None \
            else request.priority
        brownout = False
        # One lock around sample-depths → admit → enqueue: a barrage of
        # concurrent submits must not all sample the same (stale) depth
        # and overshoot the bound.
        with self._admit_lock:
            queued, per_tenant = self.scheduler.queued_counts()
            self.admission.admit(
                request.tenant, priority=shed_class, queued=queued,
                queued_tenant=per_tenant.get(request.tenant, 0))
            if self.admission.brownout and request.session is None \
                    and request.edit_operator is None \
                    and request.flow in ("o1", "o3"):
                request = replace(request, flow="o0")
                brownout = True
                self.admission.note_routed()
            entry = self.scheduler.submit(
                request.tenant, cost=request.cost,
                priority=request.priority, deadline_at=deadline_at)
        with self._lock:
            self._counter += 1
            ticket = Ticket(f"t{self._counter:04d}", request, entry.seq)
            ticket.brownout = brownout
            self._tickets[ticket.id] = ticket
            self._by_seq[entry.seq] = ticket
            self._wake.notify_all()
        self._gc_tickets()
        self.tracer.instant(f"submit:{ticket.id}", category="service",
                            lane=f"tenant:{request.tenant}",
                            app=request.app, flow=request.flow,
                            session=request.session or "",
                            brownout=brownout)
        return ticket.id

    def _gc_tickets(self) -> None:
        """Evict finished tickets so the registry stays bounded.

        Two policies compose: a TTL on finished tickets (an abandoned
        result eventually goes away even if nobody collects it) and a
        hard count cap, under which delivered results evict first,
        then oldest-finished.  Queued/running tickets never evict.
        """
        ttl = self.config.ticket_ttl
        cap = self.config.max_tickets
        if ttl is None and cap is None:
            return
        now = time.monotonic()
        with self._lock:
            finished = [t for t in self._tickets.values()
                        if t.finished is not None]
            doomed = [t for t in finished
                      if ttl is not None and now - t.finished >= ttl]
            if cap is not None \
                    and len(self._tickets) - len(doomed) > cap:
                doomed_ids = {t.id for t in doomed}
                spare = [t for t in finished
                         if t.id not in doomed_ids]
                spare.sort(key=lambda t: (not t.delivered, t.finished))
                excess = len(self._tickets) - len(doomed) - cap
                doomed.extend(spare[:excess])
            for t in doomed:
                self._tickets.pop(t.id, None)
                self._by_seq.pop(t.sched_seq, None)

    def _ticket(self, ticket_id: str) -> Ticket:
        with self._lock:
            ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise ServiceError(f"unknown ticket {ticket_id!r}",
                               kind="unknown-ticket")
        return ticket

    def status(self, ticket_id: str) -> Dict[str, Any]:
        ticket = self._ticket(ticket_id)
        position = self.scheduler.queue_position(ticket.sched_seq)
        return {
            "ticket": ticket.id,
            "state": ticket.state,
            "position": position,
            "tenant": ticket.request.tenant,
            "app": ticket.request.app,
            "flow": ticket.request.flow,
            "session": ticket.request.session,
        }

    def add_done_callback(self, ticket_id: str,
                          fn: Callable[[Ticket], None]) -> None:
        """Invoke ``fn(ticket)`` once the request finishes —
        immediately if it already has.  This is the daemon's
        completion-notification hook: one registered callback per
        waiting client instead of one parked executor thread, which is
        what lets 64+ concurrent ``result`` waiters coexist with a
        default executor of ~32 threads."""
        ticket = self._ticket(ticket_id)
        with self._lock:
            if not ticket.done.is_set():
                ticket.callbacks.append(fn)
                return
        fn(ticket)

    def remove_done_callback(self, ticket_id: str,
                             fn: Callable[[Ticket], None]) -> bool:
        """Unregister a pending done-callback (client disconnected
        before its ticket finished).  False when the callback already
        fired, was never registered, or the ticket is gone — all fine:
        the caller only cares that it will not be invoked later."""
        with self._lock:
            ticket = self._tickets.get(ticket_id)
            if ticket is None:
                return False
            try:
                ticket.callbacks.remove(fn)
                return True
            except ValueError:
                return False

    def result(self, ticket_id: str,
               timeout: Optional[float] = None) -> RequestOutcome:
        """Block until the request finishes; re-raise its failure."""
        ticket = self._ticket(ticket_id)
        if not ticket.done.wait(timeout):
            raise ServiceError(
                f"request {ticket_id} still {ticket.state} after "
                f"{timeout:g}s", kind="timeout")
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

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            entry = self.scheduler.acquire()
            if entry is None:
                with self._lock:
                    if self._stopping:
                        return
                    self._wake.wait(timeout=0.2)
                    if self._stopping:
                        return
                continue
            with self._lock:
                ticket = self._by_seq.get(entry.seq)
            if ticket is None:           # cancelled under our feet
                self.scheduler.release(entry.seq)
                continue
            thread = threading.Thread(
                target=self._run_ticket, args=(ticket,),
                name=f"pld-request-{ticket.id}", daemon=True)
            with self._lock:
                self._active.append(thread)
            thread.start()

    def _run_ticket(self, ticket: Ticket) -> None:
        ticket.state = "running"
        ticket.started = time.monotonic()
        try:
            outcome = self._execute(ticket)
            ticket.outcome = outcome
            ticket.state = "done"
        except BaseException as exc:     # noqa: B036 — re-raised in result()
            ticket.error = exc
            ticket.state = "failed"
        finally:
            ticket.finished = time.monotonic()
            self.scheduler.release(ticket.sched_seq)
            if ticket.started is not None:
                self.admission.note_done(ticket.finished - ticket.started)
            # Feed the post-release queue depth to the brownout EWMA so
            # it decays — and brownout exits — as the backlog drains.
            self.admission.observe(self.scheduler.queued_counts()[0])
            with self._lock:
                self._active = [t for t in self._active
                                if t is not threading.current_thread()]
                self._wake.notify_all()
                # done + callback swap under the lock, so a concurrent
                # add_done_callback either enqueues before the swap or
                # sees done set and fires immediately — never neither.
                ticket.done.set()
                callbacks, ticket.callbacks = ticket.callbacks, []
            for fn in callbacks:
                try:
                    fn(ticket)
                except Exception:
                    pass                 # a waiter's bug is its own

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
            flow = self.make_flow(req.flow, req.effort, req.seed)
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
        if req.flow != "o1":
            raise ServiceError(
                f"leased sessions compile with the o1 flow, not "
                f"{req.flow!r}", kind="bad-request")
        app = self._app(req.app)
        state = self._session_state(req)
        self._check_fence(state)
        with state.lock:
            lease = {"session": state.name, "tenant": req.tenant,
                     "app": req.app, "effort": req.effort,
                     "status": "active", "pid": os.getpid(),
                     "edits": state.edits,
                     "epoch": state.epoch, "owner": state.owner}
            if state.directory.name:
                self._write_lease(state.directory, lease)
                self._publish_session(state, lease)
            if req.crash_at_step is not None:
                # The crash-resume smoke: SIGKILL this daemon at the
                # Nth cache-miss step of the session's next compile.
                from repro.faults import CrashPlan
                state.session.engine.crash_plan = CrashPlan(
                    req.crash_at_step, point=req.crash_point,
                    mode="sigkill")
            try:
                if req.edit_operator is not None:
                    outcome = self._session_edit(ticket, state, app)
                else:
                    build = state.session.compile(app.project)
                    state.app = req.app
                    outcome = RequestOutcome(
                        ticket=ticket.id, kind="compile", build=build,
                        dedup=dedup_summary(state.session.engine.record),
                        resumed=list(build.resumed),
                        tenant=req.tenant, session=state.name)
            finally:
                lease["status"] = "idle"
                lease["edits"] = state.edits
                if state.directory.name:
                    self._write_lease(state.directory, lease)
                    self._publish_session(state, lease)
        return outcome

    def _session_edit(self, ticket: Ticket, state: _SessionState,
                      app) -> RequestOutcome:
        req = ticket.request
        if state.session.build is None:
            raise ServiceError(
                f"session {state.name!r} has no baseline build to "
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
                               f"session {state.name!r}",
                               kind="bad-request")
        result = state.session.apply_edit(
            operator, touch_spec(op.hls_spec, tag=req.edit_tag),
            op.sample_spec)
        state.edits += 1
        return RequestOutcome(
            ticket=ticket.id, kind="edit", build=result.build,
            edit=result,
            dedup=dedup_summary(state.session.engine.record),
            resumed=list(result.build.resumed),
            tenant=req.tenant, session=state.name)

    # -- overload / drain -----------------------------------------------------

    def _on_brownout(self, active: bool) -> None:
        """Brownout transition hook: hedged retries are speculation,
        and speculation is the wrong spend when the pool is already
        saturated — disable store-read hedging on enter, restore the
        configured quantile on exit.  (Cluster-job hedging is decided
        per flow in :meth:`make_flow`, which checks the live brownout
        flag.)"""
        if hasattr(self.store, "hedge_quantile"):
            self.store.hedge_quantile = None if active \
                else self.config.hedge_quantile

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
        timeout passes (False)."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            if self._closed:
                return False
            s = self.scheduler.stats()
            with self._lock:
                active = len(self._active)
            if s["queued"] == 0 and s["running"] == 0 and active == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    def undelivered(self) -> int:
        """Finished tickets whose result no :meth:`result` call has
        fetched yet — what a draining daemon lingers for."""
        with self._lock:
            return sum(1 for t in self._tickets.values()
                       if t.finished is not None and not t.delivered)

    # -- introspection / lifecycle -------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            tenants = {t: dict(v) for t, v in
                       self._tenant_totals.items()}
            tickets = len(self._tickets)
            sessions = sorted(self._sessions)
        steps = sum(v["steps"] for v in tenants.values())
        hits = sum(v["hits"] for v in tenants.values())
        return {
            "tickets": tickets,
            "sessions": sessions,
            "tenants": tenants,
            "dedup_ratio": (hits / steps) if steps else 1.0,
            "scheduler": self.scheduler.stats(),
            "admission": self.admission.snapshot(),
            "draining": self._draining,
            "store": dict(self.store.stats()),
        }

    def close(self, timeout: float = 30.0) -> None:
        """Drain running requests, close sessions, pool and store
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._stopping = True
            self._wake.notify_all()
            active = list(self._active)
        self._dispatcher.join(timeout=5.0)
        deadline = time.monotonic() + timeout
        for thread in active:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions = {}
        for state in sessions:
            with state.lock:
                state.session.close()
            if state.directory.name:
                lease = self._read_lease(state.directory)
                lease["status"] = "released"
                self._write_lease(state.directory, lease)
                self._publish_session(state, lease)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        close = getattr(self.store, "close", None)
        if callable(close):
            close()

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
