"""The ``pld serve`` daemon: a TCP frontend over :class:`CompileService`.

The daemon runs the store shards' server loop
(:class:`~repro.store.remote.server.FrameServer`: one thread per
connection), speaks their wire format (length-prefixed JSON header +
opaque payload, :mod:`repro.store.remote.framing`) and maps each
request header onto the service:

========  ===================================================
op        effect
========  ===================================================
ping      liveness probe (also reports pid and uptime)
submit    enqueue a compile/edit; returns a ticket id
status    queue state and position for a ticket
result    block until a ticket finishes; manifest as payload
stats     service-wide dedup / scheduler / store counters
health    liveness *and* readiness (draining, brownout, depths)
drain     zero-downtime stop: reject new work, finish running
shutdown  graceful stop: drain, close the service, exit
========  ===================================================

Errors travel as ``{"ok": false, "error": ..., "kind": ...}`` so the
client can re-raise a typed :class:`~repro.errors.ServiceError`; a
``DeadlineExceeded`` inside a build maps to ``kind="deadline"`` with
the completed/pending step counts, mirroring the CLI's exit-2 report.
A hostile or malformed header is *never* allowed to kill the
connection: every handler runs under a guard that maps non-PLD
``ValueError``/``TypeError``/``KeyError`` to ``kind="bad-request"``
and anything else to ``kind="internal"``, and the loop answers with an
error frame and reads the next request.

Each handler calls the service on its connection's thread, so a slow
service call (a lease or journal write) holds up only its own client.
A ``result`` waiter blocks that thread on the ticket
(:meth:`CompileService.wait`) in :data:`DISCONNECT_POLL_SECONDS`
slices and polls for a hang-up between them, so a client that gave up
frees its thread; ``--max-connections`` bounds how many such threads
clients can make the daemon start.

With ``--store`` the daemon fronts a shard fleet through the service's
one :class:`~repro.store.remote.ShardedStoreClient`, the client the
build workers use too.  The daemon starts that client's reconciler
thread, which drains write-behind debts every ``reconcile_interval``
seconds; ``stats`` runs the per-shard health probes (``ping_all``);
and the final reconcile is the client's own close, which the
service's close runs.  Tenant tokens (``--token T=SECRET``) gate
``submit`` with ``kind="auth"`` errors so per-tenant quotas cannot be
bypassed by lying about the tenant field.

State (store, session journals, leases) lives under ``--state DIR``; a
daemon killed mid-build and restarted over the same directory finds
the interrupted session journals and resumes them on the next submit.
Over a shared fleet the same contract extends across machines: each
leased session's lease + journal is published to the store under a
fenced epoch, so a *different* daemon can adopt and resume it — the
bit-identical-restart contract ``tests/test_service_daemon.py`` and
the CI smoke jobs enforce.
"""

from __future__ import annotations

import hmac
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import DeadlineExceeded, PLDError, ServiceError
from repro.store.remote.server import FrameServer, peer_closed
from repro.service.core import (CompileRequest, CompileService,
                                RequestOutcome, ServiceConfig)

#: Fields a submit header may carry, with coercions applied server-side
#: (everything arrives as JSON scalars).
_SUBMIT_FIELDS = {
    "app": str, "flow": str, "effort": float, "tenant": str,
    "session": str, "priority": str, "deadline": float, "cost": int,
    "resume": bool, "seed": int, "edit_operator": str,
    "edit_tag": str, "crash_at_step": int, "crash_point": str,
}

#: Seconds between background write-behind reconcile passes when the
#: daemon fronts a shard fleet.
DEFAULT_RECONCILE_INTERVAL = 2.0

#: How often a parked ``result`` waiter polls its connection for a
#: hang-up, so a vanished client's thread is freed instead of parked
#: until the ticket finishes (completion still wakes it instantly).
DISCONNECT_POLL_SECONDS = 0.1

#: How long a drained daemon waits, once its backlog is done, for
#: clients to collect the results of work it admitted before exiting.
DRAIN_LINGER_SECONDS = 10.0


def request_from_header(header: Dict[str, Any]) -> CompileRequest:
    """Build a :class:`CompileRequest` from a submit frame header."""
    app = header.get("app")
    if not app or not isinstance(app, str):
        raise ServiceError("submit needs an 'app' field",
                           kind="bad-request")
    kwargs: Dict[str, Any] = {}
    for name, coerce in _SUBMIT_FIELDS.items():
        if name == "app":
            continue
        value = header.get(name)
        if value is None:
            continue
        try:
            kwargs[name] = coerce(value)
        except (TypeError, ValueError):
            raise ServiceError(f"bad {name!r} value {value!r}",
                               kind="bad-request")
    return CompileRequest(app=app, **kwargs)


def outcome_to_wire(outcome: RequestOutcome
                    ) -> Tuple[Dict[str, Any], bytes]:
    """Flatten an outcome into a JSON-safe header + manifest payload."""
    build = outcome.build
    header: Dict[str, Any] = {
        "ok": True,
        "ticket": outcome.ticket,
        "kind": outcome.kind,
        "tenant": outcome.tenant,
        "session": outcome.session,
        "dedup": dict(outcome.dedup),
        "resumed": len(outcome.resumed),
        "wall_seconds": outcome.wall_seconds,
    }
    payload = b""
    if build is not None:
        header["describe"] = build.describe()
        header["pages_rebuilt"] = len(build.recompiled_pages)
        payload = json.dumps(build.manifest(), indent=2,
                             sort_keys=True).encode()
    if outcome.edit is not None:
        header["edit"] = {
            "operator": outcome.edit.operator,
            "dirty_steps": len(outcome.edit.dirty_steps),
            "pages_reloaded": list(outcome.edit.pages_reloaded),
            "speedup": outcome.edit.speedup,
        }
    return header, payload


def error_to_wire(exc: BaseException) -> Dict[str, Any]:
    """One wire shape for every failure the service can raise."""
    header = {
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "kind": getattr(exc, "kind", "") or type(exc).__name__,
    }
    if isinstance(exc, DeadlineExceeded):
        header["kind"] = "deadline"
        header["completed"] = len(exc.completed)
        header["pending"] = len(exc.pending)
        header["hint"] = ("resubmit the same session to resume from "
                          "its journal")
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        header["retry_after"] = retry_after
    peers = getattr(exc, "peers", ())
    if peers:
        header["peers"] = list(peers)
    reason = getattr(exc, "reason", "")
    if reason:
        header["reason"] = reason
    return header


class ServeDaemon(FrameServer):
    """The ``pld serve`` server; one instance per process.

    A :class:`~repro.store.remote.server.FrameServer`: one thread per
    connection, each answering its frames through the ``_op_*``
    handlers, which call the service directly.
    """

    def __init__(self, service: CompileService,
                 host: str = "127.0.0.1", port: int = 0,
                 tokens: Optional[Dict[str, str]] = None,
                 reconcile_interval: float = DEFAULT_RECONCILE_INTERVAL,
                 max_connections: Optional[int] = None,
                 frame_timeout: Optional[float] = None):
        super().__init__(host, port, max_connections=max_connections,
                         frame_timeout=frame_timeout)
        self.service = service
        #: Per-tenant shared secrets; empty means auth is off.
        self.tokens = dict(tokens or {})
        self.reconcile_interval = reconcile_interval
        self._stopping = threading.Event()
        self._started = time.monotonic()
        self._drain_thread: Optional[threading.Thread] = None
        #: Clients currently parked in ``result`` (and the high-water
        #: mark) — each holds its own connection's thread.
        self.waiters = 0
        self.peak_waiters = 0

    # -- helpers -------------------------------------------------------------

    @property
    def _fleet(self):
        """The service's shard-fleet client, or None over a local store."""
        store = self.service.store
        return store if hasattr(store, "fresh_get") else None

    def _check_auth(self, header: Dict[str, Any]) -> None:
        """Shared-secret tenant auth; no tokens configured = open."""
        if not self.tokens:
            return
        tenant = str(header.get("tenant") or "default")
        expected = self.tokens.get(tenant)
        if expected is None:
            raise ServiceError(
                f"tenant {tenant!r} is not provisioned on this daemon",
                kind="auth")
        token = header.get("token")
        if not isinstance(token, str) or \
                not hmac.compare_digest(expected, token):
            raise ServiceError(
                f"bad or missing token for tenant {tenant!r}",
                kind="auth")

    # -- per-op handlers -----------------------------------------------------

    def _op_ping(self, header, conn):
        return {"ok": True, "pid": os.getpid(),
                "uptime": time.monotonic() - self._started}, b""

    def _op_health(self, header, conn):
        """Liveness vs. readiness: a live daemon answers; a *ready*
        one is also accepting new submits (not draining/stopping).
        Load balancers route on ``ready``, watchdogs on ``live``."""
        sched = self.service.scheduler.stats()
        draining = self.service.draining
        return {"ok": True, "live": True,
                "ready": not draining and not self._stopping.is_set(),
                "draining": draining,
                "brownout": self.service.admission.brownout,
                "queued": sched["queued"],
                "running": sched["running"],
                "connections": self.active_connections,
                "pid": os.getpid()}, b""

    def _op_submit(self, header, conn):
        if self.service.draining:
            # Fast path: no auth — a draining daemon answers every
            # submit with its peer hints immediately.
            return {"ok": False, "kind": "draining",
                    "error": "daemon is draining; resubmit to a peer",
                    "retry_after": 1.0,
                    "peers": list(self.service.peers)}, b""
        self._check_auth(header)
        ticket = self.service.submit(request_from_header(header))
        return {"ok": True, "ticket": ticket,
                "position": self.service.status(ticket)["position"]}, b""

    def _op_status(self, header, conn):
        status = self.service.status(str(header.get("ticket", "")))
        status["ok"] = True
        return status, b""

    def _op_result(self, header, conn):
        ticket = str(header.get("ticket", ""))
        raw_timeout = header.get("timeout")
        try:
            timeout = float(raw_timeout) \
                if raw_timeout is not None else None
        except (TypeError, ValueError):
            raise ServiceError(f"bad 'timeout' value {raw_timeout!r}",
                               kind="bad-request")
        deadline = None if timeout is None else time.monotonic() + timeout
        step = DISCONNECT_POLL_SECONDS if timeout is None \
            else min(DISCONNECT_POLL_SECONDS, timeout)
        with self._lock:
            self.waiters += 1
            self.peak_waiters = max(self.peak_waiters, self.waiters)
        try:
            # Completion ends the wait at once; the slices only bound
            # how long a hang-up goes unnoticed, so a client that gave
            # up frees its thread instead of parking it until the
            # ticket finishes.  ``wait`` validates the ticket.
            while not self.service.wait(ticket, step):
                if not self._running or peer_closed(conn):
                    return None
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        status = self.service.status(ticket)
                        raise ServiceError(
                            f"request {ticket} still {status['state']} "
                            f"after {timeout:g}s", kind="timeout")
                    step = min(DISCONNECT_POLL_SECONDS, left)
        finally:
            with self._lock:
                self.waiters -= 1
        # The ticket is done: this re-raise/fetch returns immediately.
        return outcome_to_wire(self.service.result(ticket, timeout=0))

    def _op_stats(self, header, conn):
        stats = self.service.stats()
        stats["ok"] = True
        stats["pid"] = os.getpid()
        stats["uptime"] = time.monotonic() - self._started
        with self._lock:
            stats["waiters"] = {"active": self.waiters,
                                "peak": self.peak_waiters}
            stats["connections"] = {
                "active": len(self._conns),
                "total": self.connections,
                "rejected": self.rejected_connections,
                "max": self.max_connections}
        fleet = self._fleet
        if fleet is not None:
            health = fleet.ping_all()
            stats["shard_health"] = health
            stats["shards_up"] = sum(1 for up in health.values() if up)
        return stats, b""

    def _op_drain(self, header, conn):
        """Zero-downtime stop: flip to draining (submits answer
        ``kind="draining"`` with peer hints), let queued + running
        builds finish and their results be collected, republish
        session leases on close, exit."""
        self.request_drain()
        return {"ok": True, "draining": True,
                "peers": list(self.service.peers)}, b""

    def _op_shutdown(self, header, conn):
        # The stop itself waits for this reply to be sent (_replied):
        # clients call shutdown() expecting an answer.
        return {"ok": True, "stopping": True}, b""

    # -- the frame loop's hooks ----------------------------------------------

    def _handle(self, header: Dict[str, Any], payload: bytes, conn
                ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Answer one request frame; None when a ``result`` waiter's
        client hung up mid-wait."""
        op = header.get("op", "")
        handler = getattr(self, f"_op_{op}", None) \
            if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}",
                    "kind": "bad-request"}, b""
        try:
            return handler(header, conn)
        except PLDError as exc:
            return error_to_wire(exc), b""
        except (ValueError, TypeError, KeyError) as exc:
            # A malformed header the op-specific coercions missed: the
            # *request* is bad, the connection is fine — answer and
            # keep serving it.
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "kind": "bad-request"}, b""
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "kind": "internal"}, b""

    def _replied(self, header: Dict[str, Any]) -> None:
        if header.get("op") == "shutdown":
            self.request_stop()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeDaemon":
        fleet = self._fleet
        # An interval of 0 turns the reconciler off (it would spin).
        if fleet is not None and self.reconcile_interval > 0:
            fleet.start_reconciler(self.reconcile_interval)
        return super().start()

    def serve_until_stopped(self) -> None:
        """Block until a stop is requested, then :meth:`stop`."""
        self._stopping.wait()
        self.stop()

    def request_stop(self) -> None:
        self._stopping.set()

    def _drain_then_stop(self) -> None:
        self.service.wait_idle()
        # The backlog is done, but its clients may not have collected
        # every result yet, and a reply may still be on its way out:
        # stopping now would cut those connections.  Linger, bounded.
        deadline = time.monotonic() + DRAIN_LINGER_SECONDS
        while (self.service.undelivered() or self.in_flight) \
                and time.monotonic() < deadline \
                and not self._stopping.is_set():
            time.sleep(0.05)
        self.request_stop()

    def request_drain(self) -> None:
        """Flip to draining and stop once the backlog is empty and its
        results are collected (or :data:`DRAIN_LINGER_SECONDS` pass).
        The SIGTERM handler — so rolling restarts are zero-downtime:
        new submits bounce to peers, running builds finish and are
        delivered, session leases republish for adoption on close,
        exit 0."""
        self.service.begin_drain()
        with self._lock:
            if self._drain_thread is not None:
                return
            self._drain_thread = threading.Thread(
                target=self._drain_then_stop, name="pld-serve-drain",
                daemon=True)
        self._drain_thread.start()


def serve(cache_dir: str, *, host: str = "127.0.0.1", port: int = 0,
          tokens: Optional[Dict[str, str]] = None,
          max_connections: Optional[int] = None,
          frame_timeout: Optional[float] = None,
          trace: Optional[str] = None, notify=print, ready=None,
          **config) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT/shutdown.

    Args:
        cache_dir: the state directory — shared artifact store plus
            one journal + lease per leased session under ``sessions/``
            (with ``slots=1``, one-shot builds journal at its root).
        tokens: per-tenant shared secrets gating ``submit``.
        max_connections / frame_timeout: connection hardening.
        trace: write the service's Chrome trace here on exit.
        ready: optional callback invoked with ``(host, port)`` once the
            listener is bound (tests use it instead of scraping stdout).
        config: :class:`ServiceConfig` fields (``store_urls``,
            ``workers``, ``quotas``, ``max_queued``, ``peers``, ...);
            ``slots`` defaults to 4.

    Returns the process exit code (0 on a clean stop).  SIGTERM drains
    (running builds finish, sessions republish for peer adoption);
    SIGINT stops immediately.
    """
    tracer = None
    if trace:
        from repro.trace import Tracer
        tracer = Tracer()
    config.setdefault("slots", 4)
    service = CompileService(ServiceConfig(
        cache_dir=cache_dir, tracer=tracer, notify=notify, **config))
    if service.config.store_urls and notify is not None:
        urls = list(getattr(service.store, "urls", []) or [])
        notify(f"store: {len(urls)} shard(s): {', '.join(urls)}")
    interrupted = service.interrupted_sessions()
    if interrupted and notify is not None:
        notify(f"found {len(interrupted)} interrupted session(s): "
               f"{', '.join(interrupted)} — they resume on next submit")
    daemon = ServeDaemon(service, host=host, port=port, tokens=tokens,
                         max_connections=max_connections,
                         frame_timeout=frame_timeout)
    previous = {}
    try:
        daemon.start()
        bound_host, bound_port = daemon.address
        if notify is not None:
            auth = f", {len(daemon.tokens)} tenant token(s)" \
                if daemon.tokens else ""
            notify(f"pld serve listening on {bound_host}:{bound_port} "
                   f"(state: {cache_dir}, pid {os.getpid()}{auth})")
        if ready is not None:
            ready(bound_host, bound_port)
        if threading.current_thread() is threading.main_thread():
            # SIGTERM = the rolling-restart signal: drain, don't drop.
            # SIGINT (^C at a terminal) stops at once, through the
            # KeyboardInterrupt caught below.
            previous = {
                signal.SIGTERM: signal.signal(
                    signal.SIGTERM, lambda *_: daemon.request_drain()),
                signal.SIGINT: signal.signal(
                    signal.SIGINT, signal.default_int_handler)}
        daemon.serve_until_stopped()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        daemon.stop()
        service.close()
        if tracer is not None:
            tracer.write_chrome_trace(trace)
            if notify is not None:
                notify(f"wrote server trace {trace} "
                       f"({len(tracer)} events)")
    if notify is not None:
        notify(f"pld serve stopped after {daemon.requests} request(s) "
               f"on {daemon.connections} connection(s)")
    return 0


if __name__ == "__main__":               # pragma: no cover
    sys.exit(serve(sys.argv[1] if len(sys.argv) > 1 else ".pld-state"))
