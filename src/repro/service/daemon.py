"""The ``pld serve`` daemon: a TCP frontend over :class:`CompileService`.

One asyncio server speaks the remote-store wire format (length-prefixed
JSON header + opaque payload, :mod:`repro.store.remote.framing`) and
maps each request header onto the service:

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

The event loop does no service work itself.  ``submit``/``status``/
``stats`` run in the default executor (they take service locks and
touch lease/journal files on disk); ``result`` parks **no** thread at
all — each waiter registers a :meth:`CompileService.add_done_callback`
that fires an ``asyncio.Event`` via ``call_soon_threadsafe``, so 64+
concurrent waiters cost 64 events, not 64 of the executor's ~32
threads.

With ``--store`` the daemon fronts a shard fleet through the service's
one :class:`~repro.store.remote.ShardedStoreClient`, the client the
build workers use too.  The daemon starts that client's reconciler
thread, which drains write-behind debts every ``reconcile_interval``
seconds; ``stats`` runs the per-shard health probes (``ping_all``) in
the executor, off the loop; and the final reconcile is the client's
own close, which the service's close runs.  Tenant tokens
(``--token T=SECRET``) gate ``submit`` with ``kind="auth"`` errors so
per-tenant quotas cannot be bypassed by lying about the tenant field.

State (store, session journals, leases) lives under ``--state DIR``; a
daemon killed mid-build and restarted over the same directory finds
the interrupted session journals and resumes them on the next submit.
Over a shared fleet the same contract extends across machines: each
leased session's lease + journal is published to the store under a
fenced epoch, so a *different* daemon can adopt and resume it — the
bit-identical-restart contract the CI smoke jobs enforce.
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import json
import os
import signal
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import DeadlineExceeded, PLDError, ServiceError
from repro.store.remote.framing import (recv_frame_async,
                                        send_frame_async)
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

#: How often a parked ``result`` waiter polls its connection for EOF,
#: so a vanished client's done-callback unregisters instead of
#: accumulating (completion itself still wakes the waiter instantly).
DISCONNECT_POLL_SECONDS = 0.1

#: How long a drained daemon waits, once its backlog is done, for
#: clients to collect the results of work it admitted before exiting.
DRAIN_LINGER_SECONDS = 10.0


class _ClientDisconnected(Exception):
    """Internal: a ``result`` waiter's client hung up mid-wait; the
    connection loop tears the connection down without answering."""


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


class ServeDaemon:
    """The asyncio server; one instance per ``pld serve`` process."""

    def __init__(self, service: CompileService,
                 host: str = "127.0.0.1", port: int = 0,
                 tokens: Optional[Dict[str, str]] = None,
                 reconcile_interval: float = DEFAULT_RECONCILE_INTERVAL,
                 max_connections: Optional[int] = None,
                 frame_timeout: Optional[float] = None):
        self.service = service
        self.host = host
        self.port = port
        #: Per-tenant shared secrets; empty means auth is off.
        self.tokens = dict(tokens or {})
        self.reconcile_interval = reconcile_interval
        #: Concurrent-connection cap; the over-limit connection gets
        #: one ``kind="overloaded"`` error frame and is closed.
        self.max_connections = max_connections
        #: Per-frame read/write budget (seconds) once a frame starts —
        #: the slow-loris guard.  Idle keep-alive waits stay unbounded.
        self.frame_timeout = frame_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()
        self._started = time.monotonic()
        self._drain_task: Optional[asyncio.Task] = None
        self.connections = 0
        self.active_connections = 0
        self.rejected_connections = 0
        self.requests = 0
        #: Requests read but not yet answered; a drain lets them finish.
        self.in_flight = 0
        #: Clients currently parked in ``result`` (and the high-water
        #: mark) — each costs one asyncio.Event, never a thread.
        self.waiters = 0
        self.peak_waiters = 0

    # -- helpers -------------------------------------------------------------

    async def _call(self, fn, *args, **kwargs):
        """Run a blocking service call off-loop (default executor)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(fn, *args, **kwargs))

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

    async def _op_ping(self, header, payload, reader=None):
        return {"ok": True, "pid": os.getpid(),
                "uptime": time.monotonic() - self._started}, b""

    async def _op_health(self, header, payload, reader=None):
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

    async def _op_submit(self, header, payload, reader=None):
        if self.service.draining:
            # Fast path: no auth, no executor hop — a draining daemon
            # answers every submit with its peer hints immediately.
            return {"ok": False, "kind": "draining",
                    "error": "daemon is draining; resubmit to a peer",
                    "retry_after": 1.0,
                    "peers": list(self.service.peers)}, b""
        self._check_auth(header)
        request = request_from_header(header)
        # submit takes service locks and writes lease/journal files —
        # never on the event loop.
        ticket = await self._call(self.service.submit, request)
        status = await self._call(self.service.status, ticket)
        return {"ok": True, "ticket": ticket,
                "position": status["position"]}, b""

    async def _op_status(self, header, payload, reader=None):
        status = await self._call(self.service.status,
                                  str(header.get("ticket", "")))
        status["ok"] = True
        return status, b""

    async def _op_result(self, header, payload, reader=None):
        ticket = str(header.get("ticket", ""))
        raw_timeout = header.get("timeout")
        try:
            timeout = float(raw_timeout) \
                if raw_timeout is not None else None
        except (TypeError, ValueError):
            raise ServiceError(f"bad 'timeout' value {raw_timeout!r}",
                               kind="bad-request")
        loop = asyncio.get_running_loop()
        event = asyncio.Event()

        def _wake(_ticket) -> None:
            loop.call_soon_threadsafe(event.set)

        # Validates the ticket (kind="unknown-ticket") and fires
        # immediately when it is already done.
        self.service.add_done_callback(ticket, _wake)
        self.waiters += 1
        self.peak_waiters = max(self.peak_waiters, self.waiters)
        deadline = None if timeout is None else loop.time() + timeout
        try:
            # Completion wakes the event instantly; the short wait_for
            # slices only bound how long a *disconnect* goes unnoticed,
            # so a client that hung up unregisters its callback instead
            # of accumulating one per abandoned wait.
            while not event.is_set():
                if reader is not None and reader.at_eof():
                    self.service.remove_done_callback(ticket, _wake)
                    raise _ClientDisconnected()
                if deadline is not None and loop.time() >= deadline:
                    self.service.remove_done_callback(ticket, _wake)
                    status = await self._call(self.service.status,
                                              ticket)
                    raise ServiceError(
                        f"request {ticket} still {status['state']} "
                        f"after {timeout:g}s", kind="timeout")
                step = DISCONNECT_POLL_SECONDS
                if deadline is not None:
                    step = min(step, max(0.01, deadline - loop.time()))
                try:
                    await asyncio.wait_for(event.wait(), step)
                except asyncio.TimeoutError:
                    pass
        finally:
            self.waiters -= 1
        # The ticket is done: this re-raise/fetch returns immediately.
        outcome = await self._call(self.service.result, ticket,
                                   timeout=0)
        return await self._call(outcome_to_wire, outcome)

    async def _op_stats(self, header, payload, reader=None):
        stats = await self._call(self.service.stats)
        stats["ok"] = True
        stats["pid"] = os.getpid()
        stats["uptime"] = time.monotonic() - self._started
        stats["waiters"] = {"active": self.waiters,
                            "peak": self.peak_waiters}
        stats["connections"] = {
            "active": self.active_connections,
            "total": self.connections,
            "rejected": self.rejected_connections,
            "max": self.max_connections}
        fleet = self._fleet
        if fleet is not None:
            health = await self._call(fleet.ping_all)
            stats["shard_health"] = health
            stats["shards_up"] = sum(1 for up in health.values() if up)
        return stats, b""

    async def _op_drain(self, header, payload, reader=None):
        """Zero-downtime stop: flip to draining (submits answer
        ``kind="draining"`` with peer hints), let queued + running
        builds finish and their results be collected, republish
        session leases on close, exit."""
        self.request_drain()
        return {"ok": True, "draining": True,
                "peers": list(self.service.peers)}, b""

    async def _op_shutdown(self, header, payload, reader=None):
        self._stopping.set()
        return {"ok": True, "stopping": True}, b""

    # -- connection loop -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        if self.max_connections is not None \
                and self.active_connections >= self.max_connections:
            # One error frame, then hang up: the cap protects the
            # daemon's memory and loop, not the client's feelings.
            self.rejected_connections += 1
            try:
                await send_frame_async(
                    writer,
                    {"ok": False, "kind": "overloaded",
                     "error": f"connection limit "
                              f"({self.max_connections}) reached",
                     "retry_after": 1.0},
                    timeout=self.frame_timeout or 5.0)
            except PLDError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):
                pass
            return
        self.active_connections += 1
        try:
            while True:
                try:
                    header, payload = await recv_frame_async(
                        reader, frame_timeout=self.frame_timeout)
                except PLDError:
                    break                 # client went away / bad frame
                except asyncio.CancelledError:
                    break                 # server closing this connection
                self.requests += 1
                self.in_flight += 1
                try:
                    response, body = await self._dispatch(
                        header, payload, reader)
                    await send_frame_async(writer, response, body,
                                           timeout=self.frame_timeout)
                except (_ClientDisconnected, PLDError):
                    break                 # client gone / reply unsendable
                finally:
                    self.in_flight -= 1
        finally:
            self.active_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(self, header: Dict[str, Any], payload: bytes,
                        reader) -> Tuple[Dict[str, Any], bytes]:
        """Answer one request frame.  Raises :class:`_ClientDisconnected`
        when a ``result`` waiter's client hung up mid-wait."""
        op = header.get("op", "")
        handler = getattr(self, f"_op_{op}", None) \
            if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}",
                    "kind": "bad-request"}, b""
        try:
            return await handler(header, payload, reader)
        except _ClientDisconnected:
            raise
        except PLDError as exc:
            return error_to_wire(exc), b""
        except asyncio.CancelledError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            # A malformed header the op-specific coercions missed: the
            # *request* is bad, the connection is fine — answer and
            # keep serving it.
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "kind": "bad-request"}, b""
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "kind": "internal"}, b""

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        fleet = self._fleet
        # An interval of 0 turns the reconciler off (it would spin).
        if fleet is not None and self.reconcile_interval > 0:
            fleet.start_reconciler(self.reconcile_interval)
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_until_stopped(self) -> None:
        await self._stopping.wait()
        if self._drain_task is not None and not self._drain_task.done():
            # A shutdown op raced an in-progress drain; the stop wins.
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def request_stop(self) -> None:
        self._stopping.set()

    async def _drain_then_stop(self) -> None:
        await self._call(self.service.wait_idle)
        # The backlog is done, but its clients may not have collected
        # every result yet, and a reply may still be on its way out:
        # stopping now would cut those connections.  Linger, bounded.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_LINGER_SECONDS
        while (self.service.undelivered() or self.in_flight) \
                and loop.time() < deadline:
            await asyncio.sleep(0.05)
        self._stopping.set()

    def request_drain(self) -> None:
        """Flip to draining and stop once the backlog is empty and its
        results are collected (or :data:`DRAIN_LINGER_SECONDS` pass).
        The SIGTERM handler — so rolling restarts are zero-downtime:
        new submits bounce to peers, running builds finish and are
        delivered, session leases republish for adoption on close,
        exit 0."""
        self.service.begin_drain()
        if self._drain_task is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                self._stopping.set()
                return
            self._drain_task = loop.create_task(self._drain_then_stop())


def serve(cache_dir: str, host: str = "127.0.0.1", port: int = 0,
          workers: Optional[int] = None, slots: int = 4,
          quotas: Optional[Dict[str, int]] = None,
          default_quota: Optional[int] = None,
          trace: Optional[str] = None,
          store_urls: Optional[str] = None,
          tokens: Optional[Dict[str, str]] = None,
          max_queued: Optional[int] = None,
          max_queued_per_tenant: Optional[int] = None,
          rates: Optional[Dict[str, float]] = None,
          default_rate: Optional[float] = None,
          brownout_high: Optional[float] = None,
          brownout_low: Optional[float] = None,
          hedge_quantile: Optional[float] = None,
          peers: Optional[list] = None,
          max_connections: Optional[int] = None,
          frame_timeout: Optional[float] = None,
          notify=print, ready=None) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT/shutdown.

    Args:
        cache_dir: the state directory — shared artifact store plus
            one journal + lease per leased session under ``sessions/``
            (with ``slots=1``, one-shot builds journal at its root).
        store_urls: comma-separated shard URLs; the daemon then fronts
            the fleet (shared dedup plane, cross-daemon session
            adoption) instead of a purely local store.
        tokens: per-tenant shared secrets gating ``submit``.
        max_queued / max_queued_per_tenant / rates / default_rate:
            admission control (see :mod:`repro.service.overload`).
        brownout_high / brownout_low: queue-depth EWMA watermarks.
        hedge_quantile: hedged-retry quantile for store reads and o1
            page jobs (brownout disables it).
        peers: alternate daemon addresses handed to clients on drain.
        max_connections / frame_timeout: connection hardening.
        ready: optional callback invoked with ``(host, port)`` once the
            listener is bound (tests use it instead of scraping stdout).

    Returns the process exit code (0 on a clean stop).  SIGTERM drains
    (running builds finish, sessions republish for peer adoption);
    SIGINT stops immediately.
    """
    tracer = None
    if trace:
        from repro.trace import Tracer
        tracer = Tracer()
    service = CompileService(ServiceConfig(
        cache_dir=cache_dir, store_urls=store_urls,
        workers=workers, slots=slots, quotas=dict(quotas or {}),
        default_quota=default_quota, tracer=tracer, notify=notify,
        max_queued=max_queued,
        max_queued_per_tenant=max_queued_per_tenant,
        rates=dict(rates or {}), default_rate=default_rate,
        brownout_high=brownout_high, brownout_low=brownout_low,
        hedge_quantile=hedge_quantile, peers=list(peers or [])))
    if store_urls and notify is not None:
        urls = list(getattr(service.store, "urls", []) or [])
        notify(f"store: {len(urls)} shard(s): {', '.join(urls)}")
    interrupted = service.interrupted_sessions()
    if interrupted and notify is not None:
        notify(f"found {len(interrupted)} interrupted session(s): "
               f"{', '.join(interrupted)} — they resume on next submit")
    daemon = ServeDaemon(service, host=host, port=port, tokens=tokens,
                         max_connections=max_connections,
                         frame_timeout=frame_timeout)

    async def _main() -> None:
        bound_host, bound_port = await daemon.start()
        if notify is not None:
            auth = f", {len(daemon.tokens)} tenant token(s)" \
                if daemon.tokens else ""
            notify(f"pld serve listening on {bound_host}:{bound_port} "
                   f"(state: {cache_dir}, pid {os.getpid()}{auth})")
        if ready is not None:
            ready(bound_host, bound_port)
        loop = asyncio.get_running_loop()
        # SIGTERM = the rolling-restart signal: drain, don't drop.
        # SIGINT (^C at a terminal) keeps the immediate stop.
        for sig, action in ((signal.SIGTERM, daemon.request_drain),
                            (signal.SIGINT, daemon.request_stop)):
            try:
                loop.add_signal_handler(sig, action)
            except (NotImplementedError, RuntimeError):
                pass                       # non-main thread / platform
        await daemon.serve_until_stopped()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        if tracer is not None and trace:
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
