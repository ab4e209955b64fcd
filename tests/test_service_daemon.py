"""End-to-end tests for the ``pld serve`` daemon and its client.

Two layers: an in-process daemon (``serve`` in a thread, real TCP
sockets, real wire frames) for the protocol tests and the CLI client
verbs, and a genuine subprocess daemon for the crash contract —
SIGKILL mid-build, restart over the same state directory, resume from
the session journal, bit-identical manifest.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError, TransportError
from repro.service import ServiceClient
from repro.service.core import (CompileService, RequestOutcome,
                                ServiceConfig)
from repro.service.daemon import (DISCONNECT_POLL_SECONDS, ServeDaemon,
                                  serve)
from repro.store import ArtifactStore
from repro.store.remote import StoreServer

APP = "digit-recognition"
EFFORT = 0.1
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on an OS-assigned port, plus a client."""
    bound = {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["host"], bound["port"] = host, port
        ready.set()

    thread = threading.Thread(
        target=serve,
        args=(str(tmp_path / "state"),),
        kwargs={"port": 0, "notify": None, "ready": on_ready},
        daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "daemon never bound its socket"
    client = ServiceClient(bound["host"], bound["port"], timeout=120.0)
    yield client
    try:
        client.shutdown()
    except (ServiceError, TransportError):
        pass
    client.close()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestProtocol:
    def test_ping(self, daemon):
        reply = daemon.ping()
        assert reply["ok"] and reply["pid"] == os.getpid()

    def test_submit_status_result(self, daemon):
        ticket = daemon.submit(APP, effort=EFFORT)
        assert ticket.startswith("t")
        status = daemon.status(ticket)
        assert status["state"] in ("queued", "running", "done")
        summary, manifest = daemon.result(ticket, timeout=120)
        assert summary["ok"] and summary["kind"] == "compile"
        assert summary["ticket"] == ticket
        parsed = json.loads(manifest)
        assert parsed and summary["pages_rebuilt"] >= 0
        assert daemon.status(ticket)["state"] == "done"

    def test_two_tenants_dedup_and_identical_manifests(self, daemon):
        # alice and bob build concurrently and must agree bit for bit;
        # carol arrives once the store is warm and gets every
        # implementation step as a store hit.
        alice = daemon.submit(APP, effort=EFFORT, tenant="alice")
        bob = daemon.submit(APP, effort=EFFORT, tenant="bob")
        _, first = daemon.result(alice, timeout=120)
        _, second = daemon.result(bob, timeout=120)
        assert second == first          # bit-identical across tenants
        summary, third = daemon.compile(APP, effort=EFFORT,
                                        tenant="carol", timeout=120)
        assert third == first
        assert summary["dedup"]["impl_ratio"] == 1.0
        stats = daemon.stats()
        assert set(stats["tenants"]) >= {"alice", "bob", "carol"}

    def test_unknown_op_is_bad_request(self, daemon):
        with pytest.raises(ServiceError, match="unknown op"):
            daemon.call({"op": "frobnicate"})

    def test_unknown_ticket_is_bad_request(self, daemon):
        with pytest.raises(ServiceError, match="unknown ticket"):
            daemon.status("t9999")

    def test_bad_submit_field_rejected(self, daemon):
        with pytest.raises(ServiceError, match="bad 'effort'"):
            daemon.call({"op": "submit", "app": APP,
                         "effort": "not-a-number"})
        with pytest.raises(ServiceError, match="needs an 'app'"):
            daemon.call({"op": "submit"})

    def test_flow_error_travels_as_typed_failure(self, daemon):
        ticket = daemon.submit("not-an-app", effort=EFFORT)
        with pytest.raises(ServiceError, match="FlowError"):
            daemon.result(ticket, timeout=120)

    def test_session_edit_over_the_wire(self, daemon):
        daemon.compile(APP, effort=EFFORT, session="dev",
                       tenant="alice", timeout=120)
        summary, manifest = daemon.compile(
            APP, effort=EFFORT, session="dev", tenant="alice",
            edit_operator="first-hw", timeout=120)
        assert summary["kind"] == "edit"
        assert summary["edit"]["dirty_steps"] >= 1
        assert json.loads(manifest)


class TestHostileFrames:
    """Satellite bugfix: a malformed header answers an error frame and
    the connection keeps serving.

    Pre-fix, a non-numeric ``timeout`` on ``result`` raised
    ``ValueError`` from ``float(timeout)`` past the ``except PLDError``
    guard in ``_handle`` and the daemon dropped the socket (the client
    saw a ``TransportError``, not a typed error); a non-string ``op``
    blew up ``getattr`` the same way.
    """

    def test_nonnumeric_result_timeout_is_bad_request(self, daemon):
        with pytest.raises(ServiceError, match="bad 'timeout'") as exc:
            daemon.call({"op": "result", "ticket": "t0001",
                         "timeout": "soonish"})
        assert exc.value.kind == "bad-request"
        assert daemon.ping()["ok"]       # same socket still serves

    def test_object_result_timeout_is_bad_request(self, daemon):
        with pytest.raises(ServiceError) as exc:
            daemon.call({"op": "result", "ticket": "t0001",
                         "timeout": {"seconds": 5}})
        assert exc.value.kind == "bad-request"
        assert daemon.ping()["ok"]

    def test_nonstring_op_is_bad_request(self, daemon):
        with pytest.raises(ServiceError, match="unknown op"):
            daemon.call({"op": 7})
        assert daemon.ping()["ok"]

    def test_submit_survives_hostile_field_barrage(self, daemon):
        hostile = [
            {"op": "submit"},                             # no app
            {"op": "submit", "app": ["digit"]},           # non-string app
            {"op": "submit", "app": APP, "effort": {"x": 1}},
            {"op": "submit", "app": APP, "crash_at_step": "NaN"},
            {"op": "submit", "app": APP, "deadline": "never"},
            {"op": "submit", "app": APP, "flow": "o9"},
        ]
        for header in hostile:
            with pytest.raises(ServiceError) as exc:
                daemon.call(header)
            assert exc.value.kind == "bad-request", header
        # The connection survived the whole barrage and still compiles.
        summary, manifest = daemon.compile(APP, effort=EFFORT,
                                           timeout=120)
        assert summary["ok"] and json.loads(manifest)


class TestEventLoopOffload:
    """A stalled service call holds only its own connection.

    ``submit`` takes service locks and writes lease/journal files, so a
    slow disk can stall it; each connection runs on its own thread, so
    that stall must not delay ``ping`` on another connection.  (The
    name is from the asyncio daemon, whose fix moved such calls off the
    event loop.)
    """

    def test_blocked_submit_does_not_stall_ping(self, daemon,
                                                monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        orig = CompileService.submit

        def slow_submit(self, request):
            entered.set()
            release.wait(timeout=30)      # a stalled lease/store write
            return orig(self, request)

        monkeypatch.setattr(CompileService, "submit", slow_submit)
        submitter = ServiceClient(daemon.host, daemon.port,
                                  timeout=60.0)
        try:
            thread = threading.Thread(
                target=lambda: submitter.submit(APP, effort=EFFORT),
                daemon=True)
            thread.start()
            assert entered.wait(timeout=10)
            start = time.monotonic()
            assert daemon.ping()["ok"]
            elapsed = time.monotonic() - start
            release.set()
            thread.join(timeout=30)
            assert elapsed < 1.0, (
                f"ping took {elapsed:.2f}s behind a stalled submit — "
                f"connections no longer run independently")
        finally:
            release.set()
            submitter.close()


# ---------------------------------------------------------------------------
# Direct ServeDaemon harness (custom service, fleet access)

def _start_daemon(service, tokens=None, reconcile_interval=0.0,
                  **daemon_kwargs):
    """Run a :class:`ServeDaemon` over *service* until
    :func:`_stop_daemon` or a ``shutdown`` op."""
    daemon = ServeDaemon(service, tokens=tokens,
                         reconcile_interval=reconcile_interval,
                         **daemon_kwargs).start()
    thread = threading.Thread(target=daemon.serve_until_stopped,
                              daemon=True)
    thread.start()
    return {"daemon": daemon, "addr": daemon.address, "thread": thread}


def _stop_daemon(holder):
    holder["daemon"].request_stop()
    holder["thread"].join(timeout=30)
    assert not holder["thread"].is_alive()


class _TicketBoard:
    """A minimal CompileService stand-in whose tickets complete only
    when the test says so — makes waiter behaviour observable and
    deterministic."""

    def __init__(self, count):
        self._done = {f"t{i:04d}": threading.Event()
                      for i in range(count)}
        self.store = None

    @property
    def tickets(self):
        return sorted(self._done)

    def wait(self, ticket, timeout=None):
        return self._done[ticket].wait(timeout)

    def complete(self, ticket):
        self._done[ticket].set()

    def result(self, ticket, timeout=None):
        assert self._done[ticket].is_set()
        return RequestOutcome(ticket=ticket, kind="compile")

    def status(self, ticket):
        done = self._done[ticket].is_set()
        return {"state": "done" if done else "queued", "position": 0}

    def stats(self):
        return {}


WAITERS = 72


class TestResultWaiterScaling:
    """Acceptance: ≥64 concurrent ``result`` waiters on one daemon.

    The asyncio daemon once parked every waiter on one default-executor
    thread; the executor caps at ``min(32, cpus + 4)`` threads, so
    waiter #33+ queued behind a slot held by another waiter, which
    deadlocks whenever early tickets finish last.  Each waiter now
    waits on its own connection's thread, so all 72 must register
    (``daemon.waiters``) and complete in any order.
    """

    def test_72_concurrent_waiters_complete(self):
        board = _TicketBoard(WAITERS)
        holder = _start_daemon(board)
        host, port = holder["addr"]
        daemon = holder["daemon"]
        results = {}
        errors = []

        def wait_for(ticket):
            client = ServiceClient(host, port, timeout=120.0)
            try:
                summary, _ = client.result(ticket, timeout=60)
                results[ticket] = summary["ticket"]
            except Exception as exc:           # noqa: BLE001
                errors.append((ticket, exc))
            finally:
                client.close()

        threads = [threading.Thread(target=wait_for, args=(t,),
                                    daemon=True)
                   for t in board.tickets]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while daemon.waiters < WAITERS:
                assert time.monotonic() < deadline, (
                    f"only {daemon.waiters}/{WAITERS} waiters "
                    f"registered — waiters are queued behind each "
                    f"other again")
                time.sleep(0.01)
            # Finish in *reverse* arrival order — the ordering that
            # starved under the thread-per-waiter scheme.
            for ticket in reversed(board.tickets):
                board.complete(ticket)
            for thread in threads:
                thread.join(timeout=30)
            assert not [t for t in threads if t.is_alive()]
            assert not errors, errors[:3]
            assert results == {t: t for t in board.tickets}
            assert daemon.peak_waiters >= WAITERS
        finally:
            _stop_daemon(holder)


SECRET = "open-sesame"


@pytest.fixture()
def auth_daemon(tmp_path):
    """A daemon requiring a shared secret for tenant ``alice``."""
    bound = {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["host"], bound["port"] = host, port
        ready.set()

    thread = threading.Thread(
        target=serve,
        args=(str(tmp_path / "state"),),
        kwargs={"port": 0, "notify": None, "ready": on_ready,
                "tokens": {"alice": SECRET}},
        daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "daemon never bound its socket"
    client = ServiceClient(bound["host"], bound["port"], timeout=120.0)
    yield client
    try:
        client.shutdown()
    except (ServiceError, TransportError):
        pass
    client.close()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestTenantAuth:
    """Tentpole: per-tenant shared-secret auth on the submit header, so
    quotas cannot be bypassed by lying about the tenant field."""

    def test_ping_and_stats_need_no_token(self, auth_daemon):
        assert auth_daemon.ping()["ok"]
        assert auth_daemon.stats()["ok"]

    def test_unauthenticated_submits_rejected(self, auth_daemon):
        cases = [
            dict(tenant="alice"),                  # no token at all
            dict(tenant="alice", token="wrong"),   # bad secret
            dict(tenant="alice", token=42),        # non-string secret
            dict(tenant="mallory", token=SECRET),  # unprovisioned
            dict(),                                # implied default tenant
        ]
        for fields in cases:
            with pytest.raises(ServiceError) as exc:
                auth_daemon.call(dict({"op": "submit", "app": APP},
                                      **fields))
            assert exc.value.kind == "auth", fields
        # Nothing was enqueued by the rejected submits.
        assert auth_daemon.stats()["tickets"] == 0

    def test_good_token_compiles(self, auth_daemon):
        client = ServiceClient(auth_daemon.host, auth_daemon.port,
                               timeout=120.0, token=SECRET)
        try:
            summary, manifest = client.compile(
                APP, effort=EFFORT, tenant="alice", timeout=120)
            assert summary["ok"] and json.loads(manifest)
        finally:
            client.close()


@pytest.fixture()
def fleet():
    """Three in-process shard servers; stopped on teardown."""
    servers = [StoreServer(ArtifactStore(cache_dir=None)).start()
               for _ in range(3)]
    yield servers
    for server in servers:
        server.stop()


def _fleet_service(tmp_path, urls, **overrides):
    config = dict(cache_dir=str(tmp_path / "state"),
                  store_urls=",".join(urls), slots=2)
    config.update(overrides)
    return CompileService(ServiceConfig(**config))


class TestFleetDaemon:
    """Tentpole: the daemon fronting a shard fleet — shard health in
    ``stats`` and the reconcile-on-close contract."""

    def test_stats_reports_shard_health(self, tmp_path, fleet):
        urls = [s.url for s in fleet]
        service = _fleet_service(tmp_path, urls)
        holder = _start_daemon(service)
        try:
            client = ServiceClient(*holder["addr"], timeout=30.0)
            stats = client.stats()
            assert stats["shards_up"] == 3
            assert all(stats["shard_health"].values())
            victim_url = fleet[0].url
            fleet[0].stop()
            stats = client.stats()
            assert stats["shards_up"] == 2
            assert stats["shard_health"][victim_url] is False
            client.close()
        finally:
            _stop_daemon(holder)
            service.close()

    def test_graceful_stop_reconciles_and_closes_store(self, tmp_path,
                                                       fleet):
        """``shutdown`` with a quarantined shard: the daemon leaves the
        store client to its owner, and the service's close drains the
        write-behind debt once the shard heals, then closes it."""
        urls = [s.url for s in fleet]
        service = _fleet_service(tmp_path, urls)
        store = service.store
        store.breaker.cooldown_seconds = 0.2
        # Background reconciler off: the *close* path must drain.
        holder = _start_daemon(service, reconcile_interval=0.0)
        victim = fleet[0]
        victim_url = victim.url
        host, port = victim.address
        victim.stop()
        revived = None
        try:
            client = ServiceClient(*holder["addr"], timeout=120.0)
            summary, manifest = client.compile(APP, effort=EFFORT,
                                               timeout=120)
            assert json.loads(manifest)      # degraded, not failed
            with store._pending_lock:
                owed = list(store.pending.get(victim_url, []))
            assert owed, "no write-behind debt accrued to dead shard"
            revived = StoreServer(ArtifactStore(cache_dir=None),
                                  host=host, port=port).start()
            time.sleep(0.3)                  # quarantine cooldown
            client.shutdown()
            client.close()
            holder["thread"].join(timeout=30)
            assert not holder["thread"].is_alive()
            # The daemon left the store client to its owner, the
            # service...
            assert not store._closed
            service.close()
            assert store._closed
            # ...whose close-path reconcile settled the debt.
            assert store.reconciled >= len(owed)
            with store._pending_lock:
                assert not store.pending.get(victim_url)
            assert set(owed) <= set(revived.store.keys())
        finally:
            if revived is not None:
                revived.stop()
            _stop_daemon(holder)
            service.close()


class TestDisconnectWaiterCleanup:
    """A ``result`` waiter whose connection drops before the ticket
    finishes must free its thread and connection.

    Before the fix a waiter stayed registered until its ticket
    finished, so a flaky client that reconnected and re-waited leaked
    one waiter per attempt.  The waiter polls for a hang-up every
    ``DISCONNECT_POLL_SECONDS``; bytes of a pipelined next request are
    not one.
    """

    def test_disconnect_frees_the_waiter(self):
        import socket as socketlib

        from repro.store.remote.framing import send_frame

        board = _TicketBoard(1)
        holder = _start_daemon(board)
        host, port = holder["addr"]
        daemon = holder["daemon"]
        try:
            sock = socketlib.create_connection((host, port), timeout=10)
            send_frame(sock, {"op": "result", "ticket": "t0000",
                              "timeout": 60})
            deadline = time.monotonic() + 10
            while daemon.waiters < 1:
                assert time.monotonic() < deadline, \
                    "waiter never parked"
                time.sleep(0.01)
            assert daemon.active_connections == 1
            sock.close()                   # hang up mid-wait
            deadline = time.monotonic() + 10
            while daemon.waiters or daemon.active_connections:
                assert time.monotonic() < deadline, (
                    f"disconnect leaked: waiters={daemon.waiters} "
                    f"connections={daemon.active_connections}")
                time.sleep(0.02)
            # Completing later answers nobody.
            board.complete("t0000")
        finally:
            _stop_daemon(holder)

    def test_pipelined_request_is_not_a_hang_up(self):
        import socket as socketlib

        from repro.store.remote.framing import recv_frame, send_frame

        board = _TicketBoard(1)
        holder = _start_daemon(board)
        host, port = holder["addr"]
        daemon = holder["daemon"]
        try:
            sock = socketlib.create_connection((host, port), timeout=10)
            send_frame(sock, {"op": "result", "ticket": "t0000"})
            send_frame(sock, {"op": "ping"})     # sent before the reply
            deadline = time.monotonic() + 10
            while daemon.waiters < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(3 * DISCONNECT_POLL_SECONDS)   # several polls
            assert daemon.waiters == 1
            board.complete("t0000")
            first, _ = recv_frame(sock)
            second, _ = recv_frame(sock)
            assert first["ticket"] == "t0000"
            assert second["ok"] and second["pid"] == os.getpid()
            sock.close()
        finally:
            _stop_daemon(holder)

    def test_disconnect_does_not_break_surviving_waiter(self):
        board = _TicketBoard(1)
        holder = _start_daemon(board)
        host, port = holder["addr"]
        results = []

        def wait_for():
            client = ServiceClient(host, port, timeout=60.0)
            try:
                summary, _ = client.result("t0000", timeout=30)
                results.append(summary["ticket"])
            finally:
                client.close()

        try:
            quitter = ServiceClient(host, port, timeout=60.0)
            quitter._connect()             # force the connection open
            thread = threading.Thread(target=wait_for, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10
            while holder["daemon"].waiters < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            quitter.close()                # an unrelated hang-up
            board.complete("t0000")
            thread.join(timeout=30)
            assert results == ["t0000"]
        finally:
            _stop_daemon(holder)


class TestConnectionHardening:
    def test_max_connections_rejects_with_retry_after(self):
        board = _TicketBoard(1)
        holder = _start_daemon(board, max_connections=1)
        host, port = holder["addr"]
        try:
            first = ServiceClient(host, port, timeout=30.0)
            assert first.status("t0000")["state"] == "queued"
            second = ServiceClient(host, port, timeout=30.0)
            with pytest.raises(ServiceError) as exc:
                second.status("t0000")
            assert exc.value.kind == "overloaded"
            assert exc.value.retry_after > 0
            second.close()
            # The established connection is unaffected...
            assert first.status("t0000")["state"] == "queued"
            first.close()
            # ...and a freed slot admits the next client.
            third = ServiceClient(host, port, timeout=30.0)
            assert third.status("t0000")["state"] == "queued"
            third.close()
            assert holder["daemon"].rejected_connections == 1
        finally:
            _stop_daemon(holder)

    def test_slow_loris_frame_times_out(self):
        import socket as socketlib

        board = _TicketBoard(1)
        holder = _start_daemon(board, frame_timeout=0.3)
        host, port = holder["addr"]
        try:
            sock = socketlib.create_connection((host, port), timeout=10)
            # Promise a 64-byte header, deliver 4 bytes, stall.
            sock.sendall((64).to_bytes(4, "big") + b'{"op')
            sock.settimeout(10)
            assert sock.recv(1) == b"", \
                "daemon kept a stalled frame's connection open"
            sock.close()
            # A well-behaved client on the same daemon is untouched.
            client = ServiceClient(host, port, timeout=30.0)
            assert client.status("t0000")["state"] == "queued"
            client.close()
        finally:
            _stop_daemon(holder)

    def test_idle_connection_outlives_frame_timeout(self):
        """The timeout bounds a *started* frame, not idle keep-alive:
        a connection that simply has nothing to say must survive."""
        board = _TicketBoard(1)
        holder = _start_daemon(board, frame_timeout=0.2)
        host, port = holder["addr"]
        try:
            client = ServiceClient(host, port, timeout=30.0)
            assert client.status("t0000")["state"] == "queued"
            time.sleep(0.6)                # several frame_timeouts idle
            assert client.status("t0000")["state"] == "queued"
            client.close()
        finally:
            _stop_daemon(holder)


def _serve_thread(state_dir, **kwargs):
    """A full ``serve`` daemon on a thread; returns (client, thread)."""
    bound = {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["host"], bound["port"] = host, port
        ready.set()

    thread = threading.Thread(
        target=serve, args=(str(state_dir),),
        kwargs=dict({"port": 0, "notify": None, "ready": on_ready},
                    **kwargs),
        daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "daemon never bound its socket"
    client = ServiceClient(bound["host"], bound["port"], timeout=120.0)
    return client, thread


class TestHealthAndDrain:
    """The zero-downtime drain contract over real TCP: health flips
    ready=false, submits bounce with peer hints, running builds
    finish, the daemon exits on its own."""

    PEERS = ["10.9.9.1:7411", "10.9.9.2:7411"]

    def test_drain_lifecycle(self, tmp_path):
        client, thread = _serve_thread(tmp_path / "state",
                                       slots=1, peers=self.PEERS)
        try:
            health = client.health()
            assert health["live"] and health["ready"]
            assert not health["draining"]

            # Backlog keeps the daemon busy through the drain window.
            tickets = [client.submit(APP, effort=EFFORT)
                       for _ in range(3)]
            reply = client.drain()
            assert reply["draining"]
            assert reply["peers"] == self.PEERS

            health = client.health()
            assert health["live"] and not health["ready"]
            assert health["draining"]

            with pytest.raises(ServiceError) as exc:
                client.submit(APP, effort=EFFORT)
            assert exc.value.kind == "draining"
            assert exc.value.peers == tuple(self.PEERS)
            assert exc.value.retry_after

            # Already-admitted work still completes during the drain.
            for ticket in tickets:
                summary, manifest = client.result(ticket, timeout=120)
                assert summary["ok"] and json.loads(manifest)
        finally:
            client.close()
            thread.join(timeout=60)        # drains to empty, exits
            assert not thread.is_alive()

    @staticmethod
    def _wait_finished(client, ticket) -> None:
        deadline = time.monotonic() + 120
        while client.status(ticket)["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "build never finished"
            time.sleep(0.05)

    def test_drain_keeps_uncollected_result(self, tmp_path):
        """A build that finished before its client asked is still
        delivered after the drain: the empty backlog alone does not
        stop the daemon while a result is uncollected."""
        client, thread = _serve_thread(tmp_path / "state", slots=1)
        try:
            ticket = client.submit(APP, effort=EFFORT)
            self._wait_finished(client, ticket)
            client.drain()
            time.sleep(0.5)                # well past the idle poll
            assert thread.is_alive()
            summary, manifest = client.result(ticket, timeout=30)
            assert summary["ok"] and json.loads(manifest)
        finally:
            client.close()
            thread.join(timeout=60)
            assert not thread.is_alive()

    def test_drain_linger_is_bounded(self, tmp_path, monkeypatch):
        """A result nobody collects holds the drain only for
        ``DRAIN_LINGER_SECONDS``."""
        from repro.service import daemon as daemon_module
        monkeypatch.setattr(daemon_module, "DRAIN_LINGER_SECONDS", 0.5)
        client, thread = _serve_thread(tmp_path / "state", slots=1)
        try:
            ticket = client.submit(APP, effort=EFFORT)
            self._wait_finished(client, ticket)
            client.drain()
        finally:
            client.close()
            thread.join(timeout=8)         # < the default linger
            assert not thread.is_alive()

    def test_overloaded_submit_retries_to_admission(self, tmp_path):
        """End-to-end admission control: a tiny queue bound sheds the
        flood with ``retry_after``, and ``submit(wait=...)`` rides the
        hint back in once the backlog clears."""
        client, thread = _serve_thread(
            tmp_path / "state", slots=1, max_queued=2)
        try:
            tickets = [client.submit(APP, effort=EFFORT)
                       for _ in range(2)]
            shed = None
            for _ in range(6):             # flood past the bound
                try:
                    tickets.append(client.submit(APP, effort=EFFORT,
                                                 priority="batch"))
                except ServiceError as exc:
                    shed = exc
                    break
            assert shed is not None, "queue bound never shed"
            assert shed.kind == "overloaded"
            assert shed.retry_after > 0
            # The blocking form waits out the backlog and gets in
            # (retry count is timing-dependent here; the backoff math
            # itself is covered in test_service_overload).
            tickets.append(client.submit(APP, effort=EFFORT,
                                         priority="batch", wait=120.0))
            for ticket in tickets:
                summary, _ = client.result(ticket, timeout=120)
                assert summary["ok"]
        finally:
            try:
                client.shutdown()
            except (ServiceError, TransportError):
                pass
            client.close()
            thread.join(timeout=60)
            assert not thread.is_alive()


class TestCliVerbs:
    """The ``pld submit/status/result/health/drain`` client verbs
    against an in-process daemon."""

    def test_client_verbs(self, tmp_path, capsys):
        from repro.cli import main

        client, thread = _serve_thread(tmp_path / "state", slots=1,
                                       tokens={"alice": SECRET})
        server = ["--server", f"{client.host}:{client.port}"]
        try:
            assert main(["submit", APP, "--effort", str(EFFORT),
                         "--tenant", "alice", "--token", SECRET,
                         *server]) == 0
            ticket = capsys.readouterr().out.split()[-1]
            assert ticket.startswith("t")

            assert main(["status", ticket, *server]) == 0
            out = capsys.readouterr().out
            assert re.match(rf"{ticket}: (queued|running|done) ", out), out

            manifest = tmp_path / "manifest.json"
            assert main(["result", ticket, "--manifest", str(manifest),
                         *server]) == 0
            assert f"wrote build manifest {manifest}" \
                in capsys.readouterr().out
            _, expected = client.result(ticket, timeout=120)
            assert manifest.read_bytes() == expected

            assert main(["health", *server]) == 0
            assert "ready=True" in capsys.readouterr().out

            assert main(["submit", APP, "--tenant", "alice",
                         "--token", "wrong", *server]) == 2
            assert "bad or missing token" in capsys.readouterr().err

            assert main(["drain", *server]) == 0
            assert capsys.readouterr().out.startswith("draining")
        finally:
            client.close()
        thread.join(timeout=60)            # drains to empty, exits
        assert not thread.is_alive()


class TestServerTrace:
    def test_shutdown_writes_chrome_trace(self, tmp_path):
        trace = tmp_path / "serve-trace.json"
        lines = []
        client, thread = _serve_thread(tmp_path / "state",
                                       trace=str(trace),
                                       notify=lines.append)
        try:
            summary, _ = client.compile(APP, effort=EFFORT,
                                        tenant="alice", timeout=120)
            assert summary["ok"]
            assert client.shutdown()["stopping"]
        finally:
            client.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events), "no spans"
        assert any(line.startswith(f"wrote server trace {trace}")
                   for line in lines)


def _spawn_daemon(state_dir, *extra):
    """Start ``pld serve`` as a real subprocess; returns (proc, port,
    the output it printed up to its listening line)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         str(state_dir), "--port", "0", *extra],
        cwd=str(REPO), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 60
    port = None
    banner = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line)
        if "listening on" in line:
            port = int(line.split("listening on ")[1]
                       .split()[0].rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise RuntimeError("daemon subprocess never reported its port")
    return proc, port, "".join(banner)


@pytest.mark.slow
class TestCrashResume:
    def test_sigkill_restart_resumes_bit_identical(self, tmp_path):
        state = tmp_path / "state"

        # Reference: the same session compiled on a never-crashed
        # daemon in a separate state directory.
        proc, port, _ = _spawn_daemon(tmp_path / "clean")
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            _, reference = client.compile(
                APP, effort=EFFORT, session="dev", timeout=120)
            client.shutdown()
            client.close()
        finally:
            proc.wait(timeout=30)

        # Round 1: the hidden crash_at_step field makes the engine
        # SIGKILL its own process mid-build — no cleanup, no atexit.
        proc, port, _ = _spawn_daemon(state)
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        ticket = client.submit(APP, effort=EFFORT, session="dev",
                               crash_at_step=3)
        with pytest.raises((ServiceError, TransportError)):
            client.result(ticket, timeout=120)
        client.close()
        assert proc.wait(timeout=60) in (-signal.SIGKILL, 137)

        # The journal recorded the interruption durably.
        journal = state / "sessions" / "dev" / "journal.jsonl"
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        begins = sum(r.get("t") == "build-begin" for r in records)
        ends = sum(r.get("t") == "build-end" for r in records)
        assert begins > ends

        # Round 2: restart over the same state directory; the daemon
        # reports the interrupted session and the resubmit resumes
        # from the journal to a bit-identical manifest.
        proc, port, banner = _spawn_daemon(state)
        try:
            assert "found 1 interrupted session(s): dev" in banner, banner
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            summary, manifest = client.compile(
                APP, effort=EFFORT, session="dev", timeout=120)
            assert summary["resumed"] > 0, \
                "restart did not resume journaled steps"
            assert manifest == reference
            client.shutdown()
            client.close()
        finally:
            assert _reap_daemon(proc) == 0


def _reap_daemon(proc, timeout=30):
    """Wait for a daemon subprocess; on timeout (e.g. an assertion
    earlier in the test skipped the shutdown request) kill it so the
    real failure surfaces instead of a TimeoutExpired in a finally."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        return None


def _spawn_shard(state_dir):
    """Start ``pld store serve`` as a real subprocess; returns
    (process, url)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "store", "serve",
         str(state_dir), "--port", "0"],
        cwd=str(REPO), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    assert "serving" in line, f"shard failed to start: {line!r}"
    return proc, line.rsplit(" on ", 1)[1].strip()


@pytest.mark.slow
class TestCrossDaemonMigration:
    """Acceptance: a session SIGKILLed mid-build on daemon A resumes
    bit-identically on daemon B over the shared shard fleet — the
    same scenario the CI serve-fleet smoke job runs."""

    def test_sigkill_daemon_a_resume_on_daemon_b(self, tmp_path):
        shards, urls = [], []
        try:
            for i in range(3):
                proc, url = _spawn_shard(tmp_path / f"shard{i}")
                shards.append(proc)
                urls.append(url)
            store_arg = ("--store", ",".join(urls))

            # Reference: the same session compiled on a never-crashed
            # *storeless* daemon.  Manifests are deterministic, so it
            # is still the bit-identity baseline — and the fleet stays
            # cold, so daemon A's build below actually executes steps
            # (a warm fleet would serve every step from the store and
            # the crash plan would never fire).
            proc, port, _ = _spawn_daemon(tmp_path / "clean")
            try:
                client = ServiceClient("127.0.0.1", port, timeout=120.0)
                _, reference = client.compile(
                    APP, effort=EFFORT, session="dev", timeout=120)
                client.shutdown()
                client.close()
            finally:
                _reap_daemon(proc)

            # Daemon A: SIGKILL itself mid-build via the hidden
            # crash_at_step submit field.
            proc, port, _ = _spawn_daemon(tmp_path / "a", *store_arg)
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            ticket = client.submit(APP, effort=EFFORT, session="dev",
                                   crash_at_step=3)
            with pytest.raises((ServiceError, TransportError)):
                client.result(ticket, timeout=120)
            client.close()
            assert proc.wait(timeout=60) in (-signal.SIGKILL, 137)

            # Daemon B: a *different* state directory over the same
            # fleet.  The published lease + journal let it adopt the
            # interrupted session and resume to a bit-identical
            # manifest.
            proc, port, _ = _spawn_daemon(tmp_path / "b", *store_arg)
            try:
                client = ServiceClient("127.0.0.1", port, timeout=120.0)
                summary, manifest = client.compile(
                    APP, effort=EFFORT, session="dev", timeout=120)
                assert summary["resumed"] > 0, \
                    "daemon B did not adopt the interrupted journal"
                assert manifest == reference
                client.shutdown()
                client.close()
            finally:
                assert _reap_daemon(proc) == 0
        finally:
            for proc in shards:
                proc.kill()
                proc.wait(timeout=10)


@pytest.mark.slow
class TestSigtermDrain:
    """Acceptance: SIGTERM while a build is in flight → the daemon
    finishes the build, answers new submits ``kind="draining"``, exits
    0, and a peer daemon over the same fleet picks the session up
    bit-identically — the same scenario the CI overload-smoke job runs."""

    def test_sigterm_drains_and_peer_adopts(self, tmp_path):
        shards, urls = [], []
        try:
            for i in range(3):
                proc, url = _spawn_shard(tmp_path / f"shard{i}")
                shards.append(proc)
                urls.append(url)
            store_arg = ("--store", ",".join(urls))

            # Bit-identity baseline on a storeless daemon (keeps the
            # fleet cold so daemon A's build actually runs steps).
            proc, port, _ = _spawn_daemon(tmp_path / "clean")
            try:
                client = ServiceClient("127.0.0.1", port, timeout=120.0)
                _, reference = client.compile(
                    APP, effort=EFFORT, session="dev", timeout=120)
                client.shutdown()
                client.close()
            finally:
                _reap_daemon(proc)

            # Daemon A: SIGTERM lands while the build is running.
            proc, port, _ = _spawn_daemon(tmp_path / "a", *store_arg)
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            ticket = client.submit(APP, effort=EFFORT, session="dev")
            deadline = time.monotonic() + 60
            while client.status(ticket)["state"] == "queued":
                assert time.monotonic() < deadline, "build never started"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)

            # Draining: health still answers, ready flips false, and a
            # fresh submit bounces with the draining kind.
            health = client.health()
            assert health["live"]
            if not health["draining"]:       # signal still in flight
                time.sleep(0.2)
                assert client.health()["draining"]
            with pytest.raises(ServiceError) as exc:
                client.submit(APP, effort=EFFORT)
            assert exc.value.kind == "draining"

            # The in-flight build finishes and is delivered.
            summary, manifest = client.result(ticket, timeout=120)
            assert summary["ok"]
            assert manifest == reference
            client.close()
            assert proc.wait(timeout=60) == 0, \
                "SIGTERM drain did not exit cleanly"

            # Daemon B over the same fleet adopts the released session
            # and completes it bit-identically.
            proc, port, _ = _spawn_daemon(tmp_path / "b", *store_arg)
            try:
                client = ServiceClient("127.0.0.1", port, timeout=120.0)
                summary, adopted = client.compile(
                    APP, effort=EFFORT, session="dev", timeout=120)
                assert adopted == reference
                client.shutdown()
                client.close()
            finally:
                assert _reap_daemon(proc) == 0
        finally:
            for proc in shards:
                proc.kill()
                proc.wait(timeout=10)
