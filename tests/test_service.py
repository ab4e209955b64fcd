"""Tests for the compile-service core (repro.service).

The session-manager layer every frontend shares: ticket lifecycle,
CLI-parity manifests, cross-tenant dedup through the shared store,
leased-session resume from the journal, and resource lifecycle
(idempotent close, no thread/fd leaks under repeated open/close).
"""

import json
import multiprocessing
import os
import pathlib
import threading
import time

import pytest

from repro.errors import FlowError, ServiceError
from repro.service import (
    CompileRequest,
    CompileService,
    ServiceConfig,
)

APP = "digit-recognition"
EFFORT = 0.1


def manifest_bytes(build) -> bytes:
    return json.dumps(build.manifest(), indent=2,
                      sort_keys=True).encode()


# --------------------------------------------------------------------------
# ticket lifecycle
# --------------------------------------------------------------------------


class TestTickets:
    def test_submit_status_result(self):
        with CompileService(ServiceConfig()) as service:
            ticket = service.submit(
                CompileRequest(app=APP, effort=EFFORT))
            assert ticket.startswith("t")
            outcome = service.result(ticket, timeout=120)
            assert outcome.kind == "compile"
            assert outcome.build is not None
            status = service.status(ticket)
            assert status["state"] == "done"
            assert status["position"] is None

    def test_unknown_ticket_rejected(self):
        with CompileService(ServiceConfig()) as service:
            with pytest.raises(ServiceError, match="unknown ticket"):
                service.status("t9999")

    def test_unknown_flow_rejected_at_submit(self):
        with CompileService(ServiceConfig()) as service:
            with pytest.raises(ServiceError, match="unknown flow"):
                service.submit(CompileRequest(app=APP, flow="gpu"))

    def test_failure_reraised_by_result(self):
        with CompileService(ServiceConfig()) as service:
            ticket = service.submit(
                CompileRequest(app="not-an-app", effort=EFFORT))
            with pytest.raises(FlowError, match="not-an-app"):
                service.result(ticket, timeout=60)
            assert service.status(ticket)["state"] == "failed"

    def test_submit_after_close_rejected(self):
        service = CompileService(ServiceConfig())
        service.close()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(CompileRequest(app=APP))


# --------------------------------------------------------------------------
# CLI parity: the service produces the manifests the old inline
# orchestration did
# --------------------------------------------------------------------------


class TestManifestParity:
    def test_oneshot_matches_inline_engine(self, tmp_path):
        # The pre-service CLI wiring, spelled out by hand.
        from repro.core import BuildEngine
        from repro.core.flows import FLOWS
        from repro.store import ArtifactStore

        engine = BuildEngine(
            cache=ArtifactStore(cache_dir=tmp_path / "inline"))
        inline = FLOWS["o1"](effort=EFFORT).compile(
            __import__("repro.rosetta", fromlist=["get_app"])
            .get_app(APP).project, engine)
        engine.close()

        with CompileService(ServiceConfig(
                cache_dir=str(tmp_path / "svc"))) as service:
            outcome = service.compile(
                CompileRequest(app=APP, effort=EFFORT), timeout=120)
        assert manifest_bytes(outcome.build) == manifest_bytes(inline)

    def test_session_compile_matches_oneshot(self, tmp_path):
        with CompileService(ServiceConfig()) as service:
            oneshot = service.compile(
                CompileRequest(app=APP, effort=EFFORT), timeout=120)
        with CompileService(ServiceConfig(cache_dir=str(tmp_path))) as service:
            leased = service.compile(
                CompileRequest(app=APP, effort=EFFORT, session="s1"),
                timeout=120)
        assert manifest_bytes(leased.build) \
            == manifest_bytes(oneshot.build)


# --------------------------------------------------------------------------
# cross-tenant dedup through the shared store
# --------------------------------------------------------------------------


class TestCrossTenantDedup:
    def test_second_tenant_hits_store(self, tmp_path):
        with CompileService(ServiceConfig(
                cache_dir=str(tmp_path),
                slots=2)) as service:
            first = service.compile(
                CompileRequest(app=APP, effort=EFFORT, tenant="alice",
                               session="s-alice"), timeout=120)
            second = service.compile(
                CompileRequest(app=APP, effort=EFFORT, tenant="bob",
                               session="s-bob"), timeout=120)
            assert first.dedup["impl_ratio"] == 0.0
            # The acceptance bar: >= 90% of the second tenant's impl
            # steps come from the shared store, not a rebuild.
            assert second.dedup["impl_ratio"] >= 0.9
            assert second.dedup["ratio"] >= 0.9
            stats = service.stats()
            assert stats["dedup_ratio"] > 0.0
            assert stats["store"]["hits"] > 0

    def test_oneshot_seed_reaches_the_flow(self, tmp_path):
        """The seed is a placement input: a one-shot request with a new
        seed must not be served the other seed's implementation."""
        with CompileService(ServiceConfig(cache_dir=str(tmp_path))) as service:
            first = service.compile(
                CompileRequest(app=APP, effort=EFFORT, seed=1),
                timeout=120)
            second = service.compile(
                CompileRequest(app=APP, effort=EFFORT, seed=2),
                timeout=120)
        assert second.dedup["impl_steps"] > 0
        assert second.dedup["impl_hits"] == 0
        assert manifest_bytes(second.build) \
            != manifest_bytes(first.build)

    def test_edit_only_dirties_one_operator(self, tmp_path):
        with CompileService(ServiceConfig(cache_dir=str(tmp_path))) as service:
            service.compile(
                CompileRequest(app=APP, effort=EFFORT, session="s1"),
                timeout=120)
            edited = service.compile(
                CompileRequest(app=APP, effort=EFFORT, session="s1",
                               edit_operator="first-hw"), timeout=120)
            assert edited.kind == "edit"
            assert len(edited.edit.dirty_operators) == 1
            assert edited.dedup["impl_ratio"] > 0.5

    def test_edit_without_baseline_rejected(self, tmp_path):
        with CompileService(ServiceConfig(cache_dir=str(tmp_path))) as service:
            ticket = service.submit(
                CompileRequest(app=APP, effort=EFFORT, session="s1",
                               edit_operator="first-hw"))
            with pytest.raises(ServiceError, match="no baseline"):
                service.result(ticket, timeout=60)

    def test_sessions_run_in_a_default_service(self):
        with CompileService(ServiceConfig()) as service:
            outcome = service.compile(
                CompileRequest(app=APP, effort=EFFORT, session="s1"),
                timeout=120)
        assert outcome.kind == "compile"


# --------------------------------------------------------------------------
# the store root's journal: one build at a time, so one slot only
# --------------------------------------------------------------------------


class TestRootJournal:
    def test_root_journal_only_when_one_slot(self, tmp_path):
        from repro.resilience import journal_path, load_journal

        root_journal = journal_path(tmp_path)
        with CompileService(ServiceConfig(cache_dir=str(tmp_path),
                                          slots=2)) as service:
            service.compile(CompileRequest(app=APP, effort=EFFORT),
                            timeout=120)
        assert not root_journal.exists()

        with CompileService(ServiceConfig(cache_dir=str(tmp_path),
                                          slots=1)) as service:
            service.compile(CompileRequest(app=APP, effort=EFFORT),
                            timeout=120)
        records, _ = load_journal(root_journal)
        assert records[0]["t"] == "build-begin"
        assert records[-1]["t"] == "build-end"


# --------------------------------------------------------------------------
# leased sessions: leases on disk, resume from the journal
# --------------------------------------------------------------------------


class TestSessionLeases:
    def test_lease_written_and_released(self, tmp_path):
        service = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
        service.compile(CompileRequest(app=APP, effort=EFFORT,
                                       tenant="alice", session="s1"),
                        timeout=120)
        lease_path = tmp_path / "sessions" / "s1" / "lease.json"
        lease = json.loads(lease_path.read_text())
        assert lease["tenant"] == "alice"
        assert lease["status"] == "idle"
        service.close()
        lease = json.loads(lease_path.read_text())
        assert lease["status"] == "released"

    def test_bad_session_names_rejected(self, tmp_path):
        with CompileService(ServiceConfig(cache_dir=str(tmp_path))) as service:
            for bad in ("../escape", ".hidden", "a/b"):
                ticket = service.submit(
                    CompileRequest(app=APP, effort=EFFORT, session=bad))
                with pytest.raises(ServiceError,
                                   match="bad session name"):
                    service.result(ticket, timeout=60)

    def test_interrupted_session_resumes_bit_identical(self, tmp_path):
        # A clean run, whose journal we then truncate to look as if
        # the daemon died after the steps landed but before build-end
        # — exactly what SIGKILL mid-final-step leaves behind.
        service = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
        clean = service.compile(
            CompileRequest(app=APP, effort=EFFORT, session="s1"),
            timeout=120)
        service.close()
        clean_manifest = manifest_bytes(clean.build)

        journal = tmp_path / "sessions" / "s1" / "journal.jsonl"
        lines = [line for line in journal.read_text().splitlines()
                 if json.loads(line).get("t") != "build-end"]
        journal.write_text("\n".join(lines) + "\n")

        restarted = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
        assert restarted.interrupted_sessions() == ["s1"]
        resumed = restarted.compile(
            CompileRequest(app=APP, effort=EFFORT, session="s1"),
            timeout=120)
        restarted.close()
        assert resumed.resumed            # journal replay skipped steps
        assert manifest_bytes(resumed.build) == clean_manifest

    def test_clean_restart_not_interrupted(self, tmp_path):
        service = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
        service.compile(
            CompileRequest(app=APP, effort=EFFORT, session="s1"),
            timeout=120)
        service.close()
        restarted = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
        assert restarted.interrupted_sessions() == []
        restarted.close()


# --------------------------------------------------------------------------
# the shared worker pool
# --------------------------------------------------------------------------

# Step functions must be module-level so they pickle into the workers.

def _crash_in_worker(x):
    """Dies hard in a worker process; succeeds when retried in-parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x + 1


def _pid(_x):
    return os.getpid()


class TestSharedPool:
    def test_pool_replaced_after_worker_crash(self):
        """A worker crash breaks the pool the service lends; the
        service replaces it, so every later batch (here the next
        engine's two) runs on live workers, not in-process, and no
        engine starts a private pool."""
        from repro.core import BatchStep

        with CompileService(ServiceConfig(workers=2)) as service:
            first = service.build_engine()
            crashes = [BatchStep(f"crash:{i}", (i,), _crash_in_worker, (i,))
                       for i in range(3)]
            assert first.step_batch(crashes) == [1, 2, 3]
            assert first.worker_retries >= 1
            first.close()

            second = service.build_engine()
            for batch in range(2):
                steps = [BatchStep(f"pid:{batch}:{i}", (batch, i), _pid,
                                   (i,)) for i in range(4)]
                pids = second.step_batch(steps)
                assert os.getpid() not in pids, \
                    f"batch {batch} ran in the parent"
                assert second.worker_retries == 0
                assert second._pool is service._pool
            second.close()


# --------------------------------------------------------------------------
# lifecycle: idempotent close, no thread/fd growth
# --------------------------------------------------------------------------


def open_fds() -> int:
    return len(list(pathlib.Path("/proc/self/fd").iterdir()))


class TestLifecycle:
    def test_service_close_idempotent(self, tmp_path):
        service = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
        service.compile(CompileRequest(app=APP, effort=EFFORT),
                        timeout=120)
        service.close()
        service.close()                    # second close is a no-op
        assert repr(service).startswith("CompileService(closed")

    def test_engine_close_idempotent(self):
        from repro.core import BuildEngine
        engine = BuildEngine()
        engine.close()
        engine.close()

    def test_borrowed_cache_survives_engine_close(self, tmp_path):
        from repro.core import BuildEngine
        from repro.store import ArtifactStore

        store = ArtifactStore(cache_dir=tmp_path)
        engine = BuildEngine(cache=store, owns_cache=False)
        engine.step("step:a", ("x",), lambda: {"v": 1})
        engine.close()
        # The store is still usable: the service owns it, not the
        # per-request engine.
        assert store.get(engine.record.keys["step:a"]) == {"v": 1}

    def test_service_soak_no_thread_or_fd_growth(self, tmp_path):
        # Warm-up pass so lazily-created singletons don't count.
        for cycle in range(2):
            service = CompileService(ServiceConfig(
                cache_dir=str(tmp_path / "soak")))
            service.compile(CompileRequest(app=APP, effort=EFFORT,
                                           session="s1"), timeout=120)
            service.close()
        threads_before = threading.active_count()
        fds_before = open_fds()
        for cycle in range(5):
            service = CompileService(ServiceConfig(
                cache_dir=str(tmp_path / "soak")))
            service.compile(CompileRequest(app=APP, effort=EFFORT,
                                           session="s1"), timeout=120)
            service.close()
        assert threading.active_count() <= threads_before
        assert open_fds() <= fds_before + 1   # tolerate /proc jitter

    def test_sharded_client_soak_with_quarantined_shard(self, tmp_path):
        # close() must join the reconciler even while a shard is
        # quarantined, across repeated open/close cycles.
        from repro.store import ArtifactStore
        from repro.store.remote import ShardedStoreClient, StoreServer

        server = StoreServer(
            ArtifactStore(cache_dir=tmp_path / "shard")).start()
        dead_url = "tcp://127.0.0.1:1"     # nothing listens here
        urls = [server.url, dead_url]
        try:
            threads_before = threading.active_count()
            fds_before = open_fds()
            for cycle in range(4):
                client = ShardedStoreClient(
                    urls, retries=1, backoff_base=0.001, timeout=1.0)
                client.start_reconciler(interval=0.05)
                for i in range(8):
                    client.put(f"{i:02d}" + "cd" * 11, {"i": i})
                assert client.breaker.is_open(dead_url) \
                    or client.stats()["pending"]
                client.close()
                client.close()             # idempotent
            # The shard's per-connection threads exit asynchronously
            # once the client hangs up; give them a moment to drain.
            deadline = time.monotonic() + 5.0
            while (threading.active_count() > threads_before
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert threading.active_count() <= threads_before
            assert open_fds() <= fds_before + 2
        finally:
            server.stop()

    def test_store_server_stop_idempotent(self, tmp_path):
        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        server = StoreServer(
            ArtifactStore(cache_dir=tmp_path / "s")).start()
        server.stop()
        server.stop()                      # second stop is a no-op


# --------------------------------------------------------------------------
# cross-daemon session migration (shared shard fleet)
# --------------------------------------------------------------------------


class TestCrossDaemonAdoption:
    """Tentpole: session migration between daemons over a shared shard
    fleet, with lease-epoch fencing so two daemons never both own a
    session."""

    @staticmethod
    def _service(tmp_path, urls, name):
        return CompileService(ServiceConfig(
            cache_dir=str(tmp_path / name),
            store_urls=",".join(urls), slots=2,
            daemon_id=name))

    @staticmethod
    def _compile(service, session="dev"):
        ticket = service.submit(CompileRequest(
            app=APP, effort=EFFORT, session=session))
        return service.result(ticket)

    def test_session_migrates_and_stale_owner_is_fenced(self, tmp_path):
        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        servers = [StoreServer(ArtifactStore(cache_dir=None)).start()
                   for _ in range(3)]
        a = b = None
        try:
            urls = [s.url for s in servers]
            a = self._service(tmp_path, urls, "daemon-a")
            manifest = self._compile(a).build.manifest()

            # Daemon B (separate state dir, same fleet) adopts the
            # published session: warm compile, bit-identical manifest.
            b = self._service(tmp_path, urls, "daemon-b")
            outcome_b = self._compile(b)
            assert outcome_b.build.manifest() == manifest
            lease_b = json.loads(
                (tmp_path / "daemon-b" / "sessions" / "dev" /
                 "lease.json").read_text())
            assert lease_b["owner"] == "daemon-b"

            # A's lease is now stale: its next build is fenced off.
            ticket = a.submit(CompileRequest(
                app=APP, effort=EFFORT, session="dev"))
            with pytest.raises(ServiceError, match="fenced") as exc:
                a.result(ticket)
            assert exc.value.kind == "fenced"

            # Resubmitting on A re-adopts at a higher epoch...
            outcome_a = self._compile(a)
            assert outcome_a.build.manifest() == manifest
            lease_a = json.loads(
                (tmp_path / "daemon-a" / "sessions" / "dev" /
                 "lease.json").read_text())
            assert lease_a["epoch"] > lease_b["epoch"]

            # ...which fences B in turn: last adopter wins.
            ticket = b.submit(CompileRequest(
                app=APP, effort=EFFORT, session="dev"))
            with pytest.raises(ServiceError, match="fenced"):
                b.result(ticket)
        finally:
            for service in (a, b):
                if service is not None:
                    service.close()
            for server in servers:
                server.stop()

    def test_adoption_replays_interrupted_journal(self, tmp_path):
        """A session whose owner died mid-build (journal shows
        build-begin > build-end) resumes on the adopting daemon."""
        from repro.resilience.journal import journal_path
        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        servers = [StoreServer(ArtifactStore(cache_dir=None)).start()
                   for _ in range(3)]
        a = b = None
        try:
            urls = [s.url for s in servers]
            a = self._service(tmp_path, urls, "daemon-a")
            manifest = self._compile(a).build.manifest()

            # Forge the interruption daemon A would leave behind if
            # SIGKILLed mid-build: an unmatched build-begin appended to
            # the journal, republished to the fleet.
            directory = tmp_path / "daemon-a" / "sessions" / "dev"
            with journal_path(directory).open("a") as fh:
                fh.write(json.dumps({"t": "build-begin"}) + "\n")
            state = a._sessions["dev"]
            a._publish_session(state, a._read_lease(directory))

            b = self._service(tmp_path, urls, "daemon-b")
            assert "dev" not in b.interrupted_sessions()  # not adopted yet
            outcome_b = self._compile(b)
            assert outcome_b.build.manifest() == manifest
            # The adopted journal marked the build interrupted, so B's
            # compile resumed the journaled steps rather than starting
            # a fresh journal.
            assert outcome_b.resumed
        finally:
            for service in (a, b):
                if service is not None:
                    service.close()
            for server in servers:
                server.stop()

    def test_journal_appends_republish_mid_build(self, tmp_path):
        """Every journal append republishes session-meta to the fleet.

        Regression: publication only happened at lease transitions, so
        a daemon SIGKILLed mid-build published a journal from *before*
        any step ran — its adopter found nothing to resume (the
        subprocess variant is
        TestCrossDaemonMigration.test_sigkill_daemon_a_resume_on_daemon_b).
        """
        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        servers = [StoreServer(ArtifactStore(cache_dir=None)).start()
                   for _ in range(3)]
        a = None
        try:
            urls = [s.url for s in servers]
            a = self._service(tmp_path, urls, "daemon-a")
            self._compile(a)
            state = a._sessions["dev"]
            journal = state.session.journal
            assert journal is not None and journal.publish is not None

            # An append mid-build (no lease transition) must be
            # visible to a peer's fresh_get immediately.
            journal.end_step("forged-step", "key:forged")
            meta = a._published_meta("dev")
            assert meta is not None
            assert '"forged-step"' in meta["journal"]
        finally:
            if a is not None:
                a.close()
            for server in servers:
                server.stop()

    def test_no_fleet_means_no_adoption_machinery(self, tmp_path):
        """Without store_urls the shared plane is off: publication and
        fencing are no-ops and plain sessions behave as before."""
        service = CompileService(ServiceConfig(
            cache_dir=str(tmp_path / "state"), slots=2))
        try:
            outcome = self._compile(service)
            assert outcome.build is not None
            assert service._published_meta("dev") is None
        finally:
            service.close()
