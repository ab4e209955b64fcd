"""Unit tests for the sharded remote artifact store.

Framing, routing, the server/client protocol, and every robustness
layer in isolation: retry budgets with backoff, transport fault
injection, breaker quarantine with half-open probes, degraded-mode
fallback with write-behind reconciliation, and hedged reads.
"""

import socket
import threading

import pytest

from repro.errors import (
    FrameError,
    StoreError,
    StoreUnavailableError,
    TransportError,
)
from repro.faults import FaultPlan
from repro.store import ArtifactStore
from repro.store.remote import (
    ShardClient,
    ShardedStoreClient,
    StoreServer,
    parse_store_urls,
    recv_frame,
    rendezvous_shard,
    send_frame,
)
from repro.trace import Tracer

KEYS = [f"{i:04x}" + "ab" * 10 for i in range(64)]


def art(i):
    return {"index": i, "payload": list(range(8))}


@pytest.fixture
def shard(tmp_path):
    server = StoreServer(ArtifactStore(cache_dir=tmp_path / "shard0"))
    server.start()
    yield server
    server.stop()


@pytest.fixture
def fleet(tmp_path):
    servers = [
        StoreServer(ArtifactStore(cache_dir=tmp_path / f"shard{i}"))
        for i in range(3)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


def fast_client(urls, **kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_base", 0.001)
    kwargs.setdefault("timeout", 2.0)
    return ShardedStoreClient(urls, **kwargs)


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------


class TestFraming:
    def _pair(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.create_connection(server.getsockname(),
                                          timeout=2.0)
        conn, _ = server.accept()
        server.close()
        return client, conn

    def test_roundtrip(self):
        a, b = self._pair()
        send_frame(a, {"op": "get", "key": "k"}, b"payload bytes")
        header, payload = recv_frame(b)
        assert header == {"key": "k", "op": "get"}
        assert payload == b"payload bytes"
        a.close(), b.close()

    def test_empty_payload(self):
        a, b = self._pair()
        send_frame(a, {"op": "ping"})
        header, payload = recv_frame(b)
        assert header["op"] == "ping" and payload == b""
        a.close(), b.close()

    def test_half_close_mid_frame_is_frame_error(self):
        a, b = self._pair()
        # One complete frame, then the peer dies: EOF must surface as
        # a structured FrameError, not a hang or a bare OSError.
        send_frame(a, {"op": "put"}, b"x" * 1000)
        a.close()
        header, payload = recv_frame(b)     # the complete frame is fine
        assert payload == b"x" * 1000
        with pytest.raises(FrameError, match="half-closed"):
            recv_frame(b)                   # EOF at a frame boundary
        b.close()

    def test_truncated_frame_is_frame_error(self):
        a, b = self._pair()
        a.sendall(b"\x00\x00\x00\x05{}")    # promises 5 header bytes
        a.close()
        with pytest.raises(FrameError):
            recv_frame(b)
        b.close()

    def test_garbage_header_is_frame_error(self):
        a, b = self._pair()
        head = b"not json!!"
        import struct
        a.sendall(struct.pack(">I", len(head)) + head
                  + struct.pack(">Q", 0))
        with pytest.raises(FrameError, match="corrupt frame header"):
            recv_frame(b)
        a.close(), b.close()

    def test_non_dict_header_is_frame_error(self):
        a, b = self._pair()
        import struct
        head = b"[1, 2]"
        a.sendall(struct.pack(">I", len(head)) + head
                  + struct.pack(">Q", 0))
        with pytest.raises(FrameError, match="expected object"):
            recv_frame(b)
        a.close(), b.close()

    def test_oversized_header_length_rejected(self):
        a, b = self._pair()
        a.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(b)
        a.close(), b.close()

    def test_timeout_is_transport_error(self):
        a, b = self._pair()
        b.settimeout(0.05)
        with pytest.raises(TransportError, match="deadline"):
            recv_frame(b)
        a.close(), b.close()


# --------------------------------------------------------------------------
# routing
# --------------------------------------------------------------------------


class TestRendezvous:
    URLS = [f"tcp://10.0.0.{i}:7000" for i in range(1, 6)]

    def test_deterministic_and_order_independent(self):
        for key in KEYS:
            owner = rendezvous_shard(key, self.URLS)
            assert owner == rendezvous_shard(key, list(reversed(self.URLS)))

    def test_shard_loss_only_remaps_that_shards_keys(self):
        before = {key: rendezvous_shard(key, self.URLS) for key in KEYS}
        lost = self.URLS[2]
        survivors = [u for u in self.URLS if u != lost]
        for key in KEYS:
            after = rendezvous_shard(key, survivors)
            if before[key] != lost:
                assert after == before[key]     # untouched keys stay put
            else:
                assert after in survivors

    def test_spreads_keys(self):
        owners = {rendezvous_shard(key, self.URLS) for key in KEYS}
        assert len(owners) == len(self.URLS)

    def test_parse_store_urls(self):
        assert parse_store_urls("tcp://a:1, tcp://b:2") \
            == ["tcp://a:1", "tcp://b:2"]
        with pytest.raises(StoreError):
            parse_store_urls("")
        with pytest.raises(StoreError):
            parse_store_urls("tcp://nohost")
        with pytest.raises(StoreError):
            parse_store_urls("tcp://h:notaport")


# --------------------------------------------------------------------------
# server protocol
# --------------------------------------------------------------------------


class TestServerProtocol:
    def test_put_get_roundtrip(self, shard):
        client = ShardClient(shard.url)
        from repro.store.serial import decode_artifact, encode_artifact
        key = KEYS[0]
        client.request("put", key, encode_artifact(key, art(1)))
        response, payload = client.request("get", key)
        assert response["found"]
        _kind, got = decode_artifact(payload, expect_key=key)
        assert got == art(1)
        client.close()

    def test_get_miss(self, shard):
        client = ShardClient(shard.url)
        response, payload = client.request("get", KEYS[1])
        assert response["ok"] and not response["found"]
        assert payload == b""
        client.close()

    def test_ping_keys_stats(self, shard):
        client = ShardClient(shard.url)
        response, _ = client.request("ping")
        assert response["ok"] and response["shard"]
        from repro.store.serial import encode_artifact
        client.request("put", KEYS[2], encode_artifact(KEYS[2], art(2)))
        response, _ = client.request("keys")
        assert KEYS[2] in response["keys"]
        response, _ = client.request("stats")
        assert response["stats"]["server_requests"] >= 3
        client.close()

    def test_corrupt_put_rejected_before_store(self, shard):
        client = ShardClient(shard.url, retries=1)
        with pytest.raises(StoreError, match="rejected put"):
            client.request("put", KEYS[3], b"garbage payload")
        response, _ = client.request("get", KEYS[3])
        assert not response["found"]        # nothing landed
        client.close()

    def test_remote_fsck(self, shard, tmp_path):
        client = ShardClient(shard.url)
        response, _ = client.request("fsck", extra={"grace": 0})
        assert response["ok"] and response["report"]["clean"]
        client.close()

    def test_unknown_op(self, shard):
        client = ShardClient(shard.url, retries=1)
        with pytest.raises(StoreError, match="unknown op"):
            client.request("frobnicate")
        client.close()


# --------------------------------------------------------------------------
# retry ladder
# --------------------------------------------------------------------------


class TestRetries:
    def test_unreachable_shard_exhausts_budget(self):
        sleeps = []
        client = ShardClient("tcp://127.0.0.1:1", retries=3,
                             backoff_base=0.01, timeout=0.2,
                             sleep=sleeps.append)
        with pytest.raises(StoreUnavailableError, match="3 attempt"):
            client.request("ping")
        assert client.attempts == 3
        # Exponential backoff between attempts (2 gaps for 3 tries),
        # each with nonnegative jitter on the doubling base.
        assert len(sleeps) == 2
        assert 0.01 <= sleeps[0] <= 0.02
        assert 0.02 <= sleeps[1] <= 0.04

    def test_backoff_jitter_is_deterministic(self):
        def run():
            sleeps = []
            client = ShardClient("tcp://127.0.0.1:1", retries=3,
                                 backoff_base=0.01, timeout=0.2,
                                 seed=42, sleep=sleeps.append)
            with pytest.raises(StoreUnavailableError):
                client.request("ping")
            return sleeps
        assert run() == run()

    def test_transient_drop_clears_on_retry(self, shard):
        # 40% drop rate: some requests lose an attempt, but every one
        # lands within the retry budget at this rate and seed.
        plan = FaultPlan(seed=3, transport_drop_rate=0.4)
        client = ShardClient(shard.url, retries=8, backoff_base=0.0001,
                             faults=plan.transport_faults())
        for _ in range(20):
            response, _ = client.request("ping")
            assert response["ok"]
        assert client.failures > 0          # faults actually fired
        assert plan.events("transport")
        client.close()

    def test_corrupt_frame_fault_retries(self, shard):
        plan = FaultPlan(seed=5, transport_corrupt_rate=0.3)
        client = ShardClient(shard.url, retries=8, backoff_base=0.0001,
                             faults=plan.transport_faults())
        from repro.store.serial import encode_artifact
        for i in range(10):
            client.request("put", KEYS[i], encode_artifact(KEYS[i],
                                                           art(i)))
        kinds = {e.kind for e in plan.events("transport")}
        assert "corrupt-frame" in kinds
        client.close()


# --------------------------------------------------------------------------
# breaker quarantine + degraded mode + reconciliation
# --------------------------------------------------------------------------


class TestDegradedMode:
    def test_dead_shard_degrades_reads_to_local_miss(self, fleet):
        urls = [server.url for server in fleet]
        seed_client = fast_client(urls)
        for i, key in enumerate(KEYS[:24]):
            seed_client.put(key, art(i))
        seed_client.close()

        fleet[0].stop()
        client = fast_client(urls, quarantine_seconds=3600)
        dead_keys = [k for k in KEYS[:24]
                     if client.shard_for(k) == urls[0]]
        assert dead_keys                   # the fixture spreads keys
        hits = sum(1 for k in KEYS[:24] if client.get(k) is not None)
        assert hits == 24 - len(dead_keys)
        stats = client.stats()
        assert stats["breaker_trips"] == 1
        assert stats["quarantined"] == [urls[0]]
        assert stats["degraded_gets"] > 0
        # Quarantine caps the cost: only breaker_threshold requests
        # ever burned a retry ladder on the dead shard.
        assert client.shards[urls[0]].attempts \
            <= client.breaker.failure_threshold * 2
        client.close()

    def test_degraded_puts_land_locally_and_reconcile(self, fleet,
                                                      tmp_path):
        urls = [server.url for server in fleet]
        clock = [0.0]
        client = fast_client(
            urls, quarantine_seconds=10.0, clock=lambda: clock[0],
            fallback=ArtifactStore(cache_dir=tmp_path / "local"))
        victim_keys = [k for k in KEYS if client.shard_for(k) == urls[1]]
        assert len(victim_keys) >= 4

        host, port = fleet[1].address
        fleet[1].stop()
        for i, key in enumerate(victim_keys[:6]):
            client.put(key, art(i))
        stats = client.stats()
        assert stats["degraded_puts"] >= 4
        assert stats["pending"][urls[1]] == 6
        # Degraded reads still serve from the local fallback.
        assert client.get(victim_keys[0]) == art(0)

        # While quarantined, reconcile is a cheap no-op.
        assert client.reconcile() == 0

        # Heal the shard on the same port, advance past the cooldown.
        healed = StoreServer(
            ArtifactStore(cache_dir=tmp_path / "healed"),
            host=host, port=port).start()
        try:
            clock[0] += 11.0               # cooldown admits the probe
            drained = client.reconcile()
            assert drained == 6
            assert client.stats()["pending"] == {}
            assert not client.breaker.is_open(urls[1])
            # A cold client now finds the artefacts remotely.
            fresh = fast_client(urls)
            assert fresh.get(victim_keys[0]) == art(0)
            assert fresh.stats()["remote_hits"] == 1
            fresh.close()
        finally:
            healed.stop()
        client.close()

    def test_half_open_probe_failure_rearms_quarantine(self, fleet):
        urls = [server.url for server in fleet]
        clock = [0.0]
        client = fast_client(urls, quarantine_seconds=5.0,
                             clock=lambda: clock[0])
        victim = [k for k in KEYS if client.shard_for(k) == urls[2]][0]
        fleet[2].stop()
        for _ in range(4):
            client.get(victim)
        assert client.breaker.is_open(urls[2])
        clock[0] += 6.0                    # half-open: one probe admitted
        assert client.get(victim) is None  # probe fails, re-arms
        assert client.breaker.is_open(urls[2])
        # Immediately after the failed probe, no new probe until the
        # cooldown elapses again.
        attempts_before = client.shards[urls[2]].attempts
        client.get(victim)
        assert client.shards[urls[2]].attempts == attempts_before
        client.close()

    def test_strict_mode_propagates(self, fleet):
        urls = [server.url for server in fleet]
        client = fast_client(urls, strict=True)
        victim = [k for k in KEYS if client.shard_for(k) == urls[0]][0]
        fleet[0].stop()
        with pytest.raises(StoreUnavailableError):
            client.get(victim)
        client.close()

    def test_health_transitions_traced(self, fleet, tmp_path):
        urls = [server.url for server in fleet]
        tracer = Tracer()
        clock = [0.0]
        client = fast_client(
            urls, tracer=tracer, quarantine_seconds=2.0,
            clock=lambda: clock[0],
            fallback=ArtifactStore(cache_dir=tmp_path / "local"))
        victim_keys = [k for k in KEYS if client.shard_for(k) == urls[0]]
        host, port = fleet[0].address
        fleet[0].stop()
        for i, key in enumerate(victim_keys[:5]):
            client.put(key, art(i))
        healed = StoreServer(
            ArtifactStore(cache_dir=tmp_path / "h"),
            host=host, port=port).start()
        try:
            clock[0] += 3.0
            client.reconcile()
        finally:
            healed.stop()
        names = [e.name for e in tracer.events]
        assert f"shard:breaker-open:{urls[0]}" in names
        assert f"shard:degraded:{urls[0]}" in names
        assert f"shard:healed:{urls[0]}" in names
        assert f"shard:reconciled:{urls[0]}" in names
        client.close()

    def test_second_outage_below_threshold_traced_again(self, fleet):
        """A shard that fails, answers, then fails again (never reaching
        ``breaker_threshold``) had two outages: each gets its own
        'degraded' instant, and neither a 'healed' one."""
        urls = [server.url for server in fleet]
        tracer = Tracer()
        client = fast_client(urls, retries=1, tracer=tracer)
        victims = [k for k in KEYS if client.shard_for(k) == urls[0]]
        host, port = fleet[0].address
        fleet[0].stop()
        assert client.get(victims[0]) is None      # outage 1
        revived = StoreServer(ArtifactStore(cache_dir=None),
                              host=host, port=port).start()
        try:
            assert client.get(victims[1]) is None  # answered: a miss
        finally:
            revived.stop()
        assert client.get(victims[2]) is None      # outage 2
        stats = client.stats()
        assert stats["degraded_gets"] == 2
        assert stats["remote_misses"] == 1
        assert stats["breaker_trips"] == 0
        names = [e.name for e in tracer.events]
        assert names.count(f"shard:degraded:{urls[0]}") == 2
        assert f"shard:healed:{urls[0]}" not in names
        client.close()

    def test_put_landing_mid_reconcile_is_not_dropped(self, fleet,
                                                      tmp_path):
        """A degraded put racing a reconcile pass must survive to the
        next pass, not vanish when reconcile() replaces the queue."""
        urls = [server.url for server in fleet]
        client = fast_client(
            urls, quarantine_seconds=0.0,
            fallback=ArtifactStore(cache_dir=tmp_path / "local"))
        victims = [k for k in KEYS if client.shard_for(k) == urls[0]]
        host, port = fleet[0].address
        fleet[0].stop()
        client.put(victims[0], art(0))
        assert client.stats()["pending"][urls[0]] == 1

        healed = StoreServer(ArtifactStore(cache_dir=tmp_path / "h"),
                             host=host, port=port).start()
        try:
            # While reconcile is pushing the first owed key, another
            # thread's degraded put lands — simulated by hooking the
            # shard's request() at exactly that moment.
            real_request = client.shards[urls[0]].request

            def racing_request(op, key="", payload=b"", **kwargs):
                if op == "multi_put":
                    client.fallback.put(victims[1], art(1))
                    client._owe(urls[0], victims[1])
                return real_request(op, key=key, payload=payload,
                                    **kwargs)

            client.shards[urls[0]].request = racing_request
            assert client.reconcile() == 1
            client.shards[urls[0]].request = real_request
            # The racing key is still owed, and the next pass pushes it.
            assert client.stats()["pending"][urls[0]] == 1
            assert client.reconcile() == 1
            assert client.stats()["pending"] == {}
        finally:
            healed.stop()
        client.close()

    def test_reconciled_trace_fires_per_shard(self, fleet, tmp_path):
        """A shard that drained nothing (all owed keys locally evicted)
        must not emit a 'reconciled' instant just because an earlier
        shard in the same pass drained something."""
        urls = [server.url for server in fleet]
        tracer = Tracer()
        client = fast_client(
            urls, tracer=tracer, quarantine_seconds=0.0,
            fallback=ArtifactStore(cache_dir=tmp_path / "local"))
        key_a = [k for k in KEYS if client.shard_for(k) == urls[0]][0]
        key_b = [k for k in KEYS if client.shard_for(k) == urls[1]][0]
        host, port = fleet[0].address
        fleet[0].stop()
        client.put(key_a, art(0))
        client._owe(urls[1], key_b)    # owed, but never banked locally
        healed = StoreServer(ArtifactStore(cache_dir=tmp_path / "h"),
                             host=host, port=port).start()
        try:
            assert client.reconcile() == 1
        finally:
            healed.stop()
        names = [e.name for e in tracer.events]
        assert f"shard:reconciled:{urls[0]}" in names
        assert f"shard:reconciled:{urls[1]}" not in names
        client.close()

    def test_multi_put_owes_dead_shards_batch_until_reconcile(
            self, fleet, tmp_path):
        urls = [server.url for server in fleet]
        client = fast_client(
            urls, retries=1,
            fallback=ArtifactStore(cache_dir=tmp_path / "local"))
        victims = [k for k in KEYS[:40] if client.shard_for(k) == urls[1]]
        assert len(victims) >= 4
        host, port = fleet[1].address
        fleet[1].stop()
        client.multi_put({key: art(i) for i, key in enumerate(KEYS[:40])})
        stats = client.stats()
        assert stats["degraded_puts"] == 1         # one frame, one shard
        assert stats["pending"] == {urls[1]: len(victims)}
        with client._pending_lock:
            assert client.pending[urls[1]] == victims
        healed = StoreServer(ArtifactStore(cache_dir=tmp_path / "h"),
                             host=host, port=port).start()
        try:
            assert client.reconcile() == len(victims)
            assert client.stats()["pending"] == {}
            assert set(victims) == set(healed.store.keys())
        finally:
            healed.stop()
        client.close()

    def test_background_reconciler_drains(self, fleet, tmp_path):
        urls = [server.url for server in fleet]
        clock = [0.0]
        client = fast_client(
            urls, quarantine_seconds=0.0, clock=lambda: clock[0],
            fallback=ArtifactStore(cache_dir=tmp_path / "local"))
        victim = [k for k in KEYS if client.shard_for(k) == urls[0]][0]
        host, port = fleet[0].address
        fleet[0].stop()
        client.put(victim, art(9))
        assert client.stats()["pending"][urls[0]] == 1
        healed = StoreServer(ArtifactStore(cache_dir=tmp_path / "h"),
                             host=host, port=port).start()
        client.start_reconciler(interval=0.05)
        try:
            deadline = threading.Event()
            for _ in range(100):
                if not client.stats()["pending"]:
                    break
                deadline.wait(0.05)
            assert client.stats()["pending"] == {}
        finally:
            healed.stop()
            client.close()


# --------------------------------------------------------------------------
# mutable keys and shard health
# --------------------------------------------------------------------------


class TestFreshGetAndHealth:
    def test_fresh_get_sees_peer_republish(self, fleet):
        """The hot tier must not shadow a mutable key a *different*
        client republished — the bug class fresh_get exists for."""
        urls = [server.url for server in fleet]
        a, b = fast_client(urls), fast_client(urls)
        try:
            a.put("session-meta:dev", {"epoch": 1})
            b.put("session-meta:dev", {"epoch": 2})
            # Plain get serves a's stale hot-tier copy...
            assert a.get("session-meta:dev") == {"epoch": 1}
            # ...fresh_get asks the owning shard and banks the answer.
            assert a.fresh_get("session-meta:dev") == {"epoch": 2}
            assert a.get("session-meta:dev") == {"epoch": 2}
        finally:
            a.close()
            b.close()

    def test_fresh_get_falls_back_to_local_copy(self, fleet):
        urls = [server.url for server in fleet]
        client = fast_client(urls, retries=1)
        key = "session-meta:dev"
        client.put(key, {"epoch": 1})
        owner = next(s for s in fleet if s.url == client.shard_for(key))
        owner.stop()
        assert client.fresh_get(key) == {"epoch": 1}
        assert client.stats()["degraded_gets"] == 1
        client.close()

    def test_ping_all_reports_per_shard_health(self, fleet):
        urls = [server.url for server in fleet]
        client = fast_client(urls)
        health = client.ping_all()
        assert health == {url: True for url in urls}
        fleet[1].stop()
        attempts = client.shards[urls[1]].attempts
        health = client.ping_all()
        assert health[urls[1]] is False
        assert sum(1 for up in health.values() if up) == 2
        # One probe per shard: the client's retry budget does not apply.
        assert client.shards[urls[1]].attempts == attempts + 1
        client.close()


# --------------------------------------------------------------------------
# responding-but-erroring shards
# --------------------------------------------------------------------------


class ExplodingStore:
    """A shard backend whose disk has failed: every store access
    raises, so the server answers requests with ``ok: false`` instead
    of dropping the connection."""

    cache_dir = None

    def get(self, key):
        raise OSError("injected disk read failure")

    def put(self, key, artifact):
        raise StoreError("injected disk full")

    def keys(self):
        return []

    def stats(self):
        return {}


class TestErroringShardDegrades:
    """A shard that *responds* with errors (disk full, corrupt object)
    is more dangerous than a dead one — it must degrade exactly the
    same way, never fail the build."""

    @pytest.fixture
    def sick_shard(self):
        server = StoreServer(ExplodingStore())
        server.start()
        yield server
        server.stop()

    def test_put_degrades_to_write_behind(self, sick_shard):
        client = fast_client([sick_shard.url])
        client.put(KEYS[0], art(0))        # must not raise
        stats = client.stats()
        assert stats["degraded_puts"] == 1
        assert stats["pending"][sick_shard.url] == 1
        # The artefact still serves from the local tier.
        assert client.get(KEYS[0]) == art(0)
        client.close()

    def test_get_degrades_to_miss(self, sick_shard):
        client = fast_client([sick_shard.url])
        assert client.get(KEYS[1]) is None  # a miss, not a crash
        stats = client.stats()
        assert stats["degraded_gets"] == 1
        assert stats["misses"] == 1
        client.close()

    def test_repeated_errors_trip_the_breaker(self, sick_shard):
        client = fast_client([sick_shard.url],
                             quarantine_seconds=3600.0)
        for i in range(6):
            assert client.get(KEYS[i]) is None
        assert client.stats()["quarantined"] == [sick_shard.url]
        # Once quarantined, requests stop reaching the sick shard.
        attempts = client.shards[sick_shard.url].attempts
        client.get(KEYS[7])
        assert client.shards[sick_shard.url].attempts == attempts
        client.close()

    def test_strict_mode_propagates_shard_errors(self, sick_shard):
        client = fast_client([sick_shard.url], strict=True)
        with pytest.raises(StoreError, match="rejected put"):
            client.put(KEYS[2], art(2))
        with pytest.raises(StoreError, match="rejected get"):
            client.get(KEYS[3])
        client.close()


# --------------------------------------------------------------------------
# hedged reads
# --------------------------------------------------------------------------


class TestHedgedReads:
    def test_straggler_read_is_hedged(self, fleet):
        urls = [server.url for server in fleet]
        seed_client = fast_client(urls)
        for i, key in enumerate(KEYS[:8]):
            seed_client.put(key, art(i))
        seed_client.close()

        # Every request stalls 10-50 ms (a deterministic injected
        # delay), far past the hedge threshold: a warm loopback read
        # alone can finish inside the 0.1 ms floor.
        plan = FaultPlan(seed=7, transport_delay_rate=1.0)
        client = ShardedStoreClient(urls, retries=2,
                                    backoff_base=0.001,
                                    hedge_quantile=0.0,
                                    faults=plan.transport_faults())
        # Prefill the latency window with near-zero samples so the
        # hedge threshold collapses to its 0.1ms floor.
        client._latencies.extend([1e-9] * 8)
        for i, key in enumerate(KEYS[:8]):
            assert client.get(key) == art(i)
        assert client.stats()["remote_hits"] == 8
        assert client.hedged_reads >= 1
        client.close()

    def test_hedging_disabled_by_default(self, fleet):
        urls = [server.url for server in fleet]
        client = fast_client(urls)
        assert client._hedge_threshold() is None
        client.close()


# --------------------------------------------------------------------------
# engine integration
# --------------------------------------------------------------------------


class TestEngineContract:
    def test_sharded_client_backs_a_build_engine(self, fleet):
        from repro.core.build import BuildEngine

        urls = [server.url for server in fleet]
        calls = []

        def builder():
            calls.append(1)
            return {"value": 42}

        engine_a = BuildEngine(cache=fast_client(urls))
        engine_a.step("step:x", ("inputs",), builder)
        engine_a.close()

        # A second engine with a *cold local tier* hits the shards.
        engine_b = BuildEngine(cache=fast_client(urls))
        out = engine_b.step("step:x", ("inputs",), builder)
        assert out == {"value": 42}
        assert len(calls) == 1             # cross-engine dedup
        assert engine_b.record.reused == ["step:x"]
        assert engine_b.cache_stats()["remote_hits"] == 1
        engine_b.close()


# --------------------------------------------------------------------------
# batched frames (multi_get / multi_put)
# --------------------------------------------------------------------------


class TestBatchedFrames:
    """Round trips of the batched protocol ops, wire-level and client."""

    def test_pack_unpack_roundtrip(self):
        from repro.store.serial import pack_artifacts, unpack_artifacts

        items = [(KEYS[i], art(i)) for i in range(5)]
        keys, sizes, payload = pack_artifacts(items)
        assert keys == [k for k, _ in items]
        assert sum(sizes) == len(payload)
        out = unpack_artifacts(keys, sizes, payload)
        assert [(k, a) for k, a in out] == items

    def test_unpack_size_mismatch_rejected(self):
        from repro.store.serial import pack_artifacts, unpack_artifacts

        keys, sizes, payload = pack_artifacts([(KEYS[0], art(0))])
        with pytest.raises(StoreError):
            unpack_artifacts(keys, [sizes[0] + 1], payload)
        with pytest.raises(StoreError):
            unpack_artifacts(keys, sizes, payload[:-1])
        with pytest.raises(StoreError):
            unpack_artifacts(keys + [KEYS[1]], sizes, payload)

    def test_unpack_checks_each_item_digest(self):
        from repro.store.serial import pack_artifacts, unpack_artifacts

        keys, sizes, payload = pack_artifacts(
            [(KEYS[0], art(0)), (KEYS[1], art(1))])
        corrupt = payload[:sizes[0]] + b"\x00" * sizes[1]
        with pytest.raises(StoreError):
            unpack_artifacts(keys, sizes, corrupt)

    def test_multi_get_wire_roundtrip(self, shard):
        from repro.store.serial import unpack_artifacts

        client = ShardClient(shard.url, retries=2, backoff_base=0.001)
        for i in range(4):
            shard.store.put(KEYS[i], art(i))
        header, payload = client.request(
            "multi_get", extra={"keys": KEYS[:4] + [KEYS[60]]})
        assert header["ok"]
        assert header["found"] == KEYS[:4]        # missing key absent
        out = dict(unpack_artifacts(header["found"], header["sizes"],
                                    payload))
        assert out == {KEYS[i]: art(i) for i in range(4)}
        client.close()

    def test_multi_put_wire_roundtrip(self, shard):
        from repro.store.serial import pack_artifacts

        client = ShardClient(shard.url, retries=2, backoff_base=0.001)
        keys, sizes, payload = pack_artifacts(
            [(KEYS[i], art(i)) for i in range(3)])
        header, _ = client.request(
            "multi_put", extra={"keys": keys, "sizes": sizes},
            payload=payload)
        assert header["ok"] and header["stored"] == 3
        for i in range(3):
            assert shard.store.get(KEYS[i]) == art(i)
        client.close()

    def test_multi_put_rejects_corrupt_batch_atomically(self, shard):
        from repro.store.serial import pack_artifacts

        client = ShardClient(shard.url, retries=1, backoff_base=0.001)
        keys, sizes, payload = pack_artifacts(
            [(KEYS[i], art(i)) for i in range(2)])
        corrupt = payload[:sizes[0]] + b"\x00" * sizes[1]
        with pytest.raises(StoreError, match="rejected multi_put"):
            client.request(
                "multi_put", extra={"keys": keys, "sizes": sizes},
                payload=corrupt, retries=1)
        # Nothing from the bad frame landed — not even the intact item.
        assert shard.store.get(KEYS[0]) is None
        assert shard.store.get(KEYS[1]) is None
        client.close()

    def test_client_multi_roundtrip_across_shards(self, fleet):
        urls = [server.url for server in fleet]
        writer = fast_client(urls)
        writer.multi_put({KEYS[i]: art(i) for i in range(16)})
        writer.close()

        # A cold reader pulls every key in one frame per owning shard.
        reader = fast_client(urls)
        out = reader.multi_get(KEYS[:16] + KEYS[60:62])
        assert out == {KEYS[i]: art(i) for i in range(16)}
        stats = reader.stats()
        assert stats["remote_hits"] == 16
        assert stats["remote_misses"] == 2
        # The batch banked in the local tier: a re-read is all local.
        again = reader.multi_get(KEYS[:16])
        assert len(again) == 16
        assert reader.stats()["local_hits"] >= 16
        reader.close()

    def test_multi_get_degrades_when_fleet_down(self, fleet):
        urls = [server.url for server in fleet]
        client = fast_client(urls, retries=1)
        client.put(KEYS[0], art(0))        # banked locally + remotely
        for server in fleet:
            server.stop()
        out = client.multi_get(KEYS[:4])
        assert out == {KEYS[0]: art(0)}    # local tier still serves
        assert client.stats()["degraded_gets"] >= 1
        client.close()
