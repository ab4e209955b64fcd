"""The sharded remote-store client (the engine-facing half).

:class:`ShardedStoreClient` satisfies the build engine's cache
contract (``get``/``put``/``stats``) against a fleet of
:class:`~repro.store.remote.server.StoreServer` shards, and is built
robustness-first — every remote call has a deadline, a retry budget
and a documented degraded path:

* **Routing** — rendezvous (highest-random-weight) hashing of
  ``(shard, key)``: losing a shard remaps only that shard's keys, and
  every client computes the same map with no coordination.
* **Retries** — each request gets ``retries`` attempts under a
  per-attempt socket deadline, with exponential backoff plus
  deterministic keyed jitter between attempts; the budget exhausting
  raises :class:`~repro.errors.StoreUnavailableError` internally.
* **Circuit breaking** — a per-shard
  :class:`~repro.resilience.CircuitBreaker` (quarantine mode: cooldown
  + half-open probes) trips a flapping shard out of the request path
  entirely, so a dead shard costs one retry ladder, not one per key.
* **Degraded mode** — reads and writes fall back to a local
  :class:`~repro.store.ArtifactStore`: a degraded ``get`` serves from
  the local store (a miss just means a recompile — slower, never
  failed), a degraded ``put`` lands locally and joins a per-shard
  write-behind queue that :meth:`reconcile` drains once the shard
  heals.  The local store doubles as the in-process hot tier on the
  healthy path (write-through, read-first).
* **Hedged reads** — with ``hedge_quantile`` set, a ``get`` that
  exceeds that quantile of recently observed latencies launches a
  speculative second request; first result wins (requests are
  idempotent, so the loser is simply discarded).  Same machinery shape
  as :class:`repro.core.cluster.CompileCluster` straggler hedging.

Transport faults from a seeded :class:`repro.faults.FaultPlan`
(``transport_*`` rates, ``kill_shards``) are injected at the request
layer, so every one of these failure paths is reachable
deterministically in tests.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    FrameError,
    StoreError,
    StoreUnavailableError,
    TransportError,
)
from repro.store.remote.framing import recv_frame, send_frame
from repro.store.serial import (
    decode_artifact,
    encode_artifact,
    pack_artifacts,
    unpack_artifacts,
)
from repro.trace import NULL_TRACER

#: Per-attempt socket deadline (seconds).
DEFAULT_TIMEOUT = 5.0
#: Attempts per request (first try + retries).
DEFAULT_RETRIES = 3
#: First backoff delay; doubles per retry, plus keyed jitter.
DEFAULT_BACKOFF_BASE = 0.02
#: Quarantine cooldown before a tripped shard gets a half-open probe.
DEFAULT_QUARANTINE_SECONDS = 1.0
#: Latency window for the hedge threshold.
LATENCY_WINDOW = 64
#: Artefacts per multi_put frame when draining write-behind queues.
RECONCILE_BATCH = 32

#: What :meth:`ShardedStoreClient._guarded` returns when a shard call
#: took the degraded path instead of answering.
_DEGRADED = object()


def parse_store_urls(spec: str) -> List[str]:
    """Split ``tcp://h:p,tcp://h:p`` into validated shard URLs."""
    urls = [part.strip() for part in spec.split(",") if part.strip()]
    if not urls:
        raise StoreError(f"no shard URLs in {spec!r}")
    for url in urls:
        host, port = _parse_url(url)
        if not host or port <= 0:
            raise StoreError(f"bad shard URL {url!r} "
                             f"(want tcp://host:port)")
    return urls


def _parse_url(url: str) -> Tuple[str, int]:
    rest = url[len("tcp://"):] if url.startswith("tcp://") else url
    host, sep, port = rest.rpartition(":")
    if not sep:
        return "", 0
    try:
        return host, int(port)
    except ValueError:
        return "", 0


def _jitter(seed: int, *key) -> float:
    """Uniform [0, 1) draw, a pure function of (seed, key) — the same
    keyed-hash idiom as :mod:`repro.faults.plan`, so backoff schedules
    replay exactly under a fixed seed."""
    text = repr((seed,) + key).encode()
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def rendezvous_shard(key: str, shards: List[str]) -> str:
    """Highest-random-weight winner for ``key`` among ``shards``.

    Each (shard, key) pair hashes to a weight; the max wins.  Removing
    a shard only remaps the keys that shard was winning — every other
    key keeps its owner, which is exactly the failure-domain isolation
    the degraded path needs.
    """
    if not shards:
        raise StoreError("rendezvous over an empty shard list")
    return max(shards, key=lambda shard: hashlib.blake2b(
        f"{shard}|{key}".encode(), digest_size=8).digest())


class ShardClient:
    """One shard's connection manager: deadlines, retries, backoff.

    Connections are pooled (hedged reads need two in flight); an
    attempt that fails at the transport layer discards its connection
    and redials, so a stale half-closed socket never burns more than
    one attempt.
    """

    def __init__(self, url: str, *, timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 seed: int = 0, faults=None, sleep=time.sleep):
        self.url = url
        self.host, self.port = _parse_url(url)
        if not self.host or self.port <= 0:
            raise StoreError(f"bad shard URL {url!r} (want tcp://host:port)")
        self.timeout = timeout
        self.retries = max(1, retries)
        self.backoff_base = backoff_base
        self.seed = seed
        self.faults = faults
        self._sleep = sleep
        self._pool: deque = deque()
        self._pool_lock = threading.Lock()
        self.attempts = 0
        self.failures = 0

    # -- connections ---------------------------------------------------------

    def _checkout(self) -> socket.socket:
        with self._pool_lock:
            if self._pool:
                return self._pool.popleft()
        try:
            conn = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to shard {self.url}: "
                                 f"{exc}", shard=self.url) from exc
        return conn

    def _checkin(self, conn: socket.socket) -> None:
        with self._pool_lock:
            self._pool.append(conn)

    def close(self) -> None:
        with self._pool_lock:
            while self._pool:
                try:
                    self._pool.popleft().close()
                except OSError:
                    pass

    # -- the request ladder --------------------------------------------------

    def request(self, op: str, key: str = "", payload: bytes = b"",
                extra: Optional[Dict[str, Any]] = None,
                retries: Optional[int] = None
                ) -> Tuple[Dict[str, Any], bytes]:
        """One logical request: up to ``retries`` attempts with
        exponential backoff + keyed jitter between them.  Raises
        :class:`StoreUnavailableError` once the budget is spent."""
        budget = self.retries if retries is None else max(1, retries)
        index = self.faults.next_request(self.url) \
            if self.faults is not None else -1
        last: Optional[Exception] = None
        for attempt in range(1, budget + 1):
            self.attempts += 1
            try:
                return self._attempt(op, key, payload, extra, index,
                                     attempt)
            except (TransportError, FrameError) as exc:
                self.failures += 1
                last = exc
                if attempt < budget:
                    delay = self.backoff_base * (2 ** (attempt - 1))
                    delay *= 1.0 + _jitter(self.seed, self.url, op, key,
                                           attempt)
                    self._sleep(delay)
        raise StoreUnavailableError(
            f"shard {self.url} unreachable after {budget} attempt(s) "
            f"({op} {key[:12]}...): {last}",
            shard=self.url, op=op, attempt=budget)

    def _attempt(self, op: str, key: str, payload: bytes,
                 extra: Optional[Dict[str, Any]], index: int,
                 attempt: int) -> Tuple[Dict[str, Any], bytes]:
        outcome = "ok"
        if self.faults is not None:
            outcome = self.faults.on_request(self.url, index, attempt)
        if outcome == "kill":
            raise TransportError(
                f"injected shard-kill: {self.url} is dead",
                shard=self.url, op=op, attempt=attempt)
        if outcome == "drop":
            raise TransportError(
                f"injected drop: request to {self.url} timed out",
                shard=self.url, op=op, attempt=attempt)
        if outcome == "half-close":
            raise FrameError(
                f"injected half-close: {self.url} closed mid-frame",
                shard=self.url, op=op, attempt=attempt)
        if outcome == "delay":
            self._sleep(self.faults.delay_seconds(self.url, index))

        header = {"op": op}
        if key:
            header["key"] = key
        if extra:
            header.update(extra)
        conn = self._checkout()
        try:
            send_frame(conn, header, payload)
            response, out_payload = recv_frame(conn)
        except (TransportError, FrameError):
            try:
                conn.close()
            except OSError:
                pass
            raise
        self._checkin(conn)
        if outcome == "corrupt":
            # The request landed server-side; the *response* frame is
            # what the fault mangled, so discard it post-receive.
            raise FrameError(
                f"injected corrupt response frame from {self.url}",
                shard=self.url, op=op, attempt=attempt)
        if not response.get("ok", False):
            raise StoreError(f"shard {self.url} rejected {op}: "
                             f"{response.get('error', 'unknown error')}")
        return response, out_payload

    def __repr__(self) -> str:
        return f"ShardClient({self.url}, {self.attempts} attempts)"


class ShardedStoreClient:
    """Route keys across N shard backends; never fail a build over it.

    Satisfies the engine-cache contract, so it drops in wherever an
    :class:`~repro.store.ArtifactStore` does (``BuildEngine(cache=...)``,
    :class:`~repro.core.session.IncrementalSession`).

    Args:
        urls: shard URLs (``tcp://host:port``); order does not matter
            (rendezvous hashing is order-independent).
        fallback: the local :class:`~repro.store.ArtifactStore` used as
            hot tier and degraded-mode store; a memory-only store is
            created when omitted.
        timeout/retries/backoff_base: the per-request robustness knobs,
            forwarded to each :class:`ShardClient`.
        breaker_threshold: consecutive failed requests that trip one
            shard's breaker into quarantine.
        quarantine_seconds: cooldown before a tripped shard gets a
            half-open probe request.
        hedge_quantile: when set (in [0, 1]), a read exceeding that
            quantile of recent read latencies launches a speculative
            duplicate; None disables hedging.
        faults: a :class:`repro.faults.TransportFaultInjector` for
            seeded failure testing.
        tracer: a :class:`repro.trace.Tracer`; shard health transitions
            become instants on the ``store`` lane.
        strict: propagate shard :class:`StoreError`\\ s instead of
            degrading (diagnostics; never the build path).
    """

    def __init__(self, urls, *, fallback=None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 breaker_threshold: int = 3,
                 quarantine_seconds: float = DEFAULT_QUARANTINE_SECONDS,
                 hedge_quantile: Optional[float] = None,
                 faults=None, tracer=None, seed: int = 0,
                 strict: bool = False, clock=None, sleep=time.sleep):
        from repro.resilience.breaker import CircuitBreaker
        from repro.store import ArtifactStore

        if isinstance(urls, str):
            urls = parse_store_urls(urls)
        if not urls:
            raise StoreError("ShardedStoreClient needs at least one shard")
        self.urls = list(urls)
        self.shards: Dict[str, ShardClient] = {
            url: ShardClient(url, timeout=timeout, retries=retries,
                             backoff_base=backoff_base, seed=seed,
                             faults=faults, sleep=sleep)
            for url in self.urls}
        self.fallback = fallback if fallback is not None \
            else ArtifactStore(cache_dir=None)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_seconds=quarantine_seconds, clock=clock)
        self.hedge_quantile = hedge_quantile
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.strict = strict
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._reconciler: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        #: Per-shard write-behind queue: keys whose remote put is owed.
        #: Mutated from the engine thread (put), the reconciler thread
        #: and close() — every access goes through _pending_lock.
        self.pending: Dict[str, List[str]] = {url: [] for url in self.urls}
        self._pending_lock = threading.Lock()
        # Serializes whole reconcile passes (reconciler thread vs.
        # close() vs. an explicit call) so two drains never interleave
        # over the same shard's queue.
        self._reconcile_lock = threading.Lock()
        self._degraded_seen: set = set()
        # Engine-contract counters (hits/misses like ArtifactStore).
        self.hits = 0
        self.misses = 0
        self.remote_hits = 0
        self.remote_misses = 0
        self.local_hits = 0
        self.degraded_gets = 0
        self.degraded_puts = 0
        self.reconciled = 0
        self.breaker_trips = 0
        self.hedged_reads = 0
        self.hedge_wins = 0

    # -- routing -------------------------------------------------------------

    @property
    def cache_dir(self):
        """The fallback's directory (journal/fsck integration)."""
        return getattr(self.fallback, "cache_dir", None)

    def shard_for(self, key: str) -> str:
        return rendezvous_shard(key, self.urls)

    # -- shard health --------------------------------------------------------

    def _record_failure(self, url: str) -> None:
        count = self.breaker.record_failure(url)
        if count == self.breaker.failure_threshold:
            self.breaker_trips += 1
            self.tracer.shard_health(url, "breaker-open", failures=count)

    def _record_success(self, url: str) -> None:
        was_open = self.breaker.failures(url) \
            >= self.breaker.failure_threshold
        self.breaker.record_success(url)
        # Any answered request ends an outage, tripped or not, so the
        # shard's next outage is traced again.
        self._degraded_seen.discard(url)
        if was_open:
            self.tracer.shard_health(url, "healed")

    def _degraded(self, url: str, op: str) -> None:
        if op == "get":
            self.degraded_gets += 1
        else:
            self.degraded_puts += 1
        if url not in self._degraded_seen:
            self._degraded_seen.add(url)
            self.tracer.shard_health(url, "degraded", op=op)

    def _guarded(self, url: str, op: str, call, *args):
        """``call(*args)`` against shard ``url``, through its breaker.

        Returns the call's result, or :data:`_DEGRADED` when the caller
        must take its degraded path: the shard is quarantined (no
        request is made) or the call raised :class:`StoreError`.  That
        covers the whole failure family: the retry budget exhausting
        (:class:`StoreUnavailableError`), but also a shard that
        *responds* with an error — disk full, a corrupt stored artifact
        failing decode — which is more dangerous than a dead one and
        must degrade just the same.  ``strict`` re-raises instead.
        ``op`` (``"get"``/``"put"``) picks the degraded counter.
        """
        if self.breaker.is_open(url):
            self._degraded(url, op)
            return _DEGRADED
        try:
            result = call(*args)
        except StoreError:
            if self.strict:
                raise
            self._record_failure(url)
            self._degraded(url, op)
            return _DEGRADED
        self._record_success(url)
        return result

    # -- the engine-cache contract -------------------------------------------

    def get(self, key: str):
        """Local hot tier, then the owning shard (hedged), then — when
        the shard is quarantined or unreachable — the local fallback."""
        artifact = self.fallback.get(key)
        if artifact is not None:
            self.hits += 1
            self.local_hits += 1
            return artifact
        url = self.shard_for(key)
        artifact = self._guarded(url, "get", self._remote_get, url, key)
        if artifact is _DEGRADED:
            self.misses += 1
            return None
        if artifact is None:
            self.remote_misses += 1
            self.misses += 1
            return None
        self.remote_hits += 1
        self.hits += 1
        # Read-through: bank the remote hit in the local tier.
        self.fallback.put(key, artifact)
        return artifact

    def put(self, key: str, artifact) -> None:
        """Write-through to the local tier, then the owning shard; a
        quarantined/unreachable shard turns the remote half into a
        write-behind queue entry for :meth:`reconcile`."""
        self.fallback.put(key, artifact)
        url = self.shard_for(key)
        if self._guarded(url, "put", self._remote_put, url, key,
                         artifact) is _DEGRADED:
            self._owe(url, key)

    def fresh_get(self, key: str):
        """Remote-first read for *mutable* keys (session metadata).

        :meth:`get` serves the local hot tier first, which is correct
        for content-addressed artefacts (immutable by construction) but
        wrong for keys another client republishes — a stale local copy
        would shadow the new value forever.  This skips the hot tier:
        ask the owning shard, bank the result locally, and only fall
        back to the local copy when the shard is quarantined or
        unreachable.  Engine hit/miss counters are deliberately left
        untouched — metadata traffic is not build dedup.
        """
        url = self.shard_for(key)
        artifact = self._guarded(url, "get", self._remote_get, url, key)
        if artifact is _DEGRADED:
            return self.fallback.get(key)
        if artifact is not None:
            self.fallback.put(key, artifact)
        return artifact

    def _owe(self, url: str, *keys: str) -> None:
        with self._pending_lock:
            queue = self.pending.setdefault(url, [])
            for key in keys:
                if key not in queue:
                    queue.append(key)

    # -- batched traffic -----------------------------------------------------

    def multi_get(self, keys) -> Dict[str, Any]:
        """Fetch many keys in one frame per owning shard.

        Local hot-tier hits are served first; the remainder groups by
        rendezvous owner and each shard sees a single ``multi_get``
        round-trip.  A quarantined or failing shard degrades exactly
        like :meth:`get` — its keys just come back absent.  Returns
        ``{key: artifact}`` for everything found.
        """
        found: Dict[str, Any] = {}
        by_shard: Dict[str, List[str]] = {}
        for key in dict.fromkeys(keys):     # dedup, order-preserving
            artifact = self.fallback.get(key)
            if artifact is not None:
                self.hits += 1
                self.local_hits += 1
                found[key] = artifact
            else:
                by_shard.setdefault(self.shard_for(key), []).append(key)
        for url, shard_keys in by_shard.items():
            items = self._guarded(url, "get", self._remote_multi_get, url,
                                  shard_keys)
            if items is _DEGRADED:
                self.misses += len(shard_keys)
                continue
            for key, artifact in items:
                self.remote_hits += 1
                self.hits += 1
                self.fallback.put(key, artifact)
                found[key] = artifact
            absent = len(shard_keys) - len(items)
            self.remote_misses += absent
            self.misses += absent
        return found

    def multi_put(self, items: Dict[str, Any]) -> None:
        """Write many artefacts: local write-through, then one
        ``multi_put`` frame per owning shard; a failing shard owes all
        of its batch to the write-behind queue."""
        by_shard: Dict[str, List[str]] = {}
        for key, artifact in items.items():
            self.fallback.put(key, artifact)
            by_shard.setdefault(self.shard_for(key), []).append(key)
        for url, shard_keys in by_shard.items():
            batch = [(key, items[key]) for key in shard_keys]
            if self._guarded(url, "put", self._remote_multi_put, url,
                             batch) is _DEGRADED:
                self._owe(url, *shard_keys)

    # -- shard requests (reads hedged) ---------------------------------------

    def _remote_get(self, url: str, key: str):
        start = time.perf_counter()
        threshold = self._hedge_threshold()
        if threshold is None:
            result = self._remote_get_once(url, key)
        else:
            result = self._remote_get_hedged(url, key, threshold)
        self._latencies.append(time.perf_counter() - start)
        return result

    def _remote_get_once(self, url: str, key: str):
        response, payload = self.shards[url].request("get", key)
        if not response.get("found", False):
            return None
        _kind, artifact = decode_artifact(payload, expect_key=key)
        return artifact

    def _remote_multi_get(self, url: str, keys: List[str]):
        response, payload = self.shards[url].request(
            "multi_get", extra={"keys": keys})
        return unpack_artifacts(
            list(response.get("found", [])),
            [int(s) for s in response.get("sizes", [])], payload)

    def _remote_put(self, url: str, key: str, artifact) -> None:
        self.shards[url].request("put", key, encode_artifact(key, artifact))

    def _remote_multi_put(self, url: str,
                          items: List[Tuple[str, Any]]) -> None:
        """One ``multi_put`` frame of ``(key, artifact)`` pairs."""
        keys, sizes, payload = pack_artifacts(items)
        self.shards[url].request(
            "multi_put", extra={"keys": keys, "sizes": sizes},
            payload=payload)

    def _hedge_threshold(self) -> Optional[float]:
        """Seconds after which a read is a straggler, or None."""
        if self.hedge_quantile is None or len(self._latencies) < 8:
            return None
        ordered = sorted(self._latencies)
        index = min(len(ordered) - 1,
                    int(self.hedge_quantile * (len(ordered) - 1)))
        # Never hedge on sub-threshold noise.
        return max(ordered[index], 1e-4)

    def _remote_get_hedged(self, url: str, key: str, threshold: float):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="store-hedge")
        primary = self._executor.submit(self._remote_get_once, url, key)
        done, _ = wait({primary}, timeout=threshold)
        if primary in done:
            return primary.result()
        self.hedged_reads += 1
        with self.tracer.span(f"hedge:{key[:12]}", category="store",
                              lane="store", shard=url):
            backup = self._executor.submit(self._remote_get_once, url,
                                           key)
            futures = {primary, backup}
            last: Optional[Exception] = None
            while futures:
                done, futures = wait(futures,
                                     return_when=FIRST_COMPLETED)
                for fut in done:
                    try:
                        result = fut.result()
                    except StoreError as exc:
                        last = exc
                        continue
                    if fut is backup:
                        self.hedge_wins += 1
                    return result
            raise last if last is not None else StoreUnavailableError(
                f"hedged read of {key!r} failed", shard=url, op="get")

    # -- degraded-mode recovery ----------------------------------------------

    def reconcile(self) -> int:
        """Drain the write-behind queues of every healed shard.

        For each shard with owed keys, probe it (``ping``) — through
        the breaker, so a still-quarantined shard costs nothing until
        its cooldown admits a half-open probe — and on success replay
        the owed puts from the local fallback.  Returns the number of
        artefacts pushed.
        """
        with self._reconcile_lock:
            return self._reconcile_once()

    def _reconcile_once(self) -> int:
        drained = 0
        with self._pending_lock:
            owing = [url for url, owed in self.pending.items() if owed]
        for url in owing:
            if self.breaker.is_open(url):
                continue
            try:
                self.shards[url].request("ping", retries=1)
            except StoreError:
                self._record_failure(url)
                continue
            self._record_success(url)
            # Swap the owed list out atomically: puts that land while
            # this drain is in flight append to a fresh list and are
            # picked up by the next pass instead of being dropped.
            with self._pending_lock:
                owed = self.pending.get(url, [])
                self.pending[url] = []
            still_owed: List[str] = []
            pushed = 0
            # Drain in multi_put batches: one frame per RECONCILE_BATCH
            # keys instead of one round-trip per key.
            for base in range(0, len(owed), RECONCILE_BATCH):
                chunk = owed[base:base + RECONCILE_BATCH]
                items = []
                for key in chunk:
                    artifact = self.fallback.get(key)
                    if artifact is not None:
                        items.append((key, artifact))
                    # else: evicted locally; nothing to push
                if not items:
                    continue
                try:
                    self._remote_multi_put(url, items)
                    pushed += len(items)
                except StoreError:
                    self._record_failure(url)
                    still_owed.extend(owed[base:])
                    break
            if still_owed:
                # Merge the leftovers back ahead of anything owed
                # since the swap, preserving FIFO drain order.
                with self._pending_lock:
                    queue = self.pending.setdefault(url, [])
                    queue[:0] = [k for k in still_owed
                                 if k not in queue]
            drained += pushed
            if pushed and not still_owed:
                self.tracer.shard_health(url, "reconciled",
                                         drained=pushed)
        self.reconciled += drained
        return drained

    def start_reconciler(self, interval: float = 2.0) -> None:
        """Background thread draining write-behind queues periodically."""
        if self._reconciler is not None or self._closed:
            return

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.reconcile()
                except Exception:
                    pass               # the reconciler must never die

        self._reconciler = threading.Thread(
            target=loop, name="store-reconciler", daemon=True)
        self._reconciler.start()

    # -- introspection / lifecycle -------------------------------------------

    def ping_all(self) -> Dict[str, bool]:
        """Liveness of every shard (one probe each, no retries)."""
        health = {}
        for url, shard in self.shards.items():
            try:
                shard.request("ping", retries=1)
                health[url] = True
            except StoreError:
                health[url] = False
        return health

    def stats(self) -> Dict[str, Any]:
        with self._pending_lock:
            pending = {url: len(owed)
                       for url, owed in self.pending.items() if owed}
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": getattr(
                getattr(self.fallback, "memory", None), "evictions", 0),
            "local_hits": self.local_hits,
            "remote_hits": self.remote_hits,
            "remote_misses": self.remote_misses,
            "degraded_gets": self.degraded_gets,
            "degraded_puts": self.degraded_puts,
            "pending": pending,
            "reconciled": self.reconciled,
            "breaker_trips": self.breaker_trips,
            "quarantined": self.breaker.open_steps(),
            "hedged_reads": self.hedged_reads,
            "hedge_wins": self.hedge_wins,
            "shards": list(self.urls),
        }

    def close(self) -> None:
        """Settle debts, stop the reconciler, release every socket.

        Idempotent — a second close returns immediately.  The stop
        event is set *before* the final reconcile so the background
        reconciler drops out of its wait at once and joins even while
        a shard is quarantined (a quarantined shard's drain is gated by
        the breaker, so its pass costs nothing and cannot wedge the
        join).
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        try:
            # Last chance to settle debts — costs nothing when every
            # owing shard is still quarantined (the breaker gates the
            # probe) and saves a whole reconcile pass when it healed.
            self.reconcile()
        except StoreError:
            pass
        if self._reconciler is not None:
            self._reconciler.join(timeout=5.0)
            self._reconciler = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        for shard in self.shards.values():
            shard.close()

    def __enter__(self) -> "ShardedStoreClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        quarantined = self.breaker.open_steps()
        return (f"ShardedStoreClient({len(self.urls)} shards, "
                f"{len(quarantined)} quarantined, "
                f"{self.hits} hits / {self.misses} misses)")
