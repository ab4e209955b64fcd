"""Incremental build engine (the paper's Makefile discipline, Sec. 6).

PLD sets up Makefiles so only pages whose logic changed are recompiled.
Here the same effect comes from content hashing: every build step is a
node keyed by a hash of its inputs (operator IR, target, page type,
tool options).  Unchanged keys hit the :class:`BuildCache`; changed
keys rebuild and record what work was done — tests assert the paper's
claim that a one-operator edit recompiles exactly one page.

``BuildEngine(workers=N)`` runs independent steps side by side on a
process pool, as the paper's cluster does (Sec. 6); keys, records and
artefacts stay those of the serial loop.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import BuildError
from repro.hls.ir import Block, If, Instr, Loop, OperatorSpec, Value
from repro.trace import NULL_TRACER


def _stable(obj) -> object:
    """Convert IR / arbitrary structures to hashable JSON-safe values."""
    if isinstance(obj, OperatorSpec):
        return {
            "name": obj.name,
            "inputs": obj.inputs,
            "outputs": obj.outputs,
            "vars": [(v.name, v.width, v.signed, v.init)
                     for v in obj.variables],
            "arrays": [(a.name, a.depth, a.width, a.signed,
                        list(a.init) if a.init else None, a.partition)
                       for a in obj.arrays],
            "body": _stable(obj.body),
        }
    if isinstance(obj, Block):
        return [_stable(item) for item in obj.items]
    if isinstance(obj, Loop):
        return ["loop", obj.name, obj.trip, obj.var, obj.pipeline,
                obj.unroll, _stable(obj.body)]
    if isinstance(obj, If):
        return ["if", _stable(obj.cond), _stable(obj.then),
                _stable(obj.orelse)]
    if isinstance(obj, Instr):
        return [obj.kind, _stable(obj.result),
                [_stable(a) for a in obj.args],
                {k: _stable(v) for k, v in sorted(obj.attrs.items())}]
    if isinstance(obj, Value):
        return ["v", obj.name, obj.width, obj.signed]
    if isinstance(obj, (list, tuple)):
        return [_stable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stable(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise BuildError(f"unhashable build input of type {type(obj).__name__}")


def content_key(*parts) -> str:
    """Hash arbitrary build inputs into a cache key."""
    payload = json.dumps(_stable(list(parts)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


class BuildCache:
    """Bounded in-memory content-addressed cache (LRU eviction).

    Args:
        max_entries: cap on cached artefacts (None = unbounded).
        max_bytes: cap on the summed pickled size of cached artefacts
            (None = no byte accounting; sizes are only computed when a
            byte limit is set).

    A lookup counts a hit or a miss in :meth:`get`; :meth:`put` only
    inserts, so warming the cache externally never inflates the miss
    count (hit-rate stats stay honest).
    """

    def __init__(self, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        self.entries: "OrderedDict[str, Any]" = OrderedDict()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.total_bytes = 0
        self._sizes: Dict[str, int] = {}

    def peek(self, key: str):
        """Lookup without touching the hit/miss counters (LRU still
        refreshes, so the entry stays warm)."""
        if key in self.entries:
            self.entries.move_to_end(key)
            return self.entries[key]
        return None

    def get(self, key: str):
        artefact = self.peek(key)
        if artefact is not None:
            self.hits += 1
            return artefact
        self.misses += 1
        return None

    def put(self, key: str, artefact) -> None:
        if key in self.entries:
            self.total_bytes -= self._sizes.pop(key, 0)
            del self.entries[key]
        self.entries[key] = artefact
        if self.max_bytes is not None:
            size = len(pickle.dumps(artefact,
                                    protocol=pickle.HIGHEST_PROTOCOL))
            self._sizes[key] = size
            self.total_bytes += size
        self._evict()

    def _evict(self) -> None:
        while ((self.max_entries is not None
                and len(self.entries) > self.max_entries)
               or (self.max_bytes is not None
                   and self.total_bytes > self.max_bytes
                   and len(self.entries) > 1)):
            victim, _ = self.entries.popitem(last=False)
            self.total_bytes -= self._sizes.pop(victim, 0)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters for reports: hits/misses/evictions/entries."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class BuildRecord:
    """What one engine invocation actually did."""

    built: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    #: Subset of ``reused`` skipped via the build journal of a resumed
    #: invocation (the crash-recovery "what --resume saved you" set).
    resumed: List[str] = field(default_factory=list)
    #: step name -> content key it resolved to (the build manifest's
    #: raw material; keys are stable across processes).
    keys: Dict[str, str] = field(default_factory=dict)
    #: step name -> wall seconds the builder ran (cache hits absent;
    #: for process-parallel execution this is the parent-observed wait,
    #: so concurrent steps overlap).
    build_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def rebuild_count(self) -> int:
        return len(self.built)


@dataclass(frozen=True)
class BatchStep:
    """One entry of :meth:`BuildEngine.step_batch`.

    Unlike the closure passed to :meth:`BuildEngine.step`, the work is
    described as ``fn(*args, **kwargs)`` with a module-level ``fn`` so a
    pooled engine can ship it to a worker process (everything must
    pickle); a serial engine simply calls :meth:`run` in-process.
    """

    name: str
    key_parts: Tuple
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self):
        return self.fn(*self.args, **self.kwargs)


class WorkerPool:
    """A lazily started process pool that is replaced once it breaks.

    The compile service owns one and lends it to every engine it
    builds; an engine that is lent none owns a private one.  An engine
    fetches the live pool for each batch (:meth:`get`) and hands back a
    pool a crashed worker broke (:meth:`replace`), so the next batch —
    of that engine or the next — runs on a fresh pool.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def get(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def replace(self, broken: ProcessPoolExecutor) -> None:
        """Retire ``broken``; the next :meth:`get` starts a new pool.
        A second report of the same pool (every engine with futures on
        it sees it break) is a no-op."""
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


class BuildEngine:
    """Runs build steps through a cache.

    A *step* is ``(name, key_parts, builder)``; the builder only runs
    when the content key misses.  The engine records which names were
    rebuilt vs. reused so flows can report incremental behaviour.

    ``cache`` is anything with the ``get(key)/put(key, artefact)/
    stats()`` contract: the in-memory :class:`BuildCache` (default) or
    a persistent :class:`repro.store.ArtifactStore`, which makes cache
    hits survive across processes.  Lookups and inserts happen in this
    process only, so a store's files are never written concurrently.

    ``tracer`` is an optional :class:`repro.trace.Tracer`: every step
    then becomes a wall-clock span (cache hits become instants) on the
    ``build`` lane, and the flows pick the tracer up from the engine to
    trace their own phases and cluster schedules.

    The supervision layer (:mod:`repro.resilience`) defaults to None,
    and the disabled path is a strict no-op:

    * ``journal`` — a :class:`~repro.resilience.BuildJournal`; every
      cache-miss step is journaled begin/end (fail on a raising
      builder), and a resumed journal turns matching cache hits into
      ``resume-skip`` instants plus :attr:`BuildRecord.resumed` entries.
    * ``deadline`` — a :class:`~repro.resilience.Deadline`; checked
      before each builder runs, so expiry raises a structured
      :class:`~repro.errors.DeadlineExceeded` carrying the partial
      results while every finished artefact stays banked in the cache.
    * ``breaker`` — a :class:`~repro.resilience.CircuitBreaker`; a step
      whose builder keeps crashing fast-fails with
      :class:`~repro.errors.CircuitOpenError` instead of rerunning.
    * ``crash_plan`` — a :class:`repro.faults.CrashPlan`; the
      crash-injection harness for the resume tests.

    ``owns_cache`` says whether :meth:`close` may close the cache: a
    service sharing one store across many engines passes False.

    ``workers`` > 1 runs the cache misses of a :meth:`step_batch` on
    worker processes: a lent ``pool`` (a :class:`WorkerPool`; the
    compile service lends one to all its engines) is never shut down
    here, otherwise the engine owns a private one.  A crashed or
    poisoned worker is not fatal: the step is retried in-process
    (``worker_retries`` counts these), so a deterministic builder error
    surfaces with a clean parent traceback instead of a hang, and the
    broken pool goes back to its :class:`WorkerPool` for a fresh one.
    """

    def __init__(self, cache=None, tracer=None, journal=None,
                 deadline=None, breaker=None, crash_plan=None,
                 owns_cache: bool = True, workers: int = 1,
                 pool: Optional[WorkerPool] = None):
        self.cache = cache if cache is not None else BuildCache()
        self.owns_cache = owns_cache
        self.record = BuildRecord()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self.deadline = deadline
        self.breaker = breaker
        self.crash_plan = crash_plan
        self.workers = workers
        #: Steps that failed on a worker and were re-run in-process.
        self.worker_retries = 0
        self._owns_pool = pool is None
        if pool is None and workers > 1:
            pool = WorkerPool(workers)
        self._pool = pool
        self._closed = False

    # -- one step: hit bookkeeping and the miss pipeline --------------------

    def _hit(self, name: str, key: str, artefact):
        """Bookkeeping for one cache hit: record reuse, resume-skip
        accounting, trace instant."""
        self.record.reused.append(name)
        if self.journal is not None and self.journal.can_skip(name, key):
            self.record.resumed.append(name)
            self.tracer.instant(f"resume-skip:{name}", category="build",
                                lane="build", cache="hit", key=key,
                                resumed=True)
        else:
            self.tracer.instant(name, category="build", lane="build",
                                cache="hit", key=key)
        return artefact

    def _begin(self, name: str, key: str) -> None:
        """Before a builder may run: the deadline and breaker gates,
        the ``begin`` crash point and the journal's begin record."""
        if self.deadline is not None:
            self.deadline.check(
                name,
                completed=self.record.built + self.record.reused,
                pending=[name])
        if self.breaker is not None:
            try:
                self.breaker.check(name)
            except Exception:
                self.tracer.instant(f"breaker-open:{name}",
                                    category="build", lane="build",
                                    key=key,
                                    failures=self.breaker.failures(name))
                raise
        if self.crash_plan is not None:
            self.crash_plan.maybe_crash("begin", name)
        if self.journal is not None:
            self.journal.begin_step(name, key)

    def _failed(self, name: str, key: str, exc: BaseException) -> None:
        """A builder raised: count it against the breaker, journal it."""
        if self.breaker is not None:
            self.breaker.record_failure(name)
        if self.journal is not None:
            self.journal.fail_step(name, key, error=repr(exc))

    def _built(self, name: str, key: str, artefact):
        """A builder returned: bank the artefact, then journal the end
        (the ``mid``/``end`` crash points fall either side of the
        put)."""
        if artefact is None:
            raise BuildError(f"builder for {name!r} returned None")
        if self.crash_plan is not None:
            self.crash_plan.maybe_crash("mid", name)
        self.cache.put(key, artefact)
        if self.crash_plan is not None:
            self.crash_plan.maybe_crash("end", name)
        if self.journal is not None:
            self.journal.end_step(name, key)
        if self.breaker is not None:
            self.breaker.record_success(name)
        self.record.built.append(name)
        return artefact

    def step(self, name: str, key_parts: Tuple, builder: Callable[[], Any]):
        key = content_key(name, *key_parts)
        self.record.keys[name] = key
        artefact = self.cache.get(key)
        if artefact is not None:
            return self._hit(name, key, artefact)
        self._begin(name, key)
        try:
            with self.tracer.span(name, category="build", lane="build",
                                  cache="miss", key=key):
                start = time.perf_counter()
                artefact = builder()
                self.record.build_seconds[name] = \
                    time.perf_counter() - start
        except Exception as exc:
            self._failed(name, key, exc)
            raise
        return self._built(name, key, artefact)

    # -- batches -------------------------------------------------------------

    def step_batch(self, steps: Iterable[Union[BatchStep, Tuple]]
                   ) -> List[Any]:
        """Run independent build steps; return their artefacts in order.

        Steps must not depend on one another's artefacts — flows batch
        one dependency layer at a time (all front-end steps, then all
        page-implementation steps), which is why no scheduler is needed.
        A serial engine (or a one-step batch) runs them as a loop of
        :meth:`step` calls in list order; with ``workers > 1`` the cache
        misses go to worker processes, with the same keys, records and
        cache traffic.
        """
        steps = [s if isinstance(s, BatchStep) else BatchStep(*s)
                 for s in steps]
        if self._pool is None or len(steps) <= 1:
            return [self.step(s.name, s.key_parts, s.run) for s in steps]

        results: List[Any] = [None] * len(steps)
        misses: List[Tuple[int, BatchStep, str]] = []
        followers: List[Tuple[int, BatchStep, str]] = []
        pending = set()
        for pos, s in enumerate(steps):
            key = content_key(s.name, *s.key_parts)
            self.record.keys[s.name] = key
            if key in pending:
                # A duplicate key inside one batch: the serial loop
                # would hit the cache once the first build lands, so
                # resolve it after the gather instead of building twice.
                followers.append((pos, s, key))
                continue
            artefact = self.cache.get(key)
            if artefact is not None:
                results[pos] = self._hit(s.name, key, artefact)
            else:
                pending.add(key)
                misses.append((pos, s, key))

        if misses:
            self._gather(misses, results)
        for pos, s, key in followers:
            artefact = self.cache.get(key)
            if artefact is None:           # evicted between put and get
                artefact = s.run()
                self.cache.put(key, artefact)
                self.record.built.append(s.name)
            else:
                self.record.reused.append(s.name)
            results[pos] = artefact
        return results

    def _gather(self, misses, results) -> None:
        # Supervision gates fire before any work ships: an expired
        # deadline or an open breaker fails the batch with no futures
        # in flight, and the journal records every step about to build.
        for _pos, s, key in misses:
            self._begin(s.name, key)
        pool = self._pool.get()
        futures = None
        try:
            futures = [pool.submit(s.fn, *s.args, **s.kwargs)
                       for _pos, s, _key in misses]
        except Exception:
            # Submission itself failed (dead pool): everything falls
            # back to in-process execution below.
            self._pool.replace(pool)
        for i, (pos, s, key) in enumerate(misses):
            artefact = None
            retried = False
            trace_t0 = self.tracer.now() if self.tracer.enabled else 0.0
            start = time.perf_counter()
            if futures is not None:
                try:
                    artefact = futures[i].result()
                except BrokenProcessPool:
                    # The pool is poisoned; every remaining future fails
                    # instantly, and each step retries in-process.
                    self.worker_retries += 1
                    retried = True
                    self._pool.replace(pool)
                except Exception:
                    self.worker_retries += 1
                    retried = True
            if artefact is None:
                try:
                    artefact = s.run()
                except Exception as exc:
                    self._failed(s.name, key, exc)
                    raise
            elapsed = time.perf_counter() - start
            self.record.build_seconds[s.name] = elapsed
            if self.tracer.enabled:
                # Parent-observed wait on the worker's lane; concurrent
                # steps overlap, so the lanes read like the pool did.
                self.tracer.wall_span(
                    s.name, trace_t0, elapsed, category="build",
                    lane=f"worker-{i % max(1, self.workers)}",
                    cache="miss", key=key, worker_retry=retried)
            results[pos] = self._built(s.name, key, artefact)

    # -- lifecycle -----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """The cache's counters (hits / misses / evictions, plus tiers)."""
        return dict(self.cache.stats())

    def fresh_record(self) -> None:
        """Start a new invocation record (same cache)."""
        self.record = BuildRecord()

    def close(self) -> None:
        """Release engine resources (idempotent).

        An owned worker pool is shut down, and so is an owned cache
        with a ``close`` of its own (the remote :class:`repro.store.
        remote.ShardedStoreClient` and its socket pools).  A second
        close is a no-op.
        """
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown()
        self._pool = None
        if self._closed:
            return
        self._closed = True
        if not self.owns_cache:
            return
        close = getattr(self.cache, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "BuildEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
