"""The tracked benchmark suite: ``pld bench`` / ``python -m repro.perf.bench``.

Runs a fixed set of hot-path workloads — NoC drains, the Rosetta
-O0/-O1/-O3 flows, the cycle simulator and a warm-vs-cold incremental
edit — best-of-N, and writes the results to ``BENCH_pld.json`` so the
numbers live in the repository and CI can fail on a regression
(``--check``).  ``--quick`` scales every suite down for smoke runs;
``--profile`` prints a per-phase breakdown per suite.

The *metrics* each suite reports (cycle counts, makespans, deflections)
are deterministic and double as a coarse equivalence check: an
optimisation that changes them changed behaviour, not just speed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.perf import PerfRegistry
from repro.trace import NULL_TRACER

#: A suite regressing past this ratio of its recorded baseline fails
#: ``--check``.
REGRESSION_RATIO = 2.0

#: Best-of-N runs per suite (wall time keeps the minimum).
DEFAULT_REPEATS = 2


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _drain_topology(topo, n_ports: int, per_leaf: int, seed: int,
                    reliable: bool = False, faults=None):
    """All-to-all drain load over an existing topology (any leaf count)."""
    from repro.noc.leaf import LeafInterface
    from repro.noc.netsim import NetworkSimulator

    rng = random.Random(seed)
    n_leaves = topo.n_leaves
    kwargs = dict(reliable=True, retransmit_timeout=64) if reliable else {}
    leaves = {i: LeafInterface(i, n_ports=n_ports, **kwargs)
              for i in range(n_leaves)}
    sim = NetworkSimulator(topo, leaves, faults=faults)
    for i in range(n_leaves):
        for p in range(n_ports):
            leaves[i].bind(p, rng.randrange(n_leaves), p)
    for i in range(n_leaves):
        for k in range(per_leaf):
            leaves[i].send(k % n_ports, (i * 1000 + k) & 0xFFFFFFFF)
    return sim


def _drain_fixture(n_leaves: int, n_ports: int, per_leaf: int, seed: int,
                   reliable: bool = False, faults=None):
    from repro.noc.bft import BFTopology

    return _drain_topology(BFTopology(n_leaves), n_ports, per_leaf,
                           seed, reliable=reliable, faults=faults)


def bench_noc_drain(quick: bool = False,
                    registry: Optional[PerfRegistry] = None):
    """Drain an all-to-all packet load through the deflection NoC.

    Full mode uses a 512-leaf fabric — big-device territory, where the
    simulator takes its batched numpy router (the per-switch Python
    loop would dominate at this scale); quick mode's 16 leaves run the
    per-packet loop.
    """
    registry = registry if registry is not None else PerfRegistry()
    n_leaves, n_ports, per_leaf = (16, 4, 60) if quick else (512, 8, 60)
    with registry.timer("setup"):
        sim = _drain_fixture(n_leaves, n_ports, per_leaf, seed=7)
    with registry.timer("run"):
        wall, cycles = _timed(lambda: sim.run(max_cycles=2_000_000))
    registry.count("packets_delivered", len(sim.delivered))
    return wall, {"cycles": cycles, "delivered": len(sim.delivered),
                  "deflections": sim.total_deflections,
                  "mean_latency": sim.mean_latency()}


def bench_noc_reliable(quick: bool = False,
                       registry: Optional[PerfRegistry] = None):
    """Reliable (ack + retransmit) drain under injected drop faults."""
    from repro.faults import FaultPlan

    registry = registry if registry is not None else PerfRegistry()
    per_leaf = 30 if quick else 120
    plan = FaultPlan(seed=11, noc_drop_rate=0.01, noc_corrupt_rate=0.005)
    with registry.timer("setup"):
        sim = _drain_fixture(16, 2, per_leaf, seed=11, reliable=True,
                             faults=plan.noc_faults())
    with registry.timer("run"):
        wall, cycles = _timed(lambda: sim.run(max_cycles=2_000_000))
    return wall, {"cycles": cycles, "delivered": len(sim.delivered),
                  "dropped": sim.faults_dropped}


def _profile_engine(engine, registry: PerfRegistry) -> None:
    """Fold the engine's per-step build times into phase buckets."""
    for name, seconds in engine.record.build_seconds.items():
        phase = name.split(":", 1)[0]
        registry.add_seconds(f"step:{phase}", seconds)


def bench_o1(quick: bool = False,
             registry: Optional[PerfRegistry] = None):
    """Separate page compiles of the Rosetta digit-recognition app."""
    from repro.core import BuildEngine, O1Flow
    from repro.rosetta import get_app

    registry = registry if registry is not None else PerfRegistry()
    effort = 0.1 if quick else 0.3
    with registry.timer("setup"):
        app = get_app("digit-recognition")
        engine = BuildEngine()
    with registry.timer("run"):
        wall, build = _timed(
            lambda: O1Flow(effort=effort).compile(app.project, engine))
    _profile_engine(engine, registry)
    return wall, {"makespan_s": build.compile_times.total}


def bench_o0(quick: bool = False,
             registry: Optional[PerfRegistry] = None):
    """Softcore-everything compile plus ISS execution."""
    from repro.core import BuildEngine, O0Flow
    from repro.rosetta import get_app

    registry = registry if registry is not None else PerfRegistry()
    with registry.timer("setup"):
        app = get_app("digit-recognition")
        engine = BuildEngine()

    def go():
        build = O0Flow(effort=0.1).compile(app.project, engine)
        build.execute(app.project.sample_inputs)
        return build

    with registry.timer("run"):
        wall, build = _timed(go)
    _profile_engine(engine, registry)
    return wall, {"riscv_s": build.riscv_seconds}


def bench_o3(quick: bool = False,
             registry: Optional[PerfRegistry] = None):
    """Monolithic device-scale place-and-route of 3d-rendering."""
    from repro.core import BuildEngine, O3Flow
    from repro.rosetta import get_app

    registry = registry if registry is not None else PerfRegistry()
    effort = 0.1 if quick else 0.3
    with registry.timer("setup"):
        app = get_app("3d-rendering")
        engine = BuildEngine()
    with registry.timer("run"):
        wall, build = _timed(
            lambda: O3Flow(effort=effort).compile(app.project, engine))
    _profile_engine(engine, registry)
    return wall, {"makespan_s": build.compile_times.total}


def bench_cycle_sim(quick: bool = False,
                    registry: Optional[PerfRegistry] = None):
    """Repeated cycle-accurate simulation of optical-flow."""
    from repro.dataflow.cycle_sim import CycleSimulator
    from repro.rosetta import get_app

    registry = registry if registry is not None else PerfRegistry()
    repeats = 2 if quick else 12
    with registry.timer("setup"):
        app = get_app("optical-flow")

    def go():
        for _ in range(repeats):
            sim = CycleSimulator(app.project.graph)
            sim.run({k: list(v)
                     for k, v in app.project.sample_inputs.items()})
        return sim.makespan

    with registry.timer("run"):
        wall, makespan = _timed(go)
    registry.count("repeats", repeats)
    return wall, {"makespan_cycles": makespan}


def bench_incremental(quick: bool = False,
                      registry: Optional[PerfRegistry] = None):
    """Cold session compile, then a one-operator warm edit."""
    from repro.core import IncrementalSession, touch_spec
    from repro.store import ArtifactStore
    from repro.rosetta import get_app

    registry = registry if registry is not None else PerfRegistry()
    effort = 0.1 if quick else 0.3
    with registry.timer("setup"):
        app = get_app("digit-recognition")
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(cache_dir=tmp)
        session = IncrementalSession(store=store, effort=effort)
        with registry.timer("cold_compile"):
            cold_wall, _build = _timed(
                lambda: session.compile(app.project))
        ops = [n for n, op in app.project.graph.operators.items()
               if op.target == "HW"]
        op = app.project.graph.operators[ops[0]]
        with registry.timer("warm_edit"):
            warm_wall, result = _timed(lambda: session.apply_edit(
                ops[0], touch_spec(op.hls_spec), op.sample_spec))
    return cold_wall, {"warm_seconds": round(warm_wall, 4),
                       "pages_rebuilt":
                       len(result.build.recompiled_pages)}


def bench_store_sharded(quick: bool = False,
                        registry: Optional[PerfRegistry] = None):
    """8 concurrent writers against a 3-shard fleet, then warm reads.

    Measures what the remote store exists for: concurrent writers
    deduplicating through content addressing (a cold client finds every
    artefact another client compiled), and the warm-hit read latency a
    recompile actually pays per reused step.
    """
    import hashlib
    import statistics
    import threading

    from repro.store import ArtifactStore
    from repro.store.remote import ShardedStoreClient, StoreServer

    registry = registry if registry is not None else PerfRegistry()
    writers = 8
    per_writer = 10 if quick else 40
    #: half the key space is shared across writers — overlapping puts
    #: of identical content, the cross-client dedup case.
    shared = per_writer // 2

    def key_of(writer, i):
        tag = "shared" if i < shared else f"w{writer}"
        return hashlib.sha256(f"{tag}:{i}".encode()).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        with registry.timer("setup"):
            servers = [
                StoreServer(ArtifactStore(
                    cache_dir=f"{tmp}/shard{i}")).start()
                for i in range(3)]
            urls = [server.url for server in servers]

        def write(writer):
            client = ShardedStoreClient(urls)
            for i in range(per_writer):
                client.put(key_of(writer, i),
                           {"writer": "any", "index": i,
                            "payload": list(range(64))})
            client.close()

        def write_all():
            threads = [threading.Thread(target=write, args=(w,))
                       for w in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        with registry.timer("write"):
            write_wall, _ = _timed(write_all)

        unique = {key_of(w, i) for w in range(writers)
                  for i in range(per_writer)}
        # A cold client (empty local tier) must find every artefact
        # remotely — that is the cross-process dedup guarantee.
        reader = ShardedStoreClient(urls)
        latencies = []
        with registry.timer("read"):
            def read_all():
                for key in sorted(unique):
                    start = time.perf_counter()
                    hit = reader.get(key)
                    latencies.append(time.perf_counter() - start)
                    assert hit is not None
            read_wall, _ = _timed(read_all)
        dedup_hits = reader.stats()["remote_hits"]
        reader.close()
        for server in servers:
            server.stop()

    registry.count("writers", writers)
    registry.count("keys_unique", len(unique))
    warm_p50_us = statistics.median(latencies) * 1e6
    return write_wall + read_wall, {
        "keys_unique": len(unique),
        "writes_total": writers * per_writer,
        "dedup_remote_hits": dedup_hits,
        "warm_hit_p50_us": round(warm_p50_us, 1),
    }


def bench_serve_loadgen(quick: bool = False,
                        registry: Optional[PerfRegistry] = None):
    """N simulated tenants hammering one ``pld serve`` daemon.

    Each tenant opens a leased session on the shared daemon, compiles
    the same application (so every tenant after the first dedups its
    impl steps through the shared store), then submits a stream of
    zipf-distributed operator edits — a few hot operators take most of
    the edits, the tail is cold — which is what an interactive fleet
    looks like.  Reports client-observed p50/p99 request latency and
    the cross-tenant dedup ratio the shared store achieved.
    """
    import statistics
    import threading

    from repro.rosetta import get_app
    from repro.service.client import ServiceClient
    from repro.service.daemon import serve

    registry = registry if registry is not None else PerfRegistry()
    tenants = 2 if quick else 4
    # Quick mode is a CI smoke run: one edit per tenant at minimal
    # effort keeps the whole suite under ~2s wall.
    edits_per_tenant = 1 if quick else 5
    effort = 0.05 if quick else 0.3
    app_name = "digit-recognition"

    hw_ops = [name for name, op in
              get_app(app_name).project.graph.operators.items()
              if op.target == "HW"]
    # Zipf-ish edit mix: operator at popularity rank r drawn with
    # weight 1/(r+1)^1.1.
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(hw_ops))]

    with tempfile.TemporaryDirectory() as tmp:
        address = {}
        ready = threading.Event()
        with registry.timer("setup"):
            server = threading.Thread(
                target=serve,
                kwargs=dict(cache_dir=tmp, workers=None,
                            slots=max(2, tenants), notify=None,
                            ready=lambda h, p: (
                                address.update(host=h, port=p),
                                ready.set())),
                daemon=True)
            server.start()
            if not ready.wait(timeout=30):
                raise RuntimeError("pld serve did not come up")

        latencies: List[float] = []
        baselines: Dict[str, Dict] = {}
        lock = threading.Lock()

        def tenant_load(index: int) -> None:
            rng = random.Random(1000 + index)
            name = f"tenant{index}"
            with ServiceClient(address["host"],
                               address["port"]) as client:
                start = time.perf_counter()
                summary, _ = client.compile(
                    app_name, tenant=name, session=f"s-{name}",
                    effort=effort, timeout=300)
                first = time.perf_counter() - start
                with lock:
                    latencies.append(first)
                    baselines[name] = summary["dedup"]
                for _ in range(edits_per_tenant):
                    op = rng.choices(hw_ops, weights=weights)[0]
                    start = time.perf_counter()
                    client.compile(app_name, tenant=name,
                                   session=f"s-{name}", effort=effort,
                                   edit_operator=op, timeout=300)
                    with lock:
                        latencies.append(time.perf_counter() - start)

        def run_fleet() -> None:
            threads = [threading.Thread(target=tenant_load, args=(i,))
                       for i in range(tenants)]
            # Stagger tenant 0 so one tenant's cold compile seeds the
            # store before the rest arrive (the steady-state shape).
            threads[0].start()
            threads[0].join()
            for t in threads[1:]:
                t.start()
            for t in threads[1:]:
                t.join()

        with registry.timer("load"):
            wall, _ = _timed(run_fleet)

        with ServiceClient(address["host"], address["port"]) as client:
            stats = client.stats()
            client.shutdown()
        server.join(timeout=30)

    registry.count("tenants", tenants)
    registry.count("requests", len(latencies))
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    # Every tenant after the seeder should find its impl steps already
    # in the shared store — the cross-tenant dedup guarantee.
    follower_impl = [d["impl_ratio"] for name, d in baselines.items()
                     if name != "tenant0"]
    return wall, {
        "tenants": tenants,
        "requests": len(latencies),
        "p50_ms": round(p50 * 1e3, 1),
        "p99_ms": round(p99 * 1e3, 1),
        "dedup_ratio": round(stats["dedup_ratio"], 4),
        "cross_tenant_impl_dedup": round(min(follower_impl), 4)
        if follower_impl else 1.0,
    }


def bench_serve_overload(quick: bool = False,
                         registry: Optional[PerfRegistry] = None):
    """A deterministic submit flood against a bounded daemon.

    One ``pld serve`` daemon with a single slot and a small
    ``--max-queued`` takes a burst flood from the fault plan's
    overload injector (pure function of the seed, so the admit/shed
    split replays).  Reports the shed rate, the p99 client-observed
    latency of the *admitted* requests, and whether every admitted
    deadline-class request completed — the load-shedding contract:
    under flood, cheap work sheds so important work stays fast.
    """
    import statistics
    import threading

    from repro.errors import OverloadedError
    from repro.faults import FaultPlan
    from repro.service.client import ServiceClient
    from repro.service.daemon import serve

    registry = registry if registry is not None else PerfRegistry()
    bursts = 2 if quick else 4
    burst_size = 8 if quick else 16
    max_queued = 4 if quick else 8
    effort = 0.05
    app_name = "digit-recognition"

    plan = FaultPlan(7, overload_bursts=bursts,
                     overload_burst_size=burst_size,
                     overload_tenants=("flood-a", "flood-b"),
                     overload_deadline_fraction=0.25)
    injector = plan.overload_faults()

    with tempfile.TemporaryDirectory() as tmp:
        address = {}
        ready = threading.Event()
        with registry.timer("setup"):
            server = threading.Thread(
                target=serve,
                kwargs=dict(cache_dir=tmp, workers=None, slots=1,
                            max_queued=max_queued, notify=None,
                            ready=lambda h, p: (
                                address.update(host=h, port=p),
                                ready.set())),
                daemon=True)
            server.start()
            if not ready.wait(timeout=30):
                raise RuntimeError("pld serve did not come up")

        admitted: List[Dict] = []
        retry_afters: List[float] = []
        with registry.timer("flood"), \
                ServiceClient(address["host"],
                              address["port"]) as client:
            flood_wall, _ = _timed(lambda: None)
            start_flood = time.perf_counter()
            for b in range(bursts):
                for i, (tenant, priority, cost) in \
                        enumerate(injector.burst(b)):
                    fields = dict(flow="o0", effort=effort,
                                  tenant=tenant, cost=cost)
                    if priority == "deadline":
                        fields["deadline"] = 120.0
                    else:
                        fields["priority"] = priority
                    t0 = time.perf_counter()
                    try:
                        ticket = client.submit(app_name, **fields)
                    except OverloadedError as exc:
                        injector.record_shed(tenant, exc.reason, b, i)
                        if exc.retry_after:
                            retry_afters.append(exc.retry_after)
                        continue
                    injector.record_admitted(tenant, b, i)
                    admitted.append({"ticket": ticket,
                                     "priority": priority,
                                     "submitted": t0})
            # Collect every admitted result; latency is client-observed
            # submit→done wall (queueing included — that is the point).
            latencies = []
            deadline_done = 0
            deadline_total = 0
            for entry in admitted:
                summary, _ = client.result(entry["ticket"],
                                           timeout=300)
                latencies.append(time.perf_counter()
                                 - entry["submitted"])
                if entry["priority"] == "deadline":
                    deadline_total += 1
                    deadline_done += 1 if summary.get("ok") else 0
            flood_wall = time.perf_counter() - start_flood
            stats = client.stats()
            client.shutdown()
        server.join(timeout=30)

    flood = bursts * burst_size
    registry.count("flood_submits", flood)
    registry.count("shed", injector.shed)
    ordered = sorted(latencies) or [0.0]
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    counters = stats["admission"]["counters"]
    return flood_wall, {
        "flood_submits": flood,
        "admitted": injector.admitted,
        "shed": injector.shed,
        "shed_rate": round(injector.shed / flood, 4),
        "admitted_p50_ms": round(
            statistics.median(ordered) * 1e3, 1),
        "admitted_p99_ms": round(p99 * 1e3, 1),
        "mean_retry_after_s": round(
            statistics.mean(retry_afters), 3) if retry_afters else 0.0,
        "deadline_admitted": deadline_total,
        "deadline_completed": deadline_done,
        "shed_batch": counters.get("shed_batch", 0),
        "shed_interactive": counters.get("shed_interactive", 0),
    }


def bench_scaling(quick: bool = False,
                  registry: Optional[PerfRegistry] = None):
    """Big-device end-to-end: -O1 on a scaled multi-SLR overlay.

    Quick compiles against the 40-page U280 floorplan (3 SLRs); full
    against the 80-page VU19P (4 SLRs), whose 128-leaf NoC is large
    enough for the simulator's numpy router.  Compiles and executes
    digit-recognition, then drains an all-to-all load over a NoC sized
    to the overlay's leaf count and reports the SLR-cut geometry of the
    link network.
    """
    from repro.core import BuildEngine, O1Flow
    from repro.fabric import Overlay, XCU280, XCVU19P
    from repro.noc.bft import BFTopology
    from repro.rosetta import get_app

    registry = registry if registry is not None else PerfRegistry()
    device = XCU280 if quick else XCVU19P
    with registry.timer("setup"):
        overlay = Overlay.for_device(device)
        topo = BFTopology.for_overlay(overlay)
        app = get_app("digit-recognition")
        engine = BuildEngine()

    def compile_and_execute():
        build = O1Flow(overlay=overlay, effort=0.1).compile(
            app.project, engine)
        outputs = build.execute(app.project.sample_inputs)
        return build, outputs

    with registry.timer("compile"):
        compile_wall, (build, _outputs) = _timed(compile_and_execute)
    _profile_engine(engine, registry)

    def drain():
        sim = _drain_topology(topo, n_ports=4,
                              per_leaf=10 if quick else 20, seed=7)
        cycles = sim.run(max_cycles=2_000_000)
        return sim, cycles

    with registry.timer("drain"):
        drain_wall, (sim, cycles) = _timed(drain)
    cuts = topo.slr_cut_links()
    registry.count("pages", len(overlay.pages))
    return compile_wall + drain_wall, {
        "device": device.name,
        "pages": len(overlay.pages),
        "slrs": len(device.slrs),
        "slr_cut_links": len(cuts),
        "max_slrs_spanned": max((n for _, n in cuts), default=1),
        "makespan_s": build.compile_times.total,
        "noc_cycles": cycles,
        "noc_delivered": len(sim.delivered),
    }


#: suite name -> callable(quick, registry) -> (wall_seconds, metrics)
SUITES: Dict[str, Callable] = {
    "noc_drain": bench_noc_drain,
    "noc_reliable_drain": bench_noc_reliable,
    "rosetta_o1": bench_o1,
    "rosetta_o0": bench_o0,
    "rosetta_o3": bench_o3,
    "cycle_sim": bench_cycle_sim,
    "incremental_edit": bench_incremental,
    "store_sharded": bench_store_sharded,
    "serve_loadgen": bench_serve_loadgen,
    "serve_overload": bench_serve_overload,
    "scaling": bench_scaling,
}

# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------


def run_suites(names: Optional[List[str]] = None, quick: bool = False,
               repeats: int = DEFAULT_REPEATS, profile: bool = False,
               out=sys.stdout, tracer=None) -> Dict[str, Dict]:
    """Run the selected suites best-of-``repeats``; returns the results
    dict that ``BENCH_pld.json`` stores.

    A suite that raises does not abort the run: its entry becomes
    ``{"error": "..."}`` and the remaining suites still execute (the
    caller decides the exit code), so one broken workload never costs
    the whole results file.  With a tracer, every repeat is a
    wall-clock span on the ``bench`` lane.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    results: Dict[str, Dict] = {}
    for name in (names or list(SUITES)):
        if name not in SUITES:
            raise SystemExit(f"unknown bench suite {name!r}; "
                             f"have: {', '.join(SUITES)}")
        best: Optional[float] = None
        meta: Dict = {}
        best_registry = PerfRegistry()
        try:
            for repeat in range(max(1, repeats)):
                registry = PerfRegistry()
                with tracer.span(f"suite:{name}", category="bench",
                                 lane="bench", quick=quick,
                                 repeat=repeat) as span:
                    wall, metrics = SUITES[name](quick=quick,
                                                 registry=registry)
                    span.set(suite_wall_s=round(wall, 4))
                if best is None or wall < best:
                    best, meta, best_registry = wall, metrics, registry
        except Exception as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            print(f"{name}: ERROR {type(exc).__name__}: {exc}",
                  file=out, flush=True)
            continue
        results[name] = {"wall_seconds": round(best, 4), **meta}
        print(f"{name}: {results[name]}", file=out, flush=True)
        if profile:
            print(best_registry.format_table(), file=out)
    return results


def check_regressions(results: Dict[str, Dict], baseline: Dict[str, Dict],
                      ratio: float = REGRESSION_RATIO,
                      out=sys.stdout) -> List[str]:
    """Names of suites slower than ``ratio`` × their baseline.

    Baseline suites absent from ``results`` are warned about rather
    than silently skipped (a renamed or dropped suite should not make
    the check vacuous), and a suite that errored while its baseline has
    a number counts as failed.
    """
    failed: List[str] = []
    for name in baseline:
        if name not in results:
            print(f"warning: baseline suite {name!r} not in results; "
                  f"not checked", file=out)
    for name, entry in results.items():
        base = baseline.get(name)
        if not base or "wall_seconds" not in base:
            continue
        new = entry.get("wall_seconds")
        if new is None:
            failed.append(name)
            print(f"REGRESSION {name}: suite errored "
                  f"({entry.get('error', 'no wall_seconds')}) but "
                  f"baseline has {base['wall_seconds']:.4f}s", file=out)
            continue
        old = base["wall_seconds"]
        if old > 0 and new > old * ratio:
            failed.append(name)
            print(f"REGRESSION {name}: {new:.4f}s vs baseline "
                  f"{old:.4f}s (> {ratio:.1f}x)", file=out)
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pld bench",
        description="Run the tracked PLD benchmark suite.")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down suites for CI smoke runs")
    parser.add_argument("--suite", action="append", dest="suites",
                        metavar="NAME",
                        help="run only this suite (repeatable); "
                        f"one of: {', '.join(SUITES)}")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="best-of-N runs per suite (default "
                        f"{DEFAULT_REPEATS})")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase breakdown per suite")
    parser.add_argument("--output", default="BENCH_pld.json",
                        help="result file (default BENCH_pld.json)")
    parser.add_argument("--check", metavar="BASELINE", nargs="?",
                        const="BENCH_pld.json", default=None,
                        help="compare against a baseline JSON (default "
                        "BENCH_pld.json) and fail on a "
                        f">{REGRESSION_RATIO:.0f}x regression")
    parser.add_argument("--no-write", action="store_true",
                        help="do not write the result file")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the "
                        "bench run (one span per suite repeat)")
    args = parser.parse_args(argv)

    baseline: Optional[Dict[str, Dict]] = None
    if args.check:
        try:
            with open(args.check) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            print(f"note: baseline {args.check!r} not found; "
                  "regression check skipped")
        except json.JSONDecodeError as exc:
            # A corrupt baseline is a configuration error, not a
            # traceback: one line, nonzero exit, before any suite runs.
            print(f"error: baseline {args.check!r} is not valid JSON "
                  f"({exc})", file=sys.stderr)
            return 2
        if baseline is not None and not isinstance(baseline, dict):
            print(f"error: baseline {args.check!r} is not a "
                  f"suite -> result mapping "
                  f"(got {type(baseline).__name__})", file=sys.stderr)
            return 2
        if baseline == {}:
            print(f"warning: baseline {args.check!r} is empty; "
                  "nothing to compare against", file=sys.stderr)

    tracer = None
    if args.trace:
        from repro.trace import Tracer
        tracer = Tracer()

    results = run_suites(args.suites, quick=args.quick,
                         repeats=args.repeats, profile=args.profile,
                         tracer=tracer)
    if not args.no_write:
        with open(args.output, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        print(f"wrote trace {args.trace}")

    status = 0
    errored = sorted(name for name, entry in results.items()
                     if "error" in entry)
    if errored:
        print(f"error: {len(errored)} suite(s) failed: "
              f"{', '.join(errored)}", file=sys.stderr)
        status = 1
    if baseline is not None:
        failed = check_regressions(results, baseline)
        if failed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
