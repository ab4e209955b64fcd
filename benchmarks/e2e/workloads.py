"""The four workloads: what each run sends, and how it is timed.

A run's inputs are a pure function of ``(seed, seconds)``: the plan
functions below draw app order, edit sequences and request mixes from
the seed, and size the run from the nominal operation costs so that it
measures for about ``seconds``.  The program only ever sees the
generated requests.

Fixed settings everywhere: effort 0.3 (the CLI default), the serial
engine (``--workers`` unset), ``pld serve`` with its default 4 slots,
and load from one process with at most two threads and two
connections.

Every timing is wall seconds scaled to a reference host speed, which
a fixed loop measures around set-ups (:class:`HostSpeed`), during
in-process operations (:class:`SpeedSampler`) and between the serve
loops' rounds (:class:`Rounds`).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from checks import (Checks, cold_miss_problem, edit_rebuild_problem,
                    expected_outputs, manifest_mismatch, output_mismatch,
                    seeded_manifest_mismatch, tab2_order_violation)
from stats import geomean

EFFORT = 0.3

#: Apps compiled cold at -O1 and -O3.  face-detection's four "strong"
#: pages route for ~5.5 s each, bnn's -O3 takes ~6 s and
#: digit-recognition's ~4.6 s: one sample of any of them would take
#: half a run and leave no time to repeat the -O1 items.
COLD_APPS = ("3d-rendering", "spam-filter", "optical-flow")
#: Apps compiled at -O0 and executed.  bnn's ISS run alone takes ~9 s,
#: so with it a run could not repeat any item.
O0_APPS = ("3d-rendering", "digit-recognition", "spam-filter",
           "optical-flow", "face-detection")
#: One leased session per tenant.
EDIT_APPS = ("digit-recognition", "spam-filter")
#: Apps the fleet is seeded with and serves.  Each seeding compile pays
#: the daemon's app construction (~1 s) on top of the build, so two
#: apps keep set-up to about a third of a run.
FLEET_APPS = ("spam-filter", "optical-flow")
FLEET_TENANTS = tuple(f"tenant{i}" for i in range(6))
#: Request mix of ``serve_fleet``: warm -O1, warm -O0, cold -O1.
FLEET_MIX = (("warm", 0.7), ("o0", 0.2), ("cold", 0.1))
ZIPF_EXPONENT = 1.1

#: Nominal speed-scaled seconds of one pass over every item of a
#: compile workload, and of one pass over its cheap items; requests per
#: second of ``--seconds`` for the serve workloads.  They size a run;
#: being constants, they give a commit and its parent the same inputs.
#: The serve rates give 20 requests in 10 s, so that the tail of
#: :func:`stats.tail` is p80, with a fifth of the requests beyond it.
COLD_PASS_S = 7.3
COLD_CHEAP_PASS_S = 1.6
O0_PASS_S = 1.7
EDIT_RATE = 2.0
FLEET_RATE = 2.0

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds the reference loop of :func:`reference_s` takes on a quiet
#: 2-core x86 VM: speed-scaled timings read as seconds on that host.
REFERENCE_S = 0.020
#: Seconds :class:`SpeedSampler` waits between readings, and the
#: interpreter's switch interval meanwhile: the longest it then waits
#: for the program's thread to let it read.
SAMPLE_INTERVAL_S = 0.25
SWITCH_INTERVAL_S = 0.25
#: Client-side wait for one request's result.
REQUEST_TIMEOUT = 120.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _passes(items: Sequence, rng: random.Random, count: int) -> List:
    """``count`` items: whole seed-shuffled passes, then part of one."""
    out: List = []
    while len(out) < count:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def _fill(items: Sequence, cheap: Sequence, rng: random.Random,
          seconds: float, pass_s: float, cheap_pass_s: float) -> List:
    """One seed-shuffled pass over every item, then passes over the cheap
    ones to fill ``seconds``.  Short operations are the noisiest, so
    they get the extra samples; whole passes keep the seed out of what
    a run is made of."""
    extra = max(0, round((seconds - pass_s) / cheap_pass_s))
    plan = _passes(items, rng, len(items))
    for _ in range(extra):
        plan += _passes(cheap, rng, len(cheap))
    return plan


def cold_build_plan(seed: int, seconds: float) -> List[Tuple[str, str]]:
    """``(app, flow)`` cold compiles; the -O1 items are the cheap ones."""
    items = [(app, flow) for app in COLD_APPS for flow in ("o1", "o3")]
    cheap = [(app, "o1") for app in COLD_APPS]
    return _fill(items, cheap, _rng("cold_build", seed), seconds,
                 COLD_PASS_S, COLD_CHEAP_PASS_S)


def o0_run_plan(seed: int, seconds: float) -> List[str]:
    """Apps to compile at -O0 and execute, in whole passes."""
    return _fill(O0_APPS, O0_APPS, _rng("o0_run", seed), seconds,
                 O0_PASS_S, O0_PASS_S)


def zipf_weights(n: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n)]


def edit_plan(seed: int, seconds: float,
              hw_ops: Dict[str, Sequence[str]]) -> Dict[str, List[str]]:
    """Per app (one tenant each): the operators its edits touch.  Each
    edit draws by zipf weight over a seed-shuffled rank of the app's
    hardware operators."""
    rng = _rng("serve_edit", seed)
    per_tenant = max(1, round(seconds * EDIT_RATE / len(hw_ops)))
    plan = {}
    for app in sorted(hw_ops):
        ranked = sorted(hw_ops[app])
        rng.shuffle(ranked)
        plan[app] = rng.choices(ranked, weights=zipf_weights(len(ranked)),
                                k=per_tenant)
    return plan


def fleet_plan(seed: int, seconds: float) -> List[Dict[str, Any]]:
    """One-shot requests in the :data:`FLEET_MIX` proportions, exactly.

    A cold request gets its own effort just above :data:`EFFORT`, which
    changes every impl step's content key, so every impl step misses.
    (The daemon drops a request's ``seed`` field when it builds the
    flow, so the seed cannot force a miss.)
    """
    rng = _rng("serve_fleet", seed)
    # Even, so that the two callers' lock-step rounds come out whole.
    total = 2 * max(2, round(seconds * FLEET_RATE / 2))
    counts = {kind: round(share * total) for kind, share in FLEET_MIX}
    counts["warm"] = total - counts["o0"] - counts["cold"]
    requests: List[Dict[str, Any]] = []
    cold = 0
    for kind, _share in FLEET_MIX:
        for app in _passes(FLEET_APPS, rng, counts[kind]):
            effort = EFFORT
            if kind == "cold":
                cold += 1
                effort = EFFORT + cold * 1e-6
            requests.append({"kind": kind, "app": app,
                             "flow": "o0" if kind == "o0" else "o1",
                             "effort": effort,
                             "tenant": rng.choice(FLEET_TENANTS)})
    rng.shuffle(requests)
    return requests


# -- running -------------------------------------------------------------------


def _reference_loop() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def _timed_loop() -> Tuple[float, float]:
    """Start and end of one run of the reference loop."""
    start = time.perf_counter()
    _reference_loop()
    return start, time.perf_counter()


def reference_s() -> float:
    """Median of three timed runs of a fixed pure-Python loop: how fast
    the host runs this interpreter right now."""
    return statistics.median(end - start for start, end in
                             (_timed_loop() for _ in range(3)))


class HostSpeed:
    """Scales intervals by the reference loop's time just before and
    just after each, read while the benchmark runs nothing else.

    On a shared 2-core x86 VM the same -O1 compile took anywhere from
    1.0 s to 1.9 s within one minute, and the reference loop slowed
    with it.  A time multiplied by :data:`REFERENCE_S` over the loop's
    time reads as seconds on a host where the loop takes
    :data:`REFERENCE_S`; for those repeated compiles this cut the
    quartile spread from 24-27% of the median to 7-9%.
    """

    def __init__(self):
        self.last = reference_s()

    def scale(self) -> float:
        """The scale for the interval since the previous call."""
        now = reference_s()
        scale = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return scale


class SpeedSampler:
    """Times the reference loop every :data:`SAMPLE_INTERVAL_S` on a
    background thread while an in-process workload runs.

    Readings taken only before and after a 5-10 s compile miss the
    speed changes inside it: on repeated identical -O3 and bnn -O0 runs
    they left a quartile spread of 8-13% of the median, against 2-3%
    with readings taken during the run.  While the sampler runs, the
    interpreter's switch interval is :data:`SWITCH_INTERVAL_S`, ten
    times a reading, so the program's thread never runs inside one and
    an operation's time excludes the readings inside it.  At the default
    5 ms the two threads interleave within a reading, and readings
    varied by 13% of their mean, against 3% without.
    """

    def __init__(self):
        #: ``(start, end)`` of each reading.
        self.readings: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="bench-speed", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self._read()
        sys.setswitchinterval(self._switch_interval)
        return False

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._read()

    def _read(self) -> None:
        self.readings.append(_timed_loop())

    def apply(self, ops: List[Dict[str, Any]]) -> None:
        """Give each operation its scale: readings during it, or for an
        operation shorter than the interval the nearest ones around it."""
        for op in ops:
            t0, t1 = op["t0"], op["t1"]
            sampler_s = 0.0
            during = []
            for start, end in self.readings:
                sampler_s += max(0.0, min(end, t1) - max(start, t0))
                if t0 <= (start + end) / 2 <= t1:
                    during.append(end - start)
            if not during:
                during = [e - s for s, e in self.readings if e <= t0][-1:] \
                    + [e - s for s, e in self.readings if s >= t1][:1]
            wall = t1 - t0
            op["scale"] = ((wall - sampler_s) / wall * REFERENCE_S
                           / statistics.mean(during))


class Rounds:
    """Lock-step rounds for the callers of a serve loop.

    Each caller sends one request per round, then waits for the others.
    The last to arrive times the reference loop while no request is in
    flight: a reading taken next to a busy daemon would measure the
    daemon too.  A request's scale comes from the readings before and
    after its round, as in :class:`HostSpeed`.
    """

    def __init__(self, callers: int):
        self.readings = [reference_s()]
        self.barrier = threading.Barrier(
            callers, action=lambda: self.readings.append(reference_s()))

    def current(self) -> int:
        return len(self.readings) - 1

    def end_round(self) -> None:
        self.barrier.wait(timeout=REQUEST_TIMEOUT)

    def apply(self, ops: List[Dict[str, Any]]) -> None:
        """Give each request of the finished rounds its scale."""
        for op in ops:
            index = op["round"]
            before, after = self.readings[index], self.readings[index + 1]
            op["scale"] = REFERENCE_S / ((before + after) / 2)


class Run:
    """What one run measured; :func:`worker.end_to_end` turns it into
    metrics."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        #: Speed-scaled seconds of each repeated set-up.
        self.setup_samples: List[float] = []
        #: Speed-scaled set-up work done once after the repeated part
        #: (cold session compiles, fleet seeding).
        self.warmup_s = 0.0
        #: ``{"item", "t0", "t1", "scale", "tid", "ok", "error", ...}``
        #: per op; its latency is ``(t1 - t0) * scale``.
        self.ops: List[Dict[str, Any]] = []
        self.phase = (0.0, 0.0)
        self.checks = Checks()
        self.peak_rss_mb = 0.0
        #: Modeled outputs (Tab. 2 seconds, Tab. 3 seconds per input).
        self.info: Dict[str, float] = {}
        #: Per-layer counts the benchmark reads from the program itself.
        self.counts: Dict[str, float] = {}

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples) + self.warmup_s


def _timed_setup(run: Run, fn: Callable[[], Any],
                 undo: Optional[Callable[[Any], None]] = None) -> Any:
    """Run ``fn`` :data:`SETUP_REPEATS` times and time each; ``undo``
    tears down every result but the last, untimed."""
    speed = HostSpeed()
    result = None
    for attempt in range(SETUP_REPEATS):
        if attempt and undo is not None:
            undo(result)
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        run.setup_samples.append(elapsed * speed.scale())
    return result


def _apps():
    from repro.rosetta import all_apps
    return all_apps()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _op(run: Run, item: str, fn: Callable[[], Any]) -> Any:
    """Time one in-process operation; a raise is a failed op."""
    gc.collect()
    record = {"item": item, "tid": threading.get_ident(), "ok": True}
    record["t0"] = time.perf_counter()
    try:
        return fn()
    except Exception as exc:          # noqa: BLE001 - counted, reported
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        record["t1"] = time.perf_counter()
        run.ops.append(record)


def run_cold_build(run: Run, tracing, _fleet) -> None:
    from repro.core import BuildEngine, O0Flow
    from repro.core.flows import FLOWS

    apps = _timed_setup(run, _apps)
    plan = cold_build_plan(run.seed, run.seconds)
    first: Dict[Tuple[str, str], Any] = {}
    with SpeedSampler() as sampler, tracing():
        start = time.perf_counter()
        for app, flow in plan:
            build = _op(run, f"{app}/{flow}", lambda: FLOWS[flow](
                effort=EFFORT).compile(apps[app].project, BuildEngine()))
            if build is not None:
                first.setdefault((app, flow), build)
        run.phase = (start, time.perf_counter())
    sampler.apply(run.ops)
    run.peak_rss_mb = _self_rss_mb()

    expected = {app: expected_outputs(apps[app]) for app in COLD_APPS}
    for (app, flow), build in sorted(first.items()):
        inputs = {k: list(v)
                  for k, v in apps[app].project.sample_inputs.items()}
        problem = output_mismatch(build.execute(inputs), expected[app])
        run.checks.expect(problem is None, f"{app} -{flow}: {problem}")
    for app in COLD_APPS:
        if (app, "o1") not in first or (app, "o3") not in first:
            continue
        o0 = O0Flow(effort=EFFORT).compile(apps[app].project, BuildEngine())
        problem = tab2_order_violation(
            o0.riscv_seconds, first[(app, "o1")].compile_times.total,
            first[(app, "o3")].compile_times.total)
        run.checks.expect(problem is None, f"{app}: {problem}")
    if first:
        run.info["modeled_compile_s"] = geomean(
            [b.compile_times.total for b in first.values()])
        run.info["design_s_per_input"] = geomean(
            [b.performance.seconds_per_input for b in first.values()])


def run_o0(run: Run, tracing, _fleet) -> None:
    from repro.core import BuildEngine, O0Flow

    apps = _timed_setup(run, _apps)
    plan = o0_run_plan(run.seed, run.seconds)
    outputs: List[Tuple[str, Any]] = []
    cycles = 0

    def turnaround(app):
        nonlocal cycles
        inputs = {k: list(v)
                  for k, v in apps[app].project.sample_inputs.items()}
        build = O0Flow(effort=EFFORT).compile(apps[app].project,
                                              BuildEngine())
        result = build.execute(inputs)
        cycles += sum(build.softcore_cycles().values())
        return build.riscv_seconds, result

    with SpeedSampler() as sampler, tracing():
        start = time.perf_counter()
        for app in plan:
            done = _op(run, app, lambda: turnaround(app))
            if done is not None:
                outputs.append((app, done))
        run.phase = (start, time.perf_counter())
    sampler.apply(run.ops)
    run.peak_rss_mb = _self_rss_mb()
    run.counts["softcore.iss.cycles"] = cycles

    expected = {app: expected_outputs(apps[app]) for app in O0_APPS}
    for app, (_riscv, result) in outputs:
        problem = output_mismatch(result, expected[app])
        run.checks.expect(problem is None, f"{app} -O0: {problem}")
    if outputs:
        run.info["modeled_compile_s"] = geomean(
            [riscv for _app, (riscv, _r) in outputs])


def _client(host: str, port: int):
    from repro.service import ServiceClient
    return ServiceClient(host, port)


def _request(run: Run, rounds: Rounds, client, item: str,
             **fields) -> Optional[Tuple]:
    """One client-observed request: submit, then wait for the result."""
    record = {"item": item, "tid": threading.get_ident(), "ok": True,
              "round": rounds.current()}
    record["t0"] = time.perf_counter()
    try:
        summary, manifest = client.compile(fields.pop("app"),
                                           timeout=REQUEST_TIMEOUT,
                                           **fields)
        record["ticket"] = summary.get("ticket")
        return summary, manifest
    except Exception as exc:          # noqa: BLE001 - counted, reported
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        record["t1"] = time.perf_counter()
        run.ops.append(record)


def _parallel(fns: Sequence[Callable[[], None]]) -> None:
    """Run the callables on their own threads and wait for all; the
    first exception any raised is re-raised."""
    errors: List[BaseException] = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in fns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _start_daemon(fleet, store_shards: int = 0):
    """Start servers and wait until the daemon answers a ping."""
    urls = None
    shards: List = []
    if store_shards:
        shards, urls = fleet.start_shards(store_shards)
    daemon, host, port = fleet.start_daemon(urls)
    with _client(host, port) as client:
        client.ping()
    return daemon, shards, host, port


def _stop(daemon, shards, host: str, port: int) -> None:
    with _client(host, port) as client:
        client.shutdown()
    daemon.stop(graceful=True)
    for shard in shards:
        shard.stop()


def _serve_setup(run: Run, fleet, store_shards: int):
    """Start the servers :data:`SETUP_REPEATS` times (timed); keep the
    last set running."""
    return _timed_setup(run, lambda: _start_daemon(fleet, store_shards),
                        undo=lambda servers: _stop(*servers))


def run_serve_edit(run: Run, tracing, fleet) -> None:
    from repro.core import BuildEngine, O1Flow, touch_spec

    apps = _apps()
    hw_ops = {app: [name for name, op in
                    apps[app].project.graph.operators.items()
                    if op.target == "HW"] for app in EDIT_APPS}
    plan = edit_plan(run.seed, run.seconds, hw_ops)
    daemon, shards, host, port = _serve_setup(run, fleet, 0)

    tenants = {app: (f"tenant{i}", f"session{i}")
               for i, app in enumerate(EDIT_APPS)}
    baseline: Dict[str, Tuple] = {}
    speed = HostSpeed()
    start = time.perf_counter()

    def open_session(app):
        tenant, session = tenants[app]
        with _client(host, port) as client:
            baseline[app] = client.compile(
                app, timeout=REQUEST_TIMEOUT, tenant=tenant,
                session=session, effort=EFFORT)

    _parallel([lambda app=app: open_session(app) for app in EDIT_APPS])
    run.warmup_s = (time.perf_counter() - start) * speed.scale()

    results: Dict[str, List[Optional[Tuple]]] = {app: [] for app in plan}
    rounds = Rounds(len(plan))

    def tenant_loop(app):
        tenant, session = tenants[app]
        with _client(host, port) as client:
            for operator in plan[app]:
                results[app].append(_request(
                    run, rounds, client, f"{app}/edit", app=app,
                    tenant=tenant, session=session, effort=EFFORT,
                    edit_operator=operator))
                rounds.end_round()

    with tracing():
        start = time.perf_counter()
        _parallel([lambda app=app: tenant_loop(app) for app in plan])
        run.phase = (start, time.perf_counter())
    rounds.apply(run.ops)
    _stop(daemon, shards, host, port)
    fleet.close()
    run.peak_rss_mb = _children_rss_mb()

    for app, outcomes in results.items():
        for outcome in outcomes:
            if outcome is not None:
                problem = edit_rebuild_problem(outcome[0])
                run.checks.expect(problem is None, f"{app}: {problem}")
        # The session's final manifest must equal a clean in-process
        # -O1 compile of the same edited project.
        project = apps[app].project
        for operator in plan[app]:
            op = project.graph.operators[operator]
            project = project.with_spec(operator, touch_spec(op.hls_spec),
                                        op.sample_spec)
        clean = O1Flow(effort=EFFORT).compile(project, BuildEngine())
        last = outcomes[-1] if outcomes else None
        problem = manifest_mismatch(last[1], clean.manifest()) if last \
            else "no final manifest"
        run.checks.expect(problem is None,
                          f"{app}: final session manifest vs a clean -O1 "
                          f"compile: {problem}")


def run_serve_fleet(run: Run, tracing, fleet) -> None:
    plan = fleet_plan(run.seed, run.seconds)
    daemon, shards, host, port = _serve_setup(run, fleet, 2)

    seeded: Dict[Tuple[str, str], bytes] = {}
    speed = HostSpeed()
    start = time.perf_counter()
    seeds = [(app, flow) for app in FLEET_APPS for flow in ("o1", "o0")]

    def seeder(share):
        with _client(host, port) as client:
            for app, flow in share:
                _summary, manifest = client.compile(
                    app, timeout=REQUEST_TIMEOUT, flow=flow,
                    effort=EFFORT, tenant="seeder")
                seeded[(app, flow)] = manifest

    _parallel([lambda: seeder(seeds[0::2]), lambda: seeder(seeds[1::2])])
    run.warmup_s = (time.perf_counter() - start) * speed.scale()

    outcomes: List[Tuple[Dict[str, Any], Optional[Tuple]]] = []
    rounds = Rounds(2)

    def client_loop(share):
        with _client(host, port) as client:
            for request in share:
                fields = {k: v for k, v in request.items() if k != "kind"}
                outcomes.append((request, _request(
                    run, rounds, client,
                    f"{request['kind']}/{request['flow']}", **fields)))
                rounds.end_round()

    with tracing():
        start = time.perf_counter()
        _parallel([lambda: client_loop(plan[0::2]),
                   lambda: client_loop(plan[1::2])])
        run.phase = (start, time.perf_counter())
    rounds.apply(run.ops)
    _stop(daemon, shards, host, port)
    fleet.close()
    run.peak_rss_mb = _children_rss_mb()

    for request, outcome in outcomes:
        if outcome is None:
            continue
        summary, manifest = outcome
        if request["kind"] == "cold":
            problem = cold_miss_problem(summary)
        else:
            problem = seeded_manifest_mismatch(
                manifest, seeded[(request["app"], request["flow"])])
        run.checks.expect(problem is None,
                          f"{request['app']} {request['kind']}: {problem}")


RUNNERS = {
    "cold_build": run_cold_build,
    "o0_run": run_o0,
    "serve_edit": run_serve_edit,
    "serve_fleet": run_serve_fleet,
}
SERVE_WORKLOADS = ("serve_edit", "serve_fleet")
