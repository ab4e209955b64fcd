"""Command-line interface: ``python -m repro.cli``.

A small ``pld``-style driver around the flows, mirroring how the
paper's Makefile targets are used day to day:

.. code-block:: console

    $ python -m repro.cli apps
    $ python -m repro.cli compile optical-flow --flow o1 --out build/
    $ python -m repro.cli compile optical-flow --cache-dir .pld-cache
    $ python -m repro.cli edit optical-flow --cache-dir .pld-cache
    $ python -m repro.cli run optical-flow --flow o0
    $ python -m repro.cli tables --apps 3d-rendering,bnn
    $ python -m repro.cli serve .pld-state --port 7411
    $ python -m repro.cli submit optical-flow --server 127.0.0.1:7411
    $ python -m repro.cli fsck .pld-cache

Every compile verb is a thin frontend over
:class:`repro.service.CompileService` — the session-manager layer that
owns engine/store/journal/tracer wiring.  ``compile``/``run``/``tables``
construct a private in-process service; ``serve`` exposes a shared one
over TCP so many tenants multiplex one store and one worker pool, and
``submit``/``status``/``result`` are the matching client verbs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from repro.errors import DeadlineExceeded, DeadlockError, PLDError
from repro.core import (
    O0Flow,
    O1Flow,
    O3Flow,
    VitisFlow,
    format_area_table,
    format_compile_table,
    format_performance_table,
)
from repro.core.flows import FLOWS
from repro.platform import HostProgram

DEFAULT_SERVER = "127.0.0.1:7411"


def _app(name: str):
    from repro.rosetta import get_app
    return get_app(name)


def cmd_apps(_args) -> int:
    from repro.rosetta import all_apps
    print(f"{'app':20s} {'ops':>4s} {'description'}")
    for name, app in all_apps().items():
        print(f"{name:20s} {len(app.project.graph.operators):4d} "
              f"{app.description}")
    return 0


def _tracer(args):
    """A live tracer when ``--trace FILE`` was given, else None."""
    if getattr(args, "trace", None):
        from repro.trace import Tracer
        return Tracer()
    return None


def _write_trace(tracer, args) -> None:
    if tracer is not None and getattr(args, "trace", None):
        tracer.write_chrome_trace(args.trace)
        print(f"wrote trace {args.trace} "
              f"({len(tracer)} events; view with 'pld trace "
              f"{args.trace}' or load into Perfetto)")


def _service(args, tracer=None):
    """An in-process :class:`CompileService` wired from the CLI flags.

    This is the whole of the CLI's build orchestration now: stores,
    journals, deadlines and crash plans are the service's job (the
    same layer ``pld serve`` runs shared), so one-shot verbs just
    submit a request and print the outcome.
    """
    from repro.service import CompileService, ServiceConfig
    return CompileService(ServiceConfig(
        cache_dir=getattr(args, "cache_dir", None),
        store_urls=getattr(args, "store", None),
        workers=getattr(args, "workers", None),
        tracer=tracer, notify=print))


def _request(args):
    """A :class:`CompileRequest` from the compile-verb flags."""
    from repro.service import CompileRequest
    return CompileRequest(
        app=args.app,
        flow=getattr(args, "flow", "o1"),
        effort=args.effort,
        resume=bool(getattr(args, "resume", False)),
        deadline=getattr(args, "deadline", None),
        crash_at_step=getattr(args, "crash_at_step", None),
        crash_point=getattr(args, "crash_point", "mid"))


def cmd_compile(args) -> int:
    if getattr(args, "resume", False) \
            and not getattr(args, "cache_dir", None):
        raise SystemExit("--resume needs --cache-dir (the journal lives "
                         "in the store)")
    tracer = _tracer(args)
    service = _service(args, tracer)
    try:
        outcome = service.compile(_request(args))
    finally:
        service.close()
    build = outcome.build
    times = build.compile_times
    if args.flow == "o0":
        print(f"compiled {args.app} with -O0 in "
              f"{build.riscv_seconds:.1f} modeled seconds")
    else:
        print(f"compiled {args.app} with {build.flow}: "
              f"hls {times.hls:.0f}s syn {times.syn:.0f}s "
              f"p&r {times.pnr:.0f}s bit {times.bit:.0f}s "
              f"-> total {times.total:.0f}s (modeled)")
    print(f"performance: {build.performance.per_input_text()} per input "
          f"at {build.performance.fmax_mhz:.0f} MHz "
          f"(bottleneck {build.performance.bottleneck})")
    print(f"area: {build.area.luts} LUTs, {build.area.brams} BRAM18, "
          f"{build.area.dsps} DSPs"
          + (f", {build.area.pages} pages" if build.area.pages else ""))
    print(f"pages rebuilt: {len(build.recompiled_pages)}")
    if build.resumed:
        print(f"resume: skipped {len(build.resumed)} journaled step(s) "
              f"from the interrupted build")
    if build.cache_stats:
        stats = build.cache_stats
        print(f"cache: {stats.get('hits', 0)} hits, "
              f"{stats.get('misses', 0)} misses, "
              f"{stats.get('evictions', 0)} evictions")
        if "remote_hits" in stats:
            print(f"store: {stats['remote_hits']} remote hits, "
                  f"{stats.get('degraded_gets', 0) + stats.get('degraded_puts', 0)}"
                  f" degraded ops, "
                  f"{len(stats.get('quarantined', []))} shard(s) "
                  f"quarantined, "
                  f"{sum(stats.get('pending', {}).values())} write(s) "
                  f"owed")
    dedup = outcome.dedup
    if (getattr(args, "cache_dir", None) or getattr(args, "store", None)) \
            and dedup.get("steps"):
        print(f"dedup: {dedup['hits']}/{dedup['steps']} step(s) served "
              f"from the store ({100 * dedup['ratio']:.0f}%), "
              f"impl {dedup['impl_hits']}/{dedup['impl_steps']} "
              f"({100 * dedup['impl_ratio']:.0f}%)")
    if getattr(args, "manifest", None):
        import json
        with open(args.manifest, "w") as handle:
            json.dump(build.manifest(), handle, indent=2, sort_keys=True)
        print(f"wrote build manifest {args.manifest}")
    if args.out:
        written = build.write_artifacts(args.out)
        print(f"wrote {len(written)} artefacts to {args.out}")
    _write_trace(tracer, args)
    return 0


def cmd_fsck(args) -> int:
    """Check and repair an artifact store (local dir or remote shards)."""
    from repro.resilience import TMP_GRACE_SECONDS

    if args.fsck_grace is None:
        args.fsck_grace = TMP_GRACE_SECONDS
    if getattr(args, "shard", None):
        return _fsck_shards(args)
    if not args.cache_dir:
        raise SystemExit("fsck needs a store directory or --shard URLS")
    from repro.resilience import fsck_store

    report = fsck_store(args.cache_dir, grace=args.fsck_grace)
    print(report.summary())
    return 0


def _fsck_shards(args) -> int:
    """Run the store doctor on every remote shard backend."""
    from repro.store.remote import ShardClient, parse_store_urls

    failures = 0
    for url in parse_store_urls(args.shard):
        client = ShardClient(url)
        try:
            response, _ = client.request(
                "fsck", extra={"grace": args.fsck_grace})
        except PLDError as exc:
            print(f"fsck {url}: UNREACHABLE ({exc})")
            failures += 1
            continue
        finally:
            client.close()
        report = response.get("report", {})
        state = "clean" if report.get("clean") else "healed defects"
        print(f"fsck {url} ({report.get('cache_dir', '?')}): {state}, "
              f"{report.get('objects_checked', 0)} objects verified")
        for action in report.get("actions", []):
            print(f"  - {action}")
    return 2 if failures else 0


def cmd_store(args) -> int:
    """``pld store serve`` — run one shard backend in the foreground."""
    if args.store_command == "serve":
        from repro.store.remote import serve_forever
        serve_forever(args.cache_dir, host=args.host, port=args.port)
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


def cmd_edit(args) -> int:
    """The incremental loop demo: warm compile, one edit, delta reload."""
    from repro.core import touch_spec, format_incremental_report

    app = _app(args.app)
    tracer = _tracer(args)
    service = _service(args, tracer)
    session = service.open_session(effort=args.effort)
    try:
        build = session.compile(app.project)
        print(f"baseline: {build.describe()}; "
              f"{len(build.recompiled_pages)} page(s) rebuilt")

        operator = args.operator
        if operator is None:
            # Default to the first HW operator so the demo touches a page.
            hw = [name for name, op in app.project.graph.operators.items()
                  if op.target == "HW"]
            if not hw:
                raise SystemExit(f"{args.app} has no HW operators to edit")
            operator = hw[0]
        op = app.project.graph.operators.get(operator)
        if op is None:
            raise SystemExit(f"no operator {operator!r} in {args.app}")

        host = HostProgram(build, tracer=tracer)
        host.configure()
        result = session.apply_edit(operator, touch_spec(op.hls_spec),
                                    op.sample_spec)
        session.reload(host, result)
        print(format_incremental_report(result))
        if args.timeline:
            print(host.timeline.summarize())
    finally:
        session.close()
        service.close()
    _write_trace(tracer, args)
    return 0


def cmd_run(args) -> int:
    tracer = _tracer(args)
    service = _service(args, tracer)
    try:
        outcome = service.compile(_request(args))
    finally:
        service.close()
    build = outcome.build
    host = HostProgram(build, tracer=tracer)
    outputs = host.run(_app(args.app).project.sample_inputs)
    for name, tokens in outputs.items():
        preview = tokens[:8]
        suffix = " ..." if len(tokens) > 8 else ""
        print(f"{name}: {len(tokens)} tokens {preview}{suffix}")
    if args.timeline:
        print(host.timeline.summarize())
    _write_trace(tracer, args)
    return 0


def cmd_tables(args) -> int:
    from repro.rosetta import all_apps
    chosen = args.apps.split(",") if args.apps else None
    # One engine from the service factory, shared across every flow and
    # app, so repeated front-end steps hit the in-memory cache.
    service = _service(args)
    engine = service.build_engine()
    builds: Dict[str, Dict[str, object]] = {}
    try:
        for name, app in all_apps().items():
            if chosen and name not in chosen:
                continue
            builds[name] = {
                "Vitis": VitisFlow(effort=args.effort).compile(
                    app.project, engine),
                "PLD -O3": O3Flow(effort=args.effort).compile(
                    app.project, engine),
                "PLD -O1": O1Flow(effort=args.effort).compile(
                    app.project, engine),
                "PLD -O0": O0Flow(effort=args.effort).compile(
                    app.project, engine),
            }
    finally:
        engine.close()
        if engine.journal is not None:
            engine.journal.close()
        service.close()
    print("== compile time (Tab. 2) ==")
    print(format_compile_table(builds))
    print("\n== performance (Tab. 3) ==")
    print(format_performance_table(builds))
    print("\n== area (Tab. 4) ==")
    print(format_area_table(builds))
    return 0


# -- the daemon and its client verbs -----------------------------------------

def cmd_serve(args) -> int:
    """``pld serve`` — run the compile service as a TCP daemon."""
    from repro.service.daemon import serve

    quotas = {}
    for spec in args.quota or []:
        tenant, _, workers = spec.partition("=")
        if not tenant or not workers.isdigit():
            raise SystemExit(f"bad --quota {spec!r} (want TENANT=N)")
        quotas[tenant] = int(workers)
    tokens = {}
    for spec in args.token or []:
        tenant, sep, secret = spec.partition("=")
        if not tenant or not sep or not secret:
            raise SystemExit(f"bad --token {spec!r} "
                             f"(want TENANT=SECRET)")
        tokens[tenant] = secret
    rates = {}
    for spec in args.rate or []:
        tenant, sep, rate = spec.partition("=")
        rate = rate[:-2] if rate.endswith("/s") else rate
        try:
            rates[tenant] = float(rate)
        except ValueError:
            rate = ""
        if not tenant or not sep or not rate or rates[tenant] <= 0:
            raise SystemExit(f"bad --rate {spec!r} (want TENANT=N/s)")
    return serve(args.state, host=args.host, port=args.port,
                 workers=args.workers, slots=args.slots,
                 quotas=quotas, default_quota=args.default_quota,
                 trace=args.trace, store_urls=args.store,
                 tokens=tokens,
                 max_queued=args.max_queued,
                 max_queued_per_tenant=args.max_queued_per_tenant,
                 rates=rates, default_rate=args.default_rate,
                 brownout_high=args.brownout_high,
                 brownout_low=args.brownout_low,
                 peers=args.peer or [],
                 max_connections=args.max_connections,
                 frame_timeout=args.frame_timeout)


def _service_client(args):
    from repro.service import ServiceClient

    server = getattr(args, "server", DEFAULT_SERVER)
    host, _, port = server.rpartition(":")
    try:
        return ServiceClient(host or "127.0.0.1", int(port),
                             token=getattr(args, "token", None))
    except ValueError:
        raise SystemExit(f"bad --server {server!r} (want HOST:PORT)")


def cmd_submit(args) -> int:
    """Enqueue a compile/edit on a ``pld serve`` daemon."""
    from repro.errors import ServiceError

    with _service_client(args) as client:
        try:
            ticket = client.submit(
                args.app, wait=getattr(args, "wait", None),
                flow=args.flow, effort=args.effort,
                tenant=args.tenant, session=args.session,
                priority=args.priority, deadline=args.deadline,
                cost=args.cost, edit_operator=args.edit_operator,
                crash_at_step=getattr(args, "crash_at_step", None))
        except ServiceError as exc:
            if exc.kind not in ("overloaded", "draining"):
                raise
            hints = []
            if exc.retry_after:
                hints.append(f"retry in ~{exc.retry_after:g}s "
                             f"(or pass --wait to retry here)")
            if exc.peers:
                hints.append(f"peers: {', '.join(exc.peers)}")
            suffix = f" — {'; '.join(hints)}" if hints else ""
            raise SystemExit(f"{exc.kind}: {exc}{suffix}")
        if client.retries:
            print(f"admitted after {client.retries} overload "
                  f"retry(ies)", flush=True)
    print(ticket)
    return 0


def cmd_drain(args) -> int:
    """Start a zero-downtime drain on a ``pld serve`` daemon."""
    with _service_client(args) as client:
        response = client.drain()
    peers = response.get("peers") or []
    suffix = f"; peers: {', '.join(peers)}" if peers else ""
    print(f"draining: running builds finish, new submits answer "
          f"kind=draining{suffix}")
    return 0


def cmd_health(args) -> int:
    """Print a daemon's liveness/readiness; exit 1 when not ready."""
    with _service_client(args) as client:
        health = client.health()
    print(f"live={health['live']} ready={health['ready']} "
          f"draining={health['draining']} "
          f"brownout={health['brownout']} "
          f"queued={health['queued']} running={health['running']} "
          f"connections={health['connections']}")
    return 0 if health.get("ready") else 1


def cmd_status(args) -> int:
    with _service_client(args) as client:
        status = client.status(args.ticket)
    position = status.get("position")
    queue = f" (queue position {position})" if position is not None else ""
    print(f"{status['ticket']}: {status['state']}{queue} "
          f"[tenant {status.get('tenant')}, app {status.get('app')}]")
    return 0


def cmd_result(args) -> int:
    """Wait for a daemon-side build and print its summary."""
    with _service_client(args) as client:
        summary, manifest = client.result(args.ticket,
                                          timeout=args.timeout)
    print(f"{summary['ticket']}: {summary['kind']} done "
          f"in {summary['wall_seconds']:.2f}s wall")
    if summary.get("describe"):
        print(f"build: {summary['describe']}; "
              f"{summary.get('pages_rebuilt', 0)} page(s) rebuilt")
    dedup = summary.get("dedup") or {}
    if dedup.get("steps"):
        print(f"dedup: {dedup['hits']}/{dedup['steps']} step(s) served "
              f"from the store ({100 * dedup['ratio']:.0f}%), "
              f"impl {dedup['impl_hits']}/{dedup['impl_steps']} "
              f"({100 * dedup['impl_ratio']:.0f}%)")
    if summary.get("resumed"):
        print(f"resume: skipped {summary['resumed']} journaled step(s) "
              f"from the interrupted build")
    if summary.get("edit"):
        edit = summary["edit"]
        print(f"edit: {edit['operator']} -> {edit['dirty_steps']} dirty "
              f"step(s), pages {edit['pages_reloaded']}, "
              f"{edit['speedup']:.1f}x vs cold")
    if getattr(args, "manifest", None) and manifest:
        with open(args.manifest, "wb") as handle:
            handle.write(manifest)
        print(f"wrote build manifest {args.manifest}")
    return 0


def cmd_trace(args) -> int:
    """Render a saved Chrome trace-event file as a text tree."""
    from repro.trace import format_trace_tree, load_chrome_trace
    try:
        data = load_chrome_trace(args.file)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.file}")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_trace_tree(data))
    return 0


def cmd_floorplan(_args) -> int:
    from repro.fabric import FLOORPLAN, XCU50
    print(f"device: {XCU50.name}  {XCU50.luts:,} LUTs  "
          f"{XCU50.brams:,} BRAM18  {XCU50.dsps:,} DSPs  "
          f"{len(XCU50.slrs)} SLRs")
    for page in FLOORPLAN:
        print(f"  page {page.number:2d}  SLR{page.slr}  "
              f"{page.page_type.name}: {page.luts:6,} LUTs  "
              f"{page.brams:3d} B18  {page.dsps:3d} DSP")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="PLD reproduction driver (compile/run/report)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the Rosetta applications")

    compile_p = sub.add_parser("compile", help="compile one app")
    compile_p.add_argument("app")
    compile_p.add_argument("--flow", default="o1",
                           choices=sorted(FLOWS))
    compile_p.add_argument("--effort", type=float, default=0.3)
    compile_p.add_argument("--out", default=None,
                           help="write flow artefacts to this directory")
    compile_p.add_argument("--cache-dir", default=None,
                           help="persistent artifact store; a second "
                                "compile over the same directory "
                                "rebuilds nothing")
    compile_p.add_argument("--store", metavar="URLS", default=None,
                           help="comma-separated shard servers "
                                "(tcp://host:port,...) started with "
                                "'pld store serve'; --cache-dir "
                                "becomes the local fallback tier")
    compile_p.add_argument("--workers", "-j", type=int, default=None,
                           help="run independent build steps on this "
                                "many worker processes (modeled compile "
                                "times are unchanged)")
    compile_p.add_argument("--trace", metavar="FILE", default=None,
                           help="write a Chrome trace-event JSON of "
                                "the build (build steps, cluster node "
                                "lanes, flow phases)")
    compile_p.add_argument("--resume", action="store_true",
                           help="replay the store's build journal from "
                                "an interrupted compile; completed "
                                "steps are skipped (needs --cache-dir)")
    compile_p.add_argument("--deadline", type=float, default=None,
                           metavar="SECONDS",
                           help="wall-clock budget for the compile; on "
                                "expiry the build stops with a "
                                "structured error, finished artefacts "
                                "stay banked, and --resume continues")
    compile_p.add_argument("--manifest", metavar="FILE", default=None,
                           help="write the build manifest (step -> "
                                "content key) as JSON, for diffing")
    # Crash-injection hooks for the resume smoke tests: SIGKILL the
    # process at the Nth cache-miss step.  Deliberately undocumented.
    compile_p.add_argument("--crash-at-step", type=int, default=None,
                           help=argparse.SUPPRESS)
    compile_p.add_argument("--crash-point", default="mid",
                           choices=("begin", "mid", "end"),
                           help=argparse.SUPPRESS)

    edit_p = sub.add_parser(
        "edit", help="demo the incremental edit-compile-reload loop")
    edit_p.add_argument("app")
    edit_p.add_argument("--operator", default=None,
                        help="operator to edit (default: first HW op)")
    edit_p.add_argument("--effort", type=float, default=0.3)
    edit_p.add_argument("--cache-dir", default=None,
                        help="persistent artifact store shared with "
                             "'compile'")
    edit_p.add_argument("--store", metavar="URLS", default=None,
                        help="comma-separated shard servers "
                             "(tcp://host:port,...)")
    edit_p.add_argument("--timeline", action="store_true",
                        help="print the host reload timeline")
    edit_p.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the "
                             "cold compile + warm edit + reload")

    run_p = sub.add_parser("run", help="compile + load + execute one app")
    run_p.add_argument("app")
    run_p.add_argument("--flow", default="o0", choices=sorted(FLOWS))
    run_p.add_argument("--effort", type=float, default=0.3)
    run_p.add_argument("--timeline", action="store_true",
                       help="print the host configuration/run timeline")
    run_p.add_argument("--cache-dir", default=None,
                       help="persistent artifact store shared with "
                            "'compile'")
    run_p.add_argument("--store", metavar="URLS", default=None,
                       help="comma-separated shard servers "
                            "(tcp://host:port,...)")
    run_p.add_argument("--workers", "-j", type=int, default=None,
                       help="run independent build steps on this many "
                            "worker processes")
    run_p.add_argument("--trace", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON of the "
                            "compile + configure + run")

    tables_p = sub.add_parser("tables",
                              help="regenerate Tab. 2/3/4 for apps")
    tables_p.add_argument("--apps", default=None,
                          help="comma-separated subset")
    tables_p.add_argument("--effort", type=float, default=0.3)
    tables_p.add_argument("--cache-dir", default=None,
                          help="persistent artifact store shared with "
                               "'compile'")
    tables_p.add_argument("--workers", "-j", type=int, default=None,
                          help="run independent build steps on this "
                               "many worker processes")

    sub.add_parser("floorplan", help="print the page floorplan")

    serve_p = sub.add_parser(
        "serve", help="run the compile service as a TCP daemon "
                      "(multi-tenant; blocks until SIGTERM/shutdown)")
    serve_p.add_argument("state", nargs="?", default=".pld-state",
                         help="state directory: shared artifact store "
                              "plus per-session journals and leases "
                              "(default .pld-state)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="bind port (0 picks a free one and "
                              "prints it)")
    serve_p.add_argument("--workers", "-j", type=int, default=None,
                         help="share one pool of this many worker "
                              "processes across all tenants")
    serve_p.add_argument("--slots", type=int, default=4,
                         help="concurrent requests the scheduler may "
                              "run (default 4)")
    serve_p.add_argument("--quota", action="append", metavar="TENANT=N",
                         help="cap one tenant at N of the scheduler "
                              "slots (repeatable)")
    serve_p.add_argument("--default-quota", type=int, default=None,
                         help="slot cap for tenants without an "
                              "explicit --quota")
    serve_p.add_argument("--trace", metavar="FILE", default=None,
                         help="write a Chrome trace-event JSON of all "
                              "served requests (per-tenant lanes) on "
                              "shutdown")
    serve_p.add_argument("--store", metavar="URLS", default=None,
                         help="comma-separated shard URLs "
                              "(tcp://host:port,...): front this "
                              "store fleet — shared dedup plane and "
                              "cross-daemon session adoption")
    serve_p.add_argument("--token", action="append",
                         metavar="TENANT=SECRET",
                         help="require this shared secret on submits "
                              "for TENANT (repeatable; any --token "
                              "switches auth on for all tenants)")
    serve_p.add_argument("--max-queued", type=int, default=None,
                         metavar="N",
                         help="admission control: bound the queue at N "
                              "requests; past 50%% of N batch-class "
                              "submits shed, past 80%% interactive "
                              "too (kind=overloaded + retry_after)")
    serve_p.add_argument("--max-queued-per-tenant", type=int,
                         default=None, metavar="N",
                         help="per-tenant queued-request bound")
    serve_p.add_argument("--rate", action="append",
                         metavar="TENANT=N/s",
                         help="token-bucket rate limit for one tenant "
                              "(repeatable)")
    serve_p.add_argument("--default-rate", type=float, default=None,
                         metavar="N",
                         help="requests/second for tenants without an "
                              "explicit --rate")
    serve_p.add_argument("--brownout-high", type=float, default=None,
                         metavar="DEPTH",
                         help="queue-depth EWMA above which brownout "
                              "starts: new compiles route to -O0 "
                              "(default 0.75 x --max-queued)")
    serve_p.add_argument("--brownout-low", type=float, default=None,
                         metavar="DEPTH",
                         help="EWMA below which brownout ends "
                              "(default half of --brownout-high)")
    serve_p.add_argument("--peer", action="append",
                         metavar="HOST:PORT",
                         help="peer daemon suggested to clients when "
                              "this one is draining (repeatable)")
    serve_p.add_argument("--max-connections", type=int, default=None,
                         metavar="N",
                         help="concurrent-connection cap; excess "
                              "connections get one overloaded error "
                              "frame and are closed")
    serve_p.add_argument("--frame-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-frame read/write budget once a "
                              "frame starts (slow-loris guard; idle "
                              "keep-alives are unaffected)")

    submit_p = sub.add_parser(
        "submit", help="enqueue a compile on a pld serve daemon; "
                       "prints the ticket id")
    submit_p.add_argument("app")
    submit_p.add_argument("--server", default=DEFAULT_SERVER,
                          metavar="HOST:PORT")
    submit_p.add_argument("--flow", default="o1",
                          choices=sorted(FLOWS))
    submit_p.add_argument("--effort", type=float, default=0.3)
    submit_p.add_argument("--tenant", default="default")
    submit_p.add_argument("--token", default=None, metavar="SECRET",
                          help="tenant shared secret (daemons started "
                               "with --token require it)")
    submit_p.add_argument("--session", default=None,
                          help="named leased session: compiles reuse "
                               "one incremental session and journal, "
                               "and resume after a daemon crash")
    submit_p.add_argument("--priority", default="interactive",
                          choices=("interactive", "batch"))
    submit_p.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget; also schedules the "
                               "request in the deadline class")
    submit_p.add_argument("--cost", type=int, default=1,
                          help="scheduler slots this request occupies")
    submit_p.add_argument("--edit-operator", default=None,
                          metavar="OP",
                          help="submit an incremental edit of this "
                               "operator ('first-hw' picks one) "
                               "instead of a compile (needs --session)")
    submit_p.add_argument("--crash-at-step", type=int, default=None,
                          help=argparse.SUPPRESS)
    submit_p.add_argument("--wait", type=float, nargs="?",
                          const=60.0, default=None, metavar="SECONDS",
                          help="on an overloaded/draining rejection, "
                               "back off by the server's retry_after "
                               "hint (plus jitter) and retry for up "
                               "to this long (default 60)")

    drain_p = sub.add_parser(
        "drain", help="zero-downtime stop of a pld serve daemon: new "
                      "submits bounce to peers, running builds "
                      "finish, sessions republish, then it exits")
    drain_p.add_argument("--server", default=DEFAULT_SERVER,
                         metavar="HOST:PORT")

    health_p = sub.add_parser(
        "health", help="daemon liveness/readiness (ready=false while "
                       "draining)")
    health_p.add_argument("--server", default=DEFAULT_SERVER,
                          metavar="HOST:PORT")

    status_p = sub.add_parser(
        "status", help="queue state of a submitted ticket")
    status_p.add_argument("ticket")
    status_p.add_argument("--server", default=DEFAULT_SERVER,
                          metavar="HOST:PORT")

    result_p = sub.add_parser(
        "result", help="wait for a ticket and print its summary")
    result_p.add_argument("ticket")
    result_p.add_argument("--server", default=DEFAULT_SERVER,
                          metavar="HOST:PORT")
    result_p.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS")
    result_p.add_argument("--manifest", metavar="FILE", default=None,
                          help="write the build manifest (step -> "
                               "content key) as JSON, for diffing")

    fsck_p = sub.add_parser(
        "fsck", help="check and repair an artifact store (orphan tmp "
                     "files, corrupt objects, torn journal tail)")
    fsck_p.add_argument("cache_dir", nargs="?", default=None,
                        help="store directory (the --cache-dir of "
                             "compile/edit)")
    fsck_p.add_argument("--shard", metavar="URLS", default=None,
                        help="run the doctor on remote shard backends "
                             "instead (tcp://host:port,...)")
    fsck_p.add_argument("--fsck-grace", type=float, default=None,
                        metavar="SECONDS",
                        help="age threshold before an orphan .tmp "
                             "staging file is reaped (default 60; "
                             "fast CI passes 0)")

    store_p = sub.add_parser(
        "store", help="remote artifact-store administration")
    store_sub = store_p.add_subparsers(dest="store_command",
                                       required=True)
    serve_store_p = store_sub.add_parser(
        "serve", help="serve one store directory as a shard backend "
                      "(blocks; ^C stops)")
    serve_store_p.add_argument("cache_dir",
                               help="store directory this shard owns")
    serve_store_p.add_argument("--host", default="127.0.0.1")
    serve_store_p.add_argument("--port", type=int, default=0,
                               help="bind port (0 picks a free one and "
                                    "prints it)")

    trace_p = sub.add_parser(
        "trace", help="render a saved --trace file as a text tree")
    trace_p.add_argument("file", help="Chrome trace-event JSON written "
                                      "by a --trace run")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "apps": cmd_apps,
        "compile": cmd_compile,
        "edit": cmd_edit,
        "run": cmd_run,
        "tables": cmd_tables,
        "floorplan": cmd_floorplan,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "drain": cmd_drain,
        "health": cmd_health,
        "status": cmd_status,
        "result": cmd_result,
        "trace": cmd_trace,
        "fsck": cmd_fsck,
        "store": cmd_store,
    }[args.command]
    try:
        return handler(args)
    except DeadlineExceeded as exc:
        # A deadline expiry is not a build failure: finished artefacts
        # are banked in the store, so tell the developer how to go on.
        print(f"error: DeadlineExceeded: {exc}", file=sys.stderr)
        print(f"  completed {len(exc.completed)} step(s) before the "
              f"{exc.seconds:g}s budget ran out "
              f"({exc.elapsed:.2f}s elapsed)", file=sys.stderr)
        if exc.pending:
            preview = ", ".join(exc.pending[:4])
            more = " ..." if len(exc.pending) > 4 else ""
            print(f"  pending: {preview}{more}", file=sys.stderr)
        print("  rerun with --resume (same --cache-dir) to continue "
              "from the journal", file=sys.stderr)
        return 2
    except PLDError as exc:
        # Toolflow failures exit nonzero with a one-line diagnostic (and
        # the full structured report for deadlocks) instead of a
        # traceback — the pld driver is a build tool, not a library.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, DeadlockError):
            from repro.core.reports import format_deadlock_report
            print(format_deadlock_report(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
