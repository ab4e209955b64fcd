"""One benchmark run, in the fresh process ``run.py`` starts for it.

    python benchmarks/e2e/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result FILE [--trace-file FILE] [--work-dir DIR]

Writes the run's metrics, check failures and (traced) layer table to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import pathlib
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional

import spans as spanlib
from fleet import HERE, Fleet
from stats import geomean, tail
from workloads import RUNNERS, SERVE_WORKLOADS, Run

#: Where runs keep servers' state and logs unless told otherwise; each
#: run removes its own directory in it.
WORK_DIR = HERE / ".work"


def latency(op: Dict[str, Any]) -> float:
    """An operation's wall seconds, scaled to the reference host speed
    (:class:`workloads.HostSpeed`)."""
    return (op["t1"] - op["t0"]) * op["scale"]


def item_latencies(run: Run) -> List[float]:
    """Latency of each item: the median over an item's samples for the
    compile workloads, where an item is an ``(app, flow)``; each request
    is its own item for the serve workloads."""
    ok = [op for op in run.ops if op["ok"]]
    if run.workload in SERVE_WORKLOADS:
        return [latency(op) for op in ok]
    by_item: Dict[str, List[float]] = {}
    for op in ok:
        by_item.setdefault(op["item"], []).append(latency(op))
    return [statistics.median(v) for _, v in sorted(by_item.items())]


def speed_scale(run: Run) -> float:
    """The median scale applied to the run's operations: below 1 when
    the host ran slower than the reference."""
    return statistics.median(op["scale"] for op in run.ops)


def throughput(run: Run, latencies: List[float]) -> float:
    """Completed requests per second of the serve workloads' rounds,
    each round from its first send to its last result and scaled like
    its requests.  For the compile workloads, items per second of one
    pass over every item: the seed picks which items a run repeats, so
    operations per wall second would change with the seed."""
    if run.workload not in SERVE_WORKLOADS:
        return len(latencies) / sum(latencies)
    rounds: Dict[int, List[Dict[str, Any]]] = {}
    for op in run.ops:
        rounds.setdefault(op["round"], []).append(op)
    busy = sum((max(op["t1"] for op in ops) - min(op["t0"] for op in ops))
               * ops[0]["scale"] for ops in rounds.values())
    return sum(1 for op in run.ops if op["ok"]) / busy


def end_to_end(run: Run) -> Dict[str, Any]:
    """Every end-to-end metric of one run, plus the tail's percentile."""
    latencies = item_latencies(run)
    if not latencies:
        raise RuntimeError(f"{run.workload}: no operation succeeded")
    tail_value, tail_label = tail(latencies)
    return {
        "setup_s": run.setup_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "latency_geomean_s": geomean(latencies),
        "throughput_per_s": throughput(run, latencies),
        "peak_rss_mb": run.peak_rss_mb,
        "tail_label": tail_label,
        "items": len(latencies),
    }


# -- per-layer attribution -------------------------------------------------------


class _Index:
    """Spans sorted by start, for window queries."""

    def __init__(self, spans: List[spanlib.Span]):
        self.spans = sorted(spans, key=lambda s: s.start)
        self.starts = [s.start for s in self.spans]

    def within(self, t0: float, t1: float) -> List[spanlib.Span]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return [s for s in self.spans[lo:hi] if s.end <= t1]


def _window_spans(op: Dict[str, Any], local: Dict[int, _Index],
                  by_rid: Dict[str, List[spanlib.Span]],
                  shards: Optional[_Index]) -> List[spanlib.Span]:
    """The spans belonging to one operation: the benchmark thread's own
    inside its window and, for a request, the daemon's spans carrying
    its ticket plus the shard spans nested in those."""
    t0, t1 = op["t0"], op["t1"]
    own = local.get(op["tid"])
    members = own.within(t0, t1) if own is not None else []
    ticket = op.get("ticket")
    if ticket is None:
        return members
    server = by_rid.get(ticket, [])
    members = members + server
    if shards is not None:
        for span in server:
            if span.layer == "store.remote":
                members.extend(shards.within(span.start, span.end))
    return members


def layers(run: Run, local_spans: List[spanlib.Span],
           server_spans: Dict[str, List[spanlib.Span]]) -> Dict[str, Any]:
    """The layer table and the per-layer metrics of a traced run.  Each
    operation's split is scaled like its latency, so a request's layer
    seconds sum to its end-to-end latency."""
    local: Dict[int, List[spanlib.Span]] = {}
    for span in local_spans:
        local.setdefault(span.tid, []).append(span)
    local_index = {tid: _Index(v) for tid, v in local.items()}
    by_rid: Dict[str, List[spanlib.Span]] = {}
    for span in server_spans.get("daemon", []):
        if span.rid is not None:
            by_rid.setdefault(span.rid, []).append(span)
    shard_spans = server_spans.get("shard", [])
    shards = _Index(shard_spans) if shard_spans else None
    tiers = {span.pid: tier for tier, role in ((1, "daemon"), (2, "shard"))
             for span in server_spans.get(role, [])}

    seconds: Dict[str, float] = {layer: 0.0 for layer in spanlib.LAYERS}
    per_op: Dict[str, List[float]] = {layer: [] for layer in spanlib.LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in spanlib.LAYERS}
    extra: Dict[str, float] = {}
    total = 0.0
    worst = 0.0
    for op in run.ops:
        if not op["ok"]:
            continue
        members = _window_spans(op, local_index, by_rid, shards)
        split, error = spanlib.attribute(members, op["t0"], op["t1"], tiers)
        worst = max(worst, error)
        total += latency(op)
        for layer in spanlib.LAYERS:
            part = split.get(layer, 0.0) * op["scale"]
            seconds[layer] += part
            per_op[layer].append(part)
        for span in members:
            calls[span.layer] = calls.get(span.layer, 0) + 1
            for key, value in span.extra.items():
                if key != "seq":
                    extra[f"{span.layer}.{key}"] = \
                        extra.get(f"{span.layer}.{key}", 0) + value

    table = {layer: {"calls": calls[layer], "self_s": seconds[layer],
                     "share": seconds[layer] / total if total else 0.0,
                     "p50_s": statistics.median(per_op[layer])
                     if per_op[layer] else 0.0}
             for layer in spanlib.LAYERS}
    metrics: Dict[str, float] = {}
    for layer in spanlib.LAYERS:
        if layer != "other":
            metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = seconds[layer]
    moves = extra.get("pnr.place.moves", 0)
    metrics["pnr.place.moves"] = moves
    metrics["pnr.place.accept_ratio"] = \
        extra.get("pnr.place.accepted", 0) / moves if moves else 0.0
    metrics["pnr.route.expansions"] = extra.get("pnr.route.expansions", 0)
    metrics["pnr.route.iterations"] = extra.get("pnr.route.iterations", 0)
    steps = calls["core.build"]
    metrics["core.build.hit_ratio"] = \
        1.0 - extra.get("core.build.miss", 0) / steps if steps else 0.0
    metrics["softcore.iss.cycles"] = run.counts.get("softcore.iss.cycles", 0)
    metrics["attribution.error_max"] = worst
    return {"table": table, "metrics": metrics}


# -- the run ---------------------------------------------------------------------


def _server_spans(fleet: Optional[Fleet]) -> Dict[str, List[spanlib.Span]]:
    """Spans the traced servers wrote, by role (``daemon``/``shard``)."""
    out: Dict[str, List[spanlib.Span]] = {}
    if fleet is None:
        return out
    for server in fleet.servers:
        if server.spans is None or not server.spans.exists():
            continue
        role = "daemon" if server.log.name.startswith("daemon") else "shard"
        data = json.loads(server.spans.read_text())
        out.setdefault(role, []).extend(spanlib.load_spans(data))
    return out


def execute(workload: str, seed: int, seconds: float, traced: bool,
            trace_file: Optional[str] = None,
            work_dir: pathlib.Path = WORK_DIR) -> Dict[str, Any]:
    run = Run(workload, seed, seconds)
    recorder = spanlib.Recorder() if traced else None
    tracing = (lambda: spanlib.traced(recorder)) if traced \
        else contextlib.nullcontext
    workdir = pathlib.Path(work_dir) / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    fleet = Fleet(workdir, traced) if workload in SERVE_WORKLOADS else None
    try:
        RUNNERS[workload](run, tracing, fleet)
        server = _server_spans(fleet) if traced else {}
    finally:
        if fleet is not None:
            fleet.close()
        shutil.rmtree(workdir, ignore_errors=True)

    op_failures = [f"{op['item']}: {op['error']}" for op in run.ops
                   if not op["ok"]]
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": traced,
        "attempted": len(run.ops) + run.checks.attempted,
        "failed": len(op_failures) + run.checks.failed,
        "failures": op_failures + run.checks.failures,
        "metrics": end_to_end(run),
        "setup_samples": run.setup_samples,
        "warmup_s": run.warmup_s,
        "speed_scale": speed_scale(run),
        "phase_s": run.phase[1] - run.phase[0],
        "ops": run.ops,
        "info": run.info,
    }
    if traced:
        local = recorder.spans
        result["layers"] = layers(run, local, server)
        if trace_file:
            from repro.trace.export import write_chrome_trace

            names = {os.getpid(): f"benchmark ({workload})"}
            for role, items in server.items():
                for span in items:
                    names.setdefault(span.pid, f"{role} {span.pid}")
            windows = [dict(op, pid=os.getpid()) for op in run.ops]
            every = local + [s for items in server.values() for s in items]
            pathlib.Path(trace_file).parent.mkdir(parents=True,
                                                  exist_ok=True)
            write_chrome_trace(trace_file,
                               spanlib.trace_events(every, windows, names))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--work-dir", default=str(WORK_DIR))
    args = parser.parse_args(argv)
    result = execute(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.trace_file, args.work_dir)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
