"""The repo benchmark: four workloads from cold builds to the serve fleet.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--runs K] [--trace 0|1] [--trace-dir DIR] [--out FILE]

A run measures for ``run_seconds`` of BENCHMARK.json: the plan sizes
and the tail percentile depend on it, so every run uses the same value.
``--seconds`` may only repeat it.

Each (workload, run) runs in a fresh child process (``worker.py``);
with ``--runs K`` the runs go round-robin across the workloads, run
``r`` with seed ``N + r``.  ``--trace 1`` adds a separate traced run
next to each untraced one: it attributes time to the repo's layers
(the per-layer metrics) and measures the tracing overhead.  Timings
are wall seconds scaled to a reference host speed (``speed_scale``
prints the median scale; see ``workloads.py``).  Every metric prints as
``workload metric value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any output check fails.

See README.md for the workloads, the metrics and how to compare runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from fleet import child_env
from stats import failed_frac
from workloads import SERVE_WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: Seconds one child may run before it and its servers are killed; a
#: traced invocation runs two children and must end within 180 s.
CHILD_TIMEOUT = 80.0

#: The metric each workload's tracing overhead is measured on.
PRIMARY = {"cold_build": "latency_geomean_s",
           "o0_run": "latency_geomean_s",
           "serve_edit": "latency_p50_s",
           "serve_fleet": "latency_p50_s"}


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              workdir: pathlib.Path,
              trace_dir: Optional[pathlib.Path]) -> Dict[str, Any]:
    """One run in a fresh process (its own session, so a hung run and
    every server it started can be killed together).  Its scratch goes
    under ``workdir``, which the caller removes even after a kill."""
    tag = f"{workload}-seed{seed}-{'traced' if traced else 'plain'}"
    result = workdir / f"{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0", "--result", str(result),
            "--work-dir", str(workdir)]
    if traced and trace_dir is not None:
        argv += ["--trace-file", str(trace_dir / f"{tag}.trace.json")]
    proc = subprocess.Popen(argv, env=child_env(), cwd=str(ROOT),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not result.exists():
        return {"workload": workload, "seed": seed, "traced": traced,
                "attempted": 1, "failed": 1, "metrics": {},
                "failures": [f"run exited with {code}"]}
    return json.loads(result.read_text())


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(results: List[Dict[str, Any]], spec: Dict[str, Any],
              traced: bool) -> Dict[str, Dict[str, float]]:
    """Per workload, the median over runs of every declared metric:
    the end-to-end metrics, or with ``traced`` the per-layer ones."""
    out: Dict[str, Dict[str, float]] = {}
    workloads = dict.fromkeys(r["workload"] for r in results)
    for workload in workloads:
        plain = [r for r in results
                 if r["workload"] == workload and not r["traced"]
                 and r["metrics"]]
        values: Dict[str, float] = {}
        if not traced:
            for metric in spec["end_to_end"]:
                values[metric["name"]] = _median(
                    [r["metrics"][metric["name"]] for r in plain])
        else:
            tr = [r for r in results if r["workload"] == workload
                  and r["traced"] and r.get("layers")]
            primary = PRIMARY[workload]
            for metric in spec["per_layer"]:
                name = metric["name"]
                if name == "trace_overhead_frac":
                    base = _median([r["metrics"][primary] for r in plain])
                    with_trace = _median([r["metrics"][primary] for r in tr])
                    values[name] = with_trace / base - 1.0 if base else 0.0
                else:
                    values[name] = _median(
                        [r["layers"]["metrics"].get(name, 0.0) for r in tr])
        out[workload] = values
    return out


def print_layer_table(result: Dict[str, Any]) -> None:
    table = result["layers"]["table"]
    serve = result["workload"] in SERVE_WORKLOADS
    print(f"# layers of {result['workload']} (seed {result['seed']}): "
          f"calls, self seconds, share of the e2e time"
          + (", per-request p50 ms" if serve else ""))
    for layer, row in table.items():
        if not row["calls"] and not row["self_s"]:
            continue
        line = (f"#   {layer:22s} {row['calls']:8d} {row['self_s']:9.3f}s "
                f"{100 * row['share']:6.1f}%")
        if serve:
            line += f" {1e3 * row['p50_s']:9.2f}"
        print(line)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None,
                        help="write each traced run's spans here as "
                             "Chrome trace-event JSON")
    parser.add_argument("--out", default=None,
                        help="write every run's full result as JSON")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds:g}: runs measure for "
                     f"run_seconds = {spec['run_seconds']} of BENCHMARK.json")
    # Unwind on SIGTERM too, so the running child and its servers stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = args.workload or names
    trace_dir = pathlib.Path(args.trace_dir).resolve() \
        if args.trace_dir else None
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results: List[Dict[str, Any]] = []
    try:
        for r in range(args.runs):
            for workload in workloads:
                order = [False]
                if args.trace:
                    order = [False, True] if r % 2 == 0 else [True, False]
                for traced in order:
                    results.append(run_child(workload, args.seed + r,
                                             spec["run_seconds"], traced,
                                             workdir, trace_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for result in results:
        for failure in result.get("failures", []):
            print(f"FAILED {result['workload']} seed {result['seed']}: "
                  f"{failure}")
        if result.get("layers"):
            print_layer_table(result)
    summary = summarize(results, spec, bool(args.trace))
    printed = [summarize(results, spec, False)]
    if args.trace:
        printed.append(summary)
    for workload in summary:
        for values in printed:
            for name, value in values[workload].items():
                print(f"{workload} {name} {value!r} {units[name]}")
        runs = [r for r in results if r["workload"] == workload]
        print(f"{workload} failed_frac {failed_frac(runs)!r} ratio")
        measured = [r for r in runs if r["metrics"]]
        if measured:
            print(f"{workload} tail_percentile "
                  f"{measured[0]['metrics']['tail_label']} label")
            speed = _median([r["speed_scale"] for r in measured])
            print(f"{workload} speed_scale {speed!r} ratio")
        for key in sorted({k for r in measured for k in r.get("info", {})}):
            print(f"{workload} {key} "
                  f"{_median([r['info'][key] for r in measured]):.6g} s")

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"seconds": spec["run_seconds"], "results": results}, indent=1))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics: Dict[str, Any] = {}
    for workload, values in summary.items():
        entry = {name: {"value": value, "unit": units[name]}
                 for name, value in values.items()}
        if len(summary) == 1:
            metrics = entry
        else:
            metrics[workload] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
