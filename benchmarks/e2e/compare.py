"""Compare two result sets of ``run.py --out``, pair by pair.

    python benchmarks/e2e/compare.py --parent A.json [A2.json ...] \
        --change B.json [B2.json ...]

One row per (workload, end-to-end metric) with each side's median and
quartiles.  Runs pair up by seed.  Verdicts:

* ``gain`` — the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile distance;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, unless every change run reads better (``better``) or,
  beyond the bound, worse (``regression``) than every parent run;
* ``no regression`` — otherwise.

Any rise in a workload's failed share (failed / attempted) is a
regression, and so is a rise in a modeled value (Tab. 2 seconds, Tab. 3
seconds per input) between runs of the same seed.  The exit code is 1
when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Tuple

from stats import failed_frac, quartiles, spread

SPEC = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_results(paths: List[str]) -> List[Dict[str, Any]]:
    results: List[Dict[str, Any]] = []
    for path in paths:
        results.extend(json.loads(pathlib.Path(path).read_text())["results"])
    return results


def _pairs(parent: List[Tuple[int, float]], change: List[Tuple[int, float]]
           ) -> List[Tuple[float, float]]:
    """Values of runs with the same seed, matched in order."""
    pending: Dict[int, List[float]] = {}
    for seed, value in parent:
        pending.setdefault(seed, []).append(value)
    out = []
    for seed, value in change:
        if pending.get(seed):
            out.append((pending[seed].pop(0), value))
    return out


def verdict(parent: List[float], change: List[float],
            pairs: List[Tuple[float, float]], bound: float,
            lower_is_better: bool) -> Tuple[str, float, int]:
    """``(verdict, worsening share, pairs the change won)``."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pm, cm = statistics.median(parent), statistics.median(change)
    worse = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    wins = sum(1 for p, c in pairs if better(c, p))
    q1, _, q3 = quartiles(parent)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > q3 - q1 \
            and better(cm, pm):
        return "gain", worse, wins
    if max(spread(parent), spread(change)) > bound:
        if all(better(c, p) for c in change for p in parent):
            return "better", worse, wins
        if worse > bound and all(better(p, c)
                                 for c in change for p in parent):
            return "regression", worse, wins
        return "unresolved", worse, wins
    if worse > bound:
        return "regression", worse, wins
    return "no regression", worse, wins


def compare(parent: List[Dict[str, Any]], change: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> Tuple[List[List[str]], bool]:
    """The report rows, and whether any row is a regression."""
    rows: List[List[str]] = []
    regressed = False
    workloads = dict.fromkeys(r["workload"] for r in parent + change)
    for workload in workloads:
        side = {
            name: [r for r in results if r["workload"] == workload
                   and not r.get("traced")]
            for name, results in (("parent", parent), ("change", change))}
        measured = {name: [r for r in runs if r["metrics"]]
                    for name, runs in side.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [(r["seed"], r["metrics"][name])
                          for r in measured[s]] for s in side}
            if not values["parent"] or not values["change"]:
                continue
            p = [v for _, v in values["parent"]]
            c = [v for _, v in values["change"]]
            result, worse, wins = verdict(
                p, c, _pairs(values["parent"], values["change"]),
                metric["bound"], metric["better"] == "lower")
            regressed |= result == "regression"
            pq, cq = quartiles(p), quartiles(c)
            rows.append([workload, name,
                         f"{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] n={len(p)}",
                         f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] n={len(c)}",
                         f"{100 * worse:+.1f}% worse",
                         f"{wins}/{len(_pairs(values['parent'], values['change']))}",
                         result])
        shares = {s: failed_frac(runs) for s, runs in side.items()}
        result = "regression" if shares["change"] > shares["parent"] \
            else "no regression"
        regressed |= result == "regression"
        rows.append([workload, "failed_frac", f"{shares['parent']:.4g}",
                     f"{shares['change']:.4g}", "", "", result])
        keys = sorted({k for runs in measured.values() for r in runs
                       for k in r.get("info", {})})
        for key in keys:
            pairs = _pairs(
                [(r["seed"], r["info"][key]) for r in measured["parent"]
                 if key in r.get("info", {})],
                [(r["seed"], r["info"][key]) for r in measured["change"]
                 if key in r.get("info", {})])
            if not pairs:
                continue
            risen = any(c > p for p, c in pairs)
            changed = any(c != p for p, c in pairs)
            result = "regression" if risen else \
                "changed" if changed else "identical"
            regressed |= risen
            rows.append([workload, key, f"{pairs[0][0]:.6g}",
                         f"{pairs[0][1]:.6g}", "", f"{len(pairs)} pairs",
                         result])
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows, regressed = compare(load_results(args.parent),
                              load_results(args.change), spec)
    header = ["workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "wins", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
