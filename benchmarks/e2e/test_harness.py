"""Tests of the benchmark harness itself (not of the program it runs).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

import compare
import spans
import worker
import workloads
from checks import (Checks, cold_miss_problem, edit_rebuild_problem,
                    manifest_mismatch, output_mismatch,
                    seeded_manifest_mismatch, tab2_order_violation)
from stats import failed_frac, geomean, percentile, spread, tail, tail_level

SPEC = json.loads((pathlib.Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def _span(layer, start, end, pid=0, tid=0):
    span = spans.Span(f"{pid}:{layer}:{start}", layer, start, pid=pid,
                      tid=tid)
    span.end = end
    return span


# -- order statistics -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 1.0) == 10
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_tail_leaves_four_samples_beyond_it():
    assert tail_level(8) is None
    assert tail_level(20) == 80
    assert tail_level(60) == 93
    for n in (9, 20, 24, 60, 200):
        level = tail_level(n)
        ordered = list(range(n))
        value = percentile(ordered, level / 100)
        assert sum(1 for v in ordered if v > value) >= 4
        above = percentile(ordered, (level + 1) / 100)
        assert sum(1 for v in ordered if v > above) < 4
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert tail([float(v) for v in range(20)]) == (15.0, "p80")


def test_serve_runs_are_sized_for_a_p80_tail():
    seconds = SPEC["run_seconds"]
    edits = workloads.edit_plan(1, seconds, HW_OPS)
    assert tail_level(sum(len(ops) for ops in edits.values())) == 80
    assert tail_level(len(workloads.fleet_plan(1, seconds))) == 80


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles(values, n=4) -> [2.75, 5.5, 8.25]
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert spread([4.0]) == 0.0


# -- host-speed scaling -----------------------------------------------------------


def test_sampler_scales_by_readings_during_and_around_an_op():
    ref = workloads.REFERENCE_S
    sampler = workloads.SpeedSampler()
    # The loop ran at half the reference speed, then at a third of it.
    sampler.readings = [(0.0, 2 * ref), (1.0, 1.0 + 3 * ref),
                        (3.0, 3.0 + 3 * ref)]
    long_op = {"t0": 0.5, "t1": 2.5}
    short_op = {"t0": 0.1, "t1": 0.2}
    sampler.apply([long_op, short_op])
    # The reading inside the long op runs on its time; it is not the
    # op's own, and it sets the speed.
    assert long_op["scale"] * 2.0 == pytest.approx((2.0 - 3 * ref) / 3)
    # No reading during the short op: the neighbours set the speed.
    assert short_op["scale"] == pytest.approx(1 / 2.5)


def test_rounds_scale_each_request_by_the_readings_around_its_round():
    rounds = workloads.Rounds(1)
    rounds.readings = [0.02, 0.04, 0.02]
    ops = [{"round": 0}, {"round": 1}]
    rounds.apply(ops)
    assert [op["scale"] for op in ops] == pytest.approx(
        [workloads.REFERENCE_S / 0.03] * 2)


# -- self time ----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    members = [_span("a", 0.0, 10.0), _span("b", 2.0, 5.0),
               _span("c", 6.0, 8.0), _span("d", 3.0, 4.0)]
    seconds, error = spans.attribute(members, 0.0, 12.0)
    assert seconds["a"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert seconds["b"] == pytest.approx(3.0 - 1.0)
    assert seconds["c"] == pytest.approx(2.0)
    assert seconds["d"] == pytest.approx(1.0)
    assert seconds["other"] == pytest.approx(2.0)
    assert sum(seconds.values()) == pytest.approx(12.0)
    assert error == 0.0


def test_self_time_of_overlapping_siblings():
    # Two children of one parent overlap in [4, 6]: each instant goes
    # to the one that started last, and the overlap is the error.
    members = [_span("a", 0.0, 10.0), _span("b", 2.0, 6.0),
               _span("c", 4.0, 8.0)]
    seconds, error = spans.attribute(members, 0.0, 10.0)
    assert seconds == pytest.approx({"a": 4.0, "b": 2.0, "c": 4.0})
    assert error == pytest.approx(2.0 / 10.0)


def test_spans_clip_to_the_window_and_deeper_processes_nest():
    # The daemon (pid 1, tier 1) starts the request before the client's
    # round-trip span does; it still counts as inside that span.
    members = [_span("client.rtt", 1.0, 10.0, pid=0),
               _span("core.build", 0.5, 9.0, pid=1),
               _span("pnr.route", 11.0, 12.0, pid=1)]
    seconds, _ = spans.attribute(members, 0.0, 10.0, tiers={1: 1})
    assert seconds == pytest.approx({"other": 0.5, "core.build": 8.5,
                                     "client.rtt": 1.0})


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    run = workloads.Run("serve_edit", 1, 1.0)
    # The host ran at half the reference speed: layer seconds scale
    # like the latency.
    run.ops = [{"item": "x", "t0": 0.0, "t1": 10.0, "scale": 0.5, "tid": 7,
                "ok": True}]
    local = [_span("client.rtt", 0.0, 9.0, tid=7),
             _span("pnr.place", 1.0, 3.0, tid=7)]
    local[1].extra.update(moves=10, accepted=4)
    result = worker.layers(run, local, {})
    metrics = result["metrics"]
    assert metrics["client.rtt.self_s"] == pytest.approx(3.5)
    assert metrics["pnr.place.self_s"] == pytest.approx(1.0)
    assert metrics["other.self_s"] == pytest.approx(0.5)
    assert sum(row["share"] for row in result["table"].values()) == \
        pytest.approx(1.0)
    assert metrics["pnr.place.accept_ratio"] == pytest.approx(0.4)
    declared = {m["name"] for m in SPEC["per_layer"]}
    # trace_overhead_frac compares two runs, so run.py adds it.
    assert declared == set(metrics) | {"trace_overhead_frac"}


def test_trace_file_has_one_complete_event_per_span_and_op(tmp_path):
    from repro.trace.export import (format_trace_tree, load_chrome_trace,
                                    write_chrome_trace)

    path = tmp_path / "run.trace.json"
    write_chrome_trace(path, spans.trace_events(
        [_span("hls", 1.0, 2.0, pid=5, tid=1)],
        [{"item": "op", "t0": 0.5, "t1": 3.0, "pid": 5, "tid": 1}],
        {5: "benchmark"}))
    trace = load_chrome_trace(path)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["hls", "op"]
    assert complete[0]["ts"] == pytest.approx(0.5e6)
    assert complete[0]["dur"] == pytest.approx(1.0e6)
    assert "benchmark / thread 1" in format_trace_tree(trace)


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_spec_names_and_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.RUNNERS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    every = names + [m["name"] for m in metrics]
    for name in every:
        assert re.match(r"^[A-Za-z0-9_.-]+$", name), name
    assert len(set(every)) == len(every)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} \
        in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_run_length_is_fixed_by_the_spec():
    import run

    with pytest.raises(SystemExit) as exit_info:
        run.main(["--seconds", str(SPEC["run_seconds"] + 1)])
    assert exit_info.value.code == 2


# -- inputs -----------------------------------------------------------------------------


HW_OPS = {"digit-recognition": ["knn1", "knn2", "knn3", "vote"],
          "spam-filter": ["dot", "sigmoid", "update"]}


def test_same_seed_same_inputs():
    assert workloads.edit_plan(5, 20, HW_OPS) == \
        workloads.edit_plan(5, 20, HW_OPS)
    assert workloads.edit_plan(5, 20, HW_OPS) != \
        workloads.edit_plan(6, 20, HW_OPS)
    assert workloads.fleet_plan(5, 20) == workloads.fleet_plan(5, 20)
    assert workloads.fleet_plan(5, 20) != workloads.fleet_plan(6, 20)
    assert workloads.cold_build_plan(5, 20) == \
        workloads.cold_build_plan(5, 20)
    assert workloads.o0_run_plan(5, 20) == workloads.o0_run_plan(5, 20)


def test_plans_cover_every_item_and_keep_the_mix():
    # Each item once, then whole passes over the cheap items only.
    seconds = SPEC["run_seconds"]
    cold = workloads.cold_build_plan(3, seconds)
    every = sorted((a, f) for a in workloads.COLD_APPS for f in ("o1", "o3"))
    assert sorted(cold[:len(every)]) == every
    assert len(cold) > len(every)
    assert all(f == "o1" for _, f in cold[len(every):])
    o0 = workloads.o0_run_plan(3, seconds)
    apps = len(workloads.O0_APPS)
    assert len(o0) > apps and len(o0) % apps == 0
    for start in range(0, len(o0), apps):
        assert sorted(o0[start:start + apps]) == sorted(workloads.O0_APPS)
    requests = workloads.fleet_plan(3, 20)
    kinds = [r["kind"] for r in requests]
    total = len(requests)
    for kind, share in workloads.FLEET_MIX:
        assert abs(kinds.count(kind) - share * total) <= 1
    efforts = [r["effort"] for r in requests if r["kind"] == "cold"]
    assert len(set(efforts)) == len(efforts)
    edits = workloads.edit_plan(3, 20, HW_OPS)
    for app, ops in edits.items():
        assert set(ops) <= set(HW_OPS[app])


# -- wrappers ---------------------------------------------------------------------------


def _originals():
    out = {}
    for _layer, module, path in spans.TARGETS:
        owner, name = spans._resolve(module, path)
        out[(module, path)] = (owner, name, owner.__dict__[name])
    from repro.service.scheduler import RequestScheduler
    for name in ("submit", "acquire"):
        out[("scheduler", name)] = (RequestScheduler, name,
                                    RequestScheduler.__dict__[name])
    return out


def test_wrappers_are_installed_and_restored():
    from repro.core import build

    before = _originals()
    recorder = spans.Recorder()
    with spans.traced(recorder) as patches:
        assert patches.missing == []
        for owner, name, original in before.values():
            assert owner.__dict__[name] is not original, name
        build.content_key("a", 1)
    assert [s.layer for s in recorder.spans] == ["core.build.key"]
    for owner, name, original in before.values():
        assert owner.__dict__[name] is original, name

    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("boom")
    for owner, name, original in before.values():
        assert owner.__dict__[name] is original, name


# -- compare.py -------------------------------------------------------------------------


def _runs(workload, values, failed=0):
    """One run per value, every end-to-end metric reading that value;
    the first run has ``failed`` failures."""
    return [{"workload": workload, "seed": seed, "traced": False,
             "attempted": 10, "failed": failed if seed == 0 else 0,
             "metrics": {m["name"]: value for m in SPEC["end_to_end"]}}
            for seed, value in enumerate(values)]


SPEC_ONE = {"end_to_end": [{"name": "latency_p50_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
PARENT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]


def _verdict(parent, change):
    rows, regressed = compare.compare(_runs("w", parent),
                                      _runs("w", change), SPEC_ONE)
    return rows[0][-1], regressed


def test_compare_improved():
    assert _verdict(PARENT, [v * 0.9 for v in PARENT]) == ("gain", False)


def test_compare_worse():
    assert _verdict(PARENT, [v * 1.3 for v in PARENT]) == \
        ("regression", True)
    # Worse, but within the bound.
    assert _verdict(PARENT, [v * 1.05 for v in PARENT]) == \
        ("no regression", False)


def test_compare_unresolved():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert _verdict(noisy, list(reversed(noisy))) == ("unresolved", False)


def test_compare_failed_rise_is_a_regression(tmp_path):
    rows, regressed = compare.compare(_runs("w", PARENT),
                                      _runs("w", PARENT, failed=1),
                                      SPEC_ONE)
    assert regressed
    assert [r[-1] for r in rows if r[1] == "failed_frac"] == ["regression"]

    parent, change = tmp_path / "p.json", tmp_path / "c.json"
    parent.write_text(json.dumps({"results": _runs("w", PARENT)}))
    change.write_text(json.dumps({"results": _runs("w", PARENT, failed=1)}))
    assert compare.main(["--parent", str(parent),
                         "--change", str(change)]) == 1
    assert compare.main(["--parent", str(parent),
                         "--change", str(parent)]) == 0


# -- output checks ----------------------------------------------------------------------


def test_checks_fail_on_corrupted_outputs():
    assert output_mismatch({"out": [1, 2, 3]}, {"out": [1, 2, 3]}) is None
    assert "token 1" in output_mismatch({"out": [1, 9, 3]},
                                        {"out": [1, 2, 3]})
    assert "missing" in output_mismatch({}, {"out": [1]})
    assert tab2_order_violation(1.0, 10.0, 100.0) is None
    assert tab2_order_violation(1.0, 100.0, 10.0) is not None
    assert edit_rebuild_problem({"pages_rebuilt": 1}) is None
    assert edit_rebuild_problem({"pages_rebuilt": 2}) is not None
    assert cold_miss_problem({"dedup": {"impl_steps": 4,
                                        "impl_hits": 0}}) is None
    assert cold_miss_problem({"dedup": {"impl_steps": 4,
                                        "impl_hits": 1}}) is not None
    manifest = {"pages": {"p1": ["a", 1]}, "flow": "o1"}
    served = json.dumps(manifest, indent=2, sort_keys=True).encode()
    assert manifest_mismatch(served, manifest) is None
    assert "'pages'" in manifest_mismatch(served.replace(b'"a"', b'"b"'),
                                          manifest)
    assert manifest_mismatch(b"{", manifest) is not None
    assert seeded_manifest_mismatch(served, served) is None
    assert seeded_manifest_mismatch(served + b" ", served) is not None

    checks = Checks()
    checks.expect(True, "fine")
    checks.expect(False, "corrupted")
    assert (checks.attempted, checks.failed) == (2, 1)


def test_corrupted_output_raises_failed_frac(monkeypatch):
    from repro.core.flows import FlowBuild

    monkeypatch.setattr(workloads, "O0_APPS", ("3d-rendering",))
    clean = worker.execute("o0_run", 1, 1.0, False)
    assert clean["failures"] == []
    assert failed_frac([clean]) == 0.0

    real = FlowBuild.execute

    def corrupted(self, inputs):
        outputs = real(self, inputs)
        name = sorted(outputs)[0]
        outputs[name] = [outputs[name][0] + 1] + list(outputs[name][1:])
        return outputs

    monkeypatch.setattr(FlowBuild, "execute", corrupted)
    bad = worker.execute("o0_run", 1, 1.0, False)
    assert bad["failed"] == 1
    assert failed_frac([bad]) > 0.0
