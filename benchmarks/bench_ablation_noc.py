"""Ablation — linking-network architecture (Sec. 4.3 / Sec. 9).

The paper notes the modest single-up-link BFT trades performance for
mapping speed, and that wider networks would shift the -O1 points.
Three experiments:

* **width sweep** (analytic): re-evaluate every app's -O1 bottleneck
  with fatter trees (more up-links per switch); apps bottlenecked on
  shared tree links speed up, leaf-bound apps do not — showing the leaf
  interface is the next bottleneck, as Sec. 7.4 observes.
* **deflection cost** (measured): cycle-accurate netsim latency of the
  deflection-routed BFT under contention versus the contention-free
  hop count.
* **drain** (wall-clock): the simulator drains an all-to-all load at
  64 and 128 leaves, with the drain's outcome pinned.  These were the
  sizes on either side of the crossover with the deleted numpy router
  (EXPERIMENTS.md); the timings are the one router's cost there.
"""

import random

import pytest

from repro.hls import schedule_operator
from repro.noc import BFTopology, LeafInterface, NetworkSimulator
from repro.noc.linking import build_link_configuration
from repro.noc.perfmodel import NoCPerformanceModel
from conftest import APP_ORDER, write_result

WIDTHS = [1, 2, 4]


def o1_cycles(app, builds, up_links):
    build = builds["PLD -O1"]
    schedules = {name: schedule_operator(op.hls_spec)
                 for name, op in app.project.graph.operators.items()}
    config = build_link_configuration(app.project.graph, build.page_of)
    model = NoCPerformanceModel(app.project.graph, schedules, config)
    ranked = model.bottlenecks()
    # Re-price tree links for the wider network.
    best = 0.0
    for b in ranked:
        cycles = b.cycles / up_links if b.kind == "tree" else b.cycles
        best = max(best, cycles)
    return best


def measure_deflection(n_leaves=16, streams=6, tokens=40):
    topo = BFTopology(n_leaves)
    leaves = {i: LeafInterface(i, n_ports=2) for i in range(n_leaves)}
    sim = NetworkSimulator(topo, leaves)
    hop_budget = 0.0
    count = 0
    for s in range(streams):
        src, dst = s, n_leaves - 1 - s
        leaves[src].bind(0, dest_leaf=dst, dest_port=0)
        for t in range(tokens):
            leaves[src].send(0, (s << 8) | t)
        hop_budget += topo.route_hops(src, dst) * tokens
        count += tokens
    sim.run(max_cycles=1_000_000)
    measured = sim.mean_latency()
    ideal = hop_budget / count
    return measured, ideal, sim.total_deflections


def test_noc_width_sweep(benchmark, builds, apps):
    def run():
        rows = {}
        for name in APP_ORDER:
            if name not in builds:
                continue
            rows[name] = [o1_cycles(apps[name], builds[name], w)
                          for w in WIDTHS]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'app':18s}" + "".join(f"  up={w:<10d}" for w in WIDTHS)]
    for name, cycles in rows.items():
        lines.append(f"{name:18s}" + "".join(f"  {c:10.0f}"
                                             for c in cycles))
    write_result("ablation_noc_width.txt", "\n".join(lines))

    for name, cycles in rows.items():
        # Wider networks never hurt, and converge (leaf/compute bound).
        assert cycles[0] >= cycles[1] >= cycles[2], name


def test_noc_deflection_cost(benchmark):
    measured, ideal, deflections = benchmark.pedantic(
        measure_deflection, rounds=1, iterations=1)
    write_result(
        "ablation_noc_deflection.txt",
        f"mean latency under contention: {measured:.1f} cycles\n"
        f"contention-free hop count:     {ideal:.1f} cycles\n"
        f"deflections observed:          {deflections}")
    # Deflection costs latency but stays within a small multiple.
    assert measured >= ideal * 0.9
    assert measured < ideal * 6


def drain_network(n_leaves):
    """A fresh BFT with an all-to-all load queued: each of the 4 ports
    of each leaf is bound to a random leaf (seed 7), and each leaf
    sends 60 flits round-robin over its ports."""
    rng = random.Random(7)
    leaves = {i: LeafInterface(i, n_ports=4) for i in range(n_leaves)}
    sim = NetworkSimulator(BFTopology(n_leaves), leaves)
    for i in range(n_leaves):
        for p in range(4):
            leaves[i].bind(p, rng.randrange(n_leaves), p)
    for i in range(n_leaves):
        for k in range(60):
            leaves[i].send(k % 4, (i * 1000 + k) & 0xFFFFFFFF)
    return sim


def drain(sim):
    cycles = sim.run(max_cycles=2_000_000)
    return cycles, len(sim.delivered), sim.total_deflections


@pytest.mark.parametrize("n_leaves,expected", [
    (64, (1277, 3840, 107416)), (128, (2583, 7680, 464410))],
    ids=["64", "128"])
def test_noc_drain_pinned(benchmark, n_leaves, expected):
    result = benchmark.pedantic(
        drain, setup=lambda: ((drain_network(n_leaves),), {}), rounds=5)
    # (cycles, delivered, deflections), as both routers drained it
    # before the numpy one was deleted.
    assert result == expected
