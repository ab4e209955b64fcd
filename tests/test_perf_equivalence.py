"""Equivalence tests for the performance-optimised hot paths.

The optimised kernels (NoC stepping in :mod:`repro.noc.netsim`, the
cycle simulator, the softcore dispatch, the annealer and PathFinder)
are *rewrites for speed*, not behaviour changes, so this module pins
them down two ways:

* **reference equivalence** — ``_ReferenceSimulator`` below is a
  straight transcription of the pre-optimisation ``NetworkSimulator``
  arbitration loop (dict-of-lists gathering, per-packet sorting,
  tuple-keyed link registers).  It is run head-to-head against the
  production simulator on seeded traffic, including a reliable run
  under injected faults, and every observable — cycle count, delivered
  records, deflections, drained tokens, per-leaf stats — must match
  exactly.  A Hypothesis sweep does the same over random small configs.

* **golden pinning** — deterministic fixtures with frozen outputs
  (cycle counts, deflection totals, sha256 digests of record/stat
  streams) for the NoC, the cycle simulator, a full
  -O0 softcore execution (on both ISS dispatch paths) and one
  place-and-route case.  Any future
  "optimisation" that shifts a single payload, latency or RNG draw
  fails loudly.

Plus direct ordering-semantics tests for :class:`LeafInterface`: the
outbox is a deque with O(1) bounce re-injection, streams deliver
per-(source, port) FIFO, and the retransmission timer skip logic never
delays a due resend.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.bft import BFTopology, SwitchId
from repro.noc.leaf import LeafInterface
from repro.noc.netsim import NetworkSimulator
from repro.noc.packet import AckPacket, DataPacket, Packet

_UP = "up"
_DOWN = "down"


def _sha16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# the pre-optimisation simulator, transcribed
# --------------------------------------------------------------------------


class _ReferenceSimulator:
    """The original (pre-optimisation) NetworkSimulator step loop.

    Kept deliberately naive — tuple-keyed link registers, per-cycle
    dict-of-lists arrival gathering, a sort per switch — so the fast
    production implementation has an independent oracle.  The only
    deviation from the historical code is the ``injected_at < 0``
    sentinel check, which matches the production fix for payloads
    injected at cycle 0.
    """

    def __init__(self, topology: BFTopology,
                 leaves: Dict[int, LeafInterface], faults=None):
        self.topology = topology
        self.leaves = dict(leaves)
        for leaf in range(topology.size):
            if leaf not in self.leaves:
                self.leaves[leaf] = LeafInterface(leaf, 1)
        self._in_flight: Dict[Tuple, Packet] = {}
        self.cycle = 0
        self.delivered: List[Tuple[int, int, int]] = []
        self.total_deflections = 0
        self.faults = faults
        self.faults_dropped = 0
        self.faults_corrupted = 0
        self._injection_index = 0

    def step(self) -> None:
        topo = self.topology
        next_flight: Dict[Tuple, Packet] = {}

        arrivals: Dict[SwitchId, List[Packet]] = {
            s: [] for s in topo.switches()}
        for key, packet in self._in_flight.items():
            node, direction = key[0], key[1]
            if direction == _UP:
                if isinstance(node, int):
                    arrivals[topo.leaf_parent(node)].append(packet)
                else:
                    arrivals[topo.parent(node)].append(packet)
            else:
                child_side = key[2]
                if node.level == 1:
                    self._deliver(packet, node.index * 2 + child_side)
                else:
                    child = topo.children(node)[child_side]
                    arrivals[child].append(packet)

        for switch, packets in arrivals.items():
            if not packets:
                continue
            for packet in packets:
                packet.age += 1
                packet.hops += 1
            packets.sort(key=lambda p: -p.age)
            taken: set = set()
            for packet in packets:
                slot = self._pick_output(switch, packet, taken,
                                         next_flight)
                taken.add(slot)
                next_flight[slot] = packet

        for leaf_no, iface in self.leaves.items():
            key = (leaf_no, _UP, 0)
            if key in next_flight:
                continue
            packet = iface.pop_injection()
            if packet is not None:
                if packet.injected_at < 0:
                    packet.injected_at = self.cycle
                iface.note_transmitted(packet, self.cycle)
                packet = self._inject_faults(packet, leaf_no)
                if packet is not None:
                    next_flight[key] = packet

        self._in_flight = next_flight
        self.cycle += 1
        for iface in self.leaves.values():
            if iface.reliable:
                iface.service_retransmissions(self.cycle)

    def _inject_faults(self, packet: Packet,
                       leaf_no: int) -> Optional[Packet]:
        if self.faults is None \
                or not isinstance(packet, (DataPacket, AckPacket)):
            return packet
        index = self._injection_index
        self._injection_index += 1
        target = (f"leaf{leaf_no}->leaf{packet.dest_leaf}"
                  f":port{packet.dest_port}")
        outcome = self.faults.on_injection(index, target)
        if outcome == "drop":
            self.faults_dropped += 1
            return None
        if outcome == "corrupt":
            packet.payload ^= self.faults.corruption_mask(index)
            self.faults_corrupted += 1
        return packet

    def _deliver(self, packet: Packet, leaf_no: int) -> None:
        iface = self.leaves[leaf_no]
        accepted_before = iface.received
        bounced = iface.deliver(packet)
        if bounced is not None:
            iface.push_front(bounced)
        elif (not isinstance(packet, AckPacket)
              and iface.received > accepted_before):
            self.delivered.append(
                (packet.payload, self.cycle - packet.injected_at,
                 packet.hops))

    def _pick_output(self, switch: SwitchId, packet: Packet, taken: set,
                     next_flight: Dict[Tuple, Packet]) -> Tuple:
        topo = self.topology
        candidates: List[Tuple] = []
        if topo.covers(switch, packet.dest_leaf):
            lo, _hi = topo.subtree_range(switch)
            span = 1 << (switch.level - 1)
            side = 0 if packet.dest_leaf < lo + span else 1
            candidates.append((switch, _DOWN, side))
            candidates.append((switch, _DOWN, 1 - side))
            for lane in range(topo.up_links):
                if switch.level < topo.levels:
                    candidates.append((switch, _UP, lane))
        else:
            for lane in range(topo.up_links):
                if switch.level < topo.levels:
                    candidates.append((switch, _UP, lane))
            candidates.append((switch, _DOWN, 0))
            candidates.append((switch, _DOWN, 1))
        for slot in candidates:
            if slot not in taken and slot not in next_flight:
                if slot != candidates[0]:
                    self.total_deflections += 1
                return slot
        raise AssertionError(f"{switch}: no free output")

    def run(self, max_cycles: int = 100_000) -> int:
        idle = 0
        while idle < 3:
            assert self.cycle < max_cycles, "reference sim did not drain"
            busy = bool(self._in_flight) or any(
                iface.outbox or (iface.reliable and iface.has_unacked())
                for iface in self.leaves.values())
            self.step()
            idle = 0 if busy else idle + 1
        return self.cycle


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------


def _make_leaves(n_leaves: int, n_ports: int, per_leaf: int, seed: int,
                 reliable: bool = False, retransmit_timeout: int = 64):
    """Seeded all-to-all traffic: bindings and queued tokens."""
    rng = random.Random(seed)
    kwargs = (dict(reliable=True, retransmit_timeout=retransmit_timeout)
              if reliable else {})
    leaves = {i: LeafInterface(i, n_ports=n_ports, **kwargs)
              for i in range(n_leaves)}
    for i in range(n_leaves):
        for p in range(n_ports):
            leaves[i].bind(p, rng.randrange(n_leaves), p)
    for i in range(n_leaves):
        for k in range(per_leaf):
            leaves[i].send(k % n_ports, (i * 1000 + k) & 0xFFFFFFFF)
    return leaves


def _observables(sim, leaves: Dict[int, LeafInterface],
                 n_ports: int) -> Dict:
    records = sim.delivered
    if records and not isinstance(records[0], tuple):
        records = [(r.payload, r.latency, r.hops) for r in records]
    return {
        "records": list(records),
        "deflections": sim.total_deflections,
        "dropped": sim.faults_dropped,
        "corrupted": sim.faults_corrupted,
        "tokens": {(leaf, p): leaves[leaf].tokens(p)
                   for leaf in sorted(leaves) for p in range(n_ports)
                   if p < leaves[leaf].n_ports},
        "stats": {leaf: (iface.received, iface.bounced, iface.sent,
                         iface.retransmissions, iface.crc_dropped,
                         iface.duplicates_dropped, iface.acks_sent,
                         iface.acks_received)
                  for leaf, iface in sorted(leaves.items())},
    }


def _run_head_to_head(n_leaves: int, n_ports: int, per_leaf: int,
                      seed: int, reliable: bool = False,
                      fault_plan=None, retransmit_timeout: int = 64):
    """Run the reference and the production simulator on identical
    traffic."""
    topo = BFTopology(n_leaves)

    ref_leaves = _make_leaves(n_leaves, n_ports, per_leaf, seed,
                              reliable, retransmit_timeout)
    ref = _ReferenceSimulator(
        topo, ref_leaves,
        faults=fault_plan.noc_faults() if fault_plan else None)
    ref_cycles = ref.run(max_cycles=500_000)
    want = _observables(ref, ref_leaves, n_ports)

    fast_leaves = _make_leaves(n_leaves, n_ports, per_leaf, seed,
                               reliable, retransmit_timeout)
    fast = NetworkSimulator(
        topo, fast_leaves,
        faults=fault_plan.noc_faults() if fault_plan else None)
    fast_cycles = fast.run(max_cycles=500_000)

    assert fast_cycles == ref_cycles
    assert _observables(fast, fast_leaves, n_ports) == want
    return want


# --------------------------------------------------------------------------
# reference equivalence
# --------------------------------------------------------------------------


class TestReferenceEquivalence:
    def test_small_drain(self):
        got = _run_head_to_head(8, 2, 20, seed=5)
        assert len(got["records"]) == 8 * 20

    def test_wider_drain(self):
        got = _run_head_to_head(16, 4, 30, seed=9)
        assert len(got["records"]) == 16 * 30

    def test_single_flit(self):
        got = _run_head_to_head(4, 1, 1, seed=1)
        assert len(got["records"]) == 4

    def test_reliable_drain_under_faults(self):
        from repro.faults import FaultPlan
        plan = FaultPlan(seed=13, noc_drop_rate=0.02,
                         noc_corrupt_rate=0.01)
        got = _run_head_to_head(8, 2, 15, seed=13, reliable=True,
                                fault_plan=plan, retransmit_timeout=32)
        # Every queued token arrives exactly once despite the losses.
        assert len(got["records"]) == 8 * 15
        assert got["dropped"] > 0 or got["corrupted"] > 0

    @settings(max_examples=20, deadline=None)
    @given(
        n_leaves=st.sampled_from([2, 4, 8]),
        n_ports=st.integers(min_value=1, max_value=3),
        per_leaf=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_traffic_matches_reference(self, n_leaves, n_ports,
                                              per_leaf, seed):
        got = _run_head_to_head(n_leaves, n_ports, per_leaf, seed)
        # Packet conservation: nothing lost, nothing duplicated.
        assert len(got["records"]) == n_leaves * per_leaf
        assert (sum(len(t) for t in got["tokens"].values())
                == n_leaves * per_leaf)


# --------------------------------------------------------------------------
# golden pinning: NoC
# --------------------------------------------------------------------------


def _golden_drain(n_leaves, n_ports, per_leaf, seed, reliable=False,
                  fault_plan=None):
    leaves = _make_leaves(n_leaves, n_ports, per_leaf, seed, reliable)
    sim = NetworkSimulator(
        BFTopology(n_leaves), leaves,
        faults=fault_plan.noc_faults() if fault_plan else None)
    cycles = sim.run(max_cycles=2_000_000)
    records = [(r.payload, r.latency, r.hops) for r in sim.delivered]
    stats = {leaf: (iface.received, iface.bounced, iface.sent,
                    iface.retransmissions, iface.crc_dropped,
                    iface.duplicates_dropped, iface.acks_sent,
                    iface.acks_received)
             for leaf, iface in leaves.items()}
    return cycles, sim.total_deflections, records, stats


class TestGoldenNoC:
    """Frozen outputs captured from the pre-optimisation simulator."""

    def test_drain_small(self):
        cycles, deflections, records, stats = _golden_drain(
            16, 4, 60, 7)
        assert cycles == 312
        assert deflections == 3817
        assert len(records) == 960
        assert _sha16(records) == "e7f0e5fb5c963eae"
        assert _sha16(sorted(stats.items())) == "2790e17254d99daf"

    def test_drain_mid(self):
        cycles, deflections, records, stats = _golden_drain(
            32, 4, 100, 3)
        assert cycles == 1161
        assert deflections == 43348
        assert len(records) == 3200
        assert _sha16(records) == "8f18c85aca854d47"
        assert _sha16(sorted(stats.items())) == "52b695d1fabe0a2a"

    def test_reliable_drain(self):
        from repro.faults import FaultPlan
        plan = FaultPlan(seed=11, noc_drop_rate=0.01,
                         noc_corrupt_rate=0.005)
        cycles, deflections, records, stats = _golden_drain(
            16, 2, 50, 11, reliable=True, fault_plan=plan)
        assert cycles == 1206
        assert deflections == 20694
        assert len(records) == 800
        assert _sha16(records) == "3f14d52fcaaefce5"
        assert _sha16(sorted(stats.items())) == "f040a4bdf1cd3c3e"


# --------------------------------------------------------------------------
# golden pinning: cycle simulator, softcore, place-and-route
# --------------------------------------------------------------------------


class TestGoldenCycleSim:
    @pytest.mark.parametrize("app_name,makespan,out_sha", [
        ("optical-flow", 337, "bc69094af4923480"),
        ("spam-filter", 81, "81f126df0b7b1c31"),
    ])
    def test_app_makespan_and_outputs(self, app_name, makespan, out_sha):
        from repro.dataflow.cycle_sim import CycleSimulator
        from repro.rosetta import get_app

        app = get_app(app_name)
        sim = CycleSimulator(app.project.graph)
        outputs = sim.run({k: list(v)
                           for k, v in app.project.sample_inputs.items()})
        assert sim.makespan == makespan
        assert _sha16(sorted(outputs.items())) == out_sha


#: The softcore ISS's two dispatch paths: ``scalar`` single-steps every
#: instruction through :meth:`PicoRV32.step` (the reference, and the
#: path an armed fault trap takes); ``vector`` runs a whole cached basic
#: block per dispatch (the default).
ISS_PATHS = ("scalar", "vector")


class TestGoldenSoftcore:
    @pytest.mark.parametrize("iss_path", ISS_PATHS)
    def test_o0_execution(self, iss_path, monkeypatch):
        """Both dispatch paths must replay the original ISS run."""
        from repro.core import BuildEngine, O0Flow
        from repro.rosetta import get_app
        from repro.softcore.cpu import PicoRV32

        if iss_path == "scalar":
            monkeypatch.setattr(PicoRV32, "_step_block", PicoRV32.step)
        app = get_app("digit-recognition")
        build = O0Flow(effort=0.1).compile(app.project, BuildEngine())
        outputs = build.execute(app.project.sample_inputs)
        cycles = build.softcore_cycles()
        assert outputs == {"Output_1": [7, 9, 5]}
        assert sum(cycles.values()) == 599245
        assert _sha16(sorted(cycles.items())) == "59fa7e0b900f866d"


class TestGoldenPnR:
    def test_place_and_route_pinned(self):
        """One pinned annealer + PathFinder run (seeded RNG stream)."""
        from repro.fabric.shell import Overlay
        from repro.hls.estimate import estimate_operator
        from repro.hls.netlist import synthesize_netlist
        from repro.pnr.pack import pack_netlist
        from repro.pnr.placer import place
        from repro.pnr.router import route
        from repro.rosetta import get_app

        app = get_app("digit-recognition")
        op_name, op = next(iter(app.project.graph.operators.items()))
        assert op_name == "unpack"
        estimate = estimate_operator(op.hls_spec)
        netlist = synthesize_netlist(
            op_name, estimate, n_ports=len(op.inputs) + len(op.outputs))
        grid = list(Overlay().pages)[0].page_type.grid()

        placement = place(pack_netlist(netlist), grid, seed=2,
                          effort=0.15)
        stats = placement.stats
        assert (stats.moves_evaluated, stats.moves_accepted,
                stats.temperatures, stats.initial_cost,
                stats.final_cost) == (520, 117, 52, 914, 289)
        locs = [(slot.x, slot.y) for slot in placement.locations]
        assert len(locs) == 14
        assert _sha16(locs) == "155bcd432b4ebdb0"

        result = route(placement, channel_capacity=16, max_iterations=8)
        assert (result.success, result.iterations,
                result.node_expansions, result.total_wirelength,
                result.overused_nodes) == (True, 1, 353, 350, 0)
        routes_sha = hashlib.sha256(
            repr(sorted(result.routes.items())).encode()).hexdigest()
        assert routes_sha == ("f03e1f6a5d66bc9a57a50f250847ad0a"
                              "5ae9a7738f4358a03afaaac16e23e001")


# --------------------------------------------------------------------------
# leaf interface ordering semantics
# --------------------------------------------------------------------------


class TestLeafOrdering:
    def test_outbox_is_deque_with_front_reinjection(self):
        leaf = LeafInterface(0, n_ports=1)
        leaf.bind(0, 1, 0)
        assert isinstance(leaf.outbox, deque)
        for token in (10, 11, 12):
            leaf.send(0, token)
        first = leaf.pop_injection()
        assert first.payload == 10
        # A bounced packet re-enters ahead of all queued traffic.
        leaf.push_front(first)
        again = leaf.pop_injection()
        assert again is first
        assert leaf.pop_injection().payload == 11

    def test_injection_preserves_send_order(self):
        leaf = LeafInterface(0, n_ports=2)
        leaf.bind(0, 1, 0)
        leaf.bind(1, 1, 1)
        sent = [(k % 2, k) for k in range(10)]
        for port, token in sent:
            leaf.send(port, token)
        popped = [leaf.pop_injection().payload for _ in range(10)]
        assert popped == [token for _, token in sent]

    def test_stream_delivery_is_fifo_per_port(self):
        """Tokens arrive in send order even when deflection reorders
        flits in flight — the reorder buffer restores the stream."""
        n = 50
        leaves = {i: LeafInterface(i, n_ports=1) for i in range(4)}
        # Everyone targets leaf 3 to force contention and deflection.
        for i in range(3):
            leaves[i].bind(0, 3, 0)
            for k in range(n):
                leaves[i].send(0, i * 1000 + k)
        sim = NetworkSimulator(BFTopology(4), leaves)
        sim.run(max_cycles=100_000)
        got = leaves[3].tokens(0)
        assert sorted(got) == sorted(i * 1000 + k
                                     for i in range(3) for k in range(n))
        # Per-source subsequences are strictly in send order.
        for i in range(3):
            mine = [t for t in got if t // 1000 == i]
            assert mine == [i * 1000 + k for k in range(n)]

    def test_packet_injected_at_sentinel(self):
        """Cycle-0 injections must keep their timestamp (the field
        defaults to the -1 sentinel, not 0)."""
        packet = DataPacket(dest_leaf=1, dest_port=0, payload=0)
        assert packet.injected_at == -1
        leaves = {0: LeafInterface(0, n_ports=1),
                  1: LeafInterface(1, n_ports=1)}
        leaves[0].bind(0, 1, 0)
        leaves[0].send(0, 99)
        sim = NetworkSimulator(BFTopology(2), leaves)
        sim.run(max_cycles=1_000)
        [record] = sim.delivered
        # Injected on cycle 0, so latency equals the delivery cycle.
        assert record.payload == 99
        assert record.latency > 0

    def test_retransmission_timer_fires_exactly_on_deadline(self):
        leaf = LeafInterface(0, n_ports=1, reliable=True,
                             retransmit_timeout=8,
                             max_retransmissions=4)
        leaf.bind(0, 1, 0)
        leaf.send(0, 42)
        packet = leaf.pop_injection()
        leaf.note_transmitted(packet, 0)
        assert leaf.has_unacked()
        # Before the deadline the (O(1)-skipped) scan resends nothing.
        for cycle in range(1, 8):
            assert leaf.service_retransmissions(cycle) == 0
        assert leaf.service_retransmissions(8) == 1
        assert leaf.retransmissions == 1
        # The queued copy suppresses further timer rounds until it is
        # actually re-transmitted.
        assert leaf.service_retransmissions(9) == 0
        copy = leaf.pop_injection()
        assert (copy.payload, copy.seq) == (packet.payload, packet.seq)
        leaf.note_transmitted(copy, 9)
        assert leaf.service_retransmissions(16) == 0
        assert leaf.service_retransmissions(17) == 1
