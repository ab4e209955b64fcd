"""Cycle-level simulation of the deflection-routed BFT.

Switches are bufferless (Hoplite-style): every packet arriving at a
switch must leave the same cycle.  Output assignment is age-ordered —
the oldest packet gets its preferred direction, younger packets deflect
to any legal free output — which provides the livelock resistance of
CHIPPER-style designs [18, 46].  Down-links to leaves only carry packets
for that leaf's subtree when possible; a packet deflected onto a wrong
leaf bounces: the leaf interface re-injects it ahead of new traffic.

The simulator measures delivered-packet latency and sustained
throughput, which the -O1 performance model uses as the effective
link/leaf bandwidths of the overlay.

The inner loop is table-driven: switch candidate outputs, link
destinations and arrival buffers are precomputed once per topology, so
a cycle is a couple of dict lookups per in-flight packet instead of
per-cycle :class:`SwitchId` construction and routing geometry.  The
tables are pure caches — results are bit-identical to the naive
geometry walk, which the equivalence tests assert.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import DeadlockError, NoCError
from repro.noc.bft import BFTopology, SwitchId
from repro.noc.leaf import LeafInterface
from repro.noc.packet import AckPacket, DataPacket, Packet
from repro.trace import NULL_TRACER

#: Output slot identifiers: ("up", k) | ("down", child_side)
_UP = "up"
_DOWN = "down"

_AGE = operator.attrgetter("age")


@dataclass
class DeliveryRecord:
    payload: int
    latency: int
    hops: int


class NetworkSimulator:
    """Simulates one overlay network with attached leaf interfaces.

    Args:
        topology: the BFT to simulate (single up-link).
        leaves: leaf number -> interface; missing leaves get bare ones.
        faults: optional :class:`repro.faults.NoCFaultInjector`; each
            injected data/ack flit may then be dropped or have a payload
            bit flipped.  Pair with ``reliable=True`` leaf interfaces so
            the CRC/retransmission layer recovers the loss.
        watchdog_cycles: with pending work but zero deliveries for this
            many cycles, the simulator raises :class:`DeadlockError`
            carrying a structured diagnostic (blocked leaves, outbox and
            reorder occupancies, in-flight packets) instead of spinning
            to the cycle limit.
        tracer: optional :class:`repro.trace.Tracer`; retransmission
            bursts and the watchdog firing then appear as instant
            events on the ``noc`` lane (with the cycle they happened
            at), so a flaky network is visible in the same trace as the
            build that ran over it.
    """

    def __init__(self, topology: BFTopology,
                 leaves: Optional[Dict[int, LeafInterface]] = None,
                 faults=None, watchdog_cycles: int = 50_000,
                 tracer=None):
        if topology.up_links != 1:
            raise NoCError(
                "the cycle simulator models the paper's modest single "
                "up-link network; wider fat trees are handled by the "
                "analytic NoCPerformanceModel")
        self.topology = topology
        self.leaves: Dict[int, LeafInterface] = dict(leaves or {})
        for leaf, iface in self.leaves.items():
            if iface.leaf != leaf:
                raise NoCError(
                    f"leaf interface {iface.leaf} attached at {leaf}")
        # Padding leaves (tree rounded to a power of two) get bare
        # interfaces so mis-deflected packets bounce instead of dying.
        for leaf in range(topology.size):
            if leaf not in self.leaves:
                self.leaves[leaf] = LeafInterface(leaf, 1)
        # Link registers: packets in flight, written for the *next* cycle.
        # Keyed by interned slot id; _slot_keys maps an id back to its
        # (node, direction, lane) — node is a SwitchId for switch
        # outputs, an int for leaf up-links.
        self._in_flight: Dict[int, Packet] = {}
        self.cycle = 0
        self.delivered: List[DeliveryRecord] = []
        self.total_deflections = 0
        self.faults = faults
        self.watchdog_cycles = watchdog_cycles
        self.faults_dropped = 0
        self.faults_corrupted = 0
        self._injection_index = 0
        self._accepted_events = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._retrans_seen = 0
        self._build_tables()

    def attach(self, iface: LeafInterface) -> None:
        self.leaves[iface.leaf] = iface
        self._build_tables()

    # -- routing tables ------------------------------------------------------

    def _build_tables(self) -> None:
        """Precompute the per-topology constants the hot loop uses.

        * one reusable arrival buffer per switch (cleared each cycle
          instead of rebuilding a ``{switch: []}`` dict);
        * every output slot ``(node, direction, lane)`` interned to a
          small int id, so the per-cycle ``_in_flight``/``taken`` set
          operations hash ints instead of SwitchId-bearing tuples;
        * per-switch candidate-slot tuples in deflection preference
          order, and a link-destination table mapping every slot id to
          either the arrival buffer it feeds or the leaf it delivers to.
        """
        topo = self.topology
        switches = list(topo.switches())
        buffers: Dict[SwitchId, List[Packet]] = {s: [] for s in switches}
        slot_keys: List[Tuple] = []      # id -> (node, direction, lane)

        def intern(key: Tuple) -> int:
            slot_keys.append(key)
            return len(slot_keys) - 1

        # (buffer, switch, lo, mid, hi, cand_left, cand_right, cand_out)
        route_entries = []
        for s in switches:
            lo, hi = topo.subtree_range(s)
            span = 1 << (s.level - 1)
            ups: Tuple[int, ...] = ()
            if s.level < topo.levels:
                ups = tuple(intern((s, _UP, lane))
                            for lane in range(topo.up_links))
            down = (intern((s, _DOWN, 0)), intern((s, _DOWN, 1)))
            route_entries.append((
                buffers[s], s, lo, lo + span, hi,
                down + ups,                    # covered, left child first
                (down[1], down[0]) + ups,      # covered, right child first
                ups + down,                    # not covered: climb
            ))
        leaf_slots = [intern((leaf, _UP, 0))
                      for leaf in range(topo.size)]
        # slot id -> (deliver_to_leaf?, arrival-buffer-or-leaf_no)
        dest: List[Tuple] = [None] * len(slot_keys)
        for sid, (node, direction, lane) in enumerate(slot_keys):
            if direction == _UP:
                if isinstance(node, int):            # leaf -> its parent
                    dest[sid] = (False, buffers[topo.leaf_parent(node)])
                else:                                 # switch -> parent
                    dest[sid] = (False, buffers[topo.parent(node)])
            elif node.level == 1:                     # down to a leaf
                dest[sid] = (True, node.index * 2 + lane)
            else:
                dest[sid] = (False, buffers[topo.children(node)[lane]])
        self._route_entries = route_entries
        self._dest = dest
        self._slot_keys = slot_keys
        self._leaf_entries = [(leaf, iface, leaf_slots[leaf])
                              for leaf, iface in self.leaves.items()]
        self._ifaces = tuple(self.leaves.values())
        self._reliable_ifaces = tuple(
            iface for iface in self.leaves.values() if iface.reliable)

    # -- one simulation step -----------------------------------------------

    def step(self) -> None:
        """Advance one clock cycle."""
        next_flight: Dict[int, Packet] = {}
        dest = self._dest

        # Gather arrivals per switch: packets on child up-links and on
        # the parent's down-link toward this switch; down-links out of
        # level 1 deliver (or bounce) at their leaf.
        for key, packet in self._in_flight.items():
            to_leaf, target = dest[key]
            if to_leaf:
                self._deliver(packet, target)
            else:
                target.append(packet)

        # Route each switch's arrivals, oldest packet first.
        deflections = 0
        for entry in self._route_entries:
            packets = entry[0]
            if not packets:
                continue
            for packet in packets:
                packet.age += 1
                packet.hops += 1
            packets.sort(key=_AGE, reverse=True)
            taken: set = set()
            lo, mid, hi = entry[2], entry[3], entry[4]
            for packet in packets:
                d = packet.dest_leaf
                if lo <= d < hi:
                    candidates = entry[5] if d < mid else entry[6]
                else:
                    candidates = entry[7]
                for slot in candidates:
                    if slot not in taken and slot not in next_flight:
                        break
                else:
                    raise NoCError(
                        f"{entry[1]}: no free output — switch radix "
                        f"violated")
                if slot is not candidates[0]:
                    deflections += 1
                taken.add(slot)
                next_flight[slot] = packet
            del packets[:]
        self.total_deflections += deflections

        # Leaf injections: a leaf's up-link is free if no switch wrote it
        # (switches never write leaf up-links), so inject when available.
        cycle = self.cycle
        faults = self.faults
        for leaf_no, iface, key in self._leaf_entries:
            if key in next_flight:
                continue
            packet = iface.pop_injection()
            if packet is not None:
                if packet.injected_at < 0:
                    packet.injected_at = cycle
                iface.note_transmitted(packet, cycle)
                if faults is not None:
                    packet = self._inject_faults(packet, leaf_no)
                if packet is not None:
                    next_flight[key] = packet

        self._in_flight = next_flight
        self.cycle = cycle + 1
        self._service_reliability()

    def _service_reliability(self) -> None:
        # Drive the reliability layer's ack timeouts: overdue unacked
        # flits re-enter their leaf's outbox for the next cycles.
        for iface in self._reliable_ifaces:
            iface.service_retransmissions(self.cycle)
        if self._reliable_ifaces and self.tracer.enabled:
            total = sum(iface.retransmissions
                        for iface in self._reliable_ifaces)
            if total != self._retrans_seen:
                self.tracer.instant(
                    "noc:retransmit", category="noc", lane="noc",
                    cycle=self.cycle, flits=total - self._retrans_seen)
                self._retrans_seen = total

    def _inject_faults(self, packet: Packet,
                       leaf_no: int) -> Optional[Packet]:
        """Apply the fault plan to one injected flit (None = dropped)."""
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
            # Flip one payload bit without fixing the CRC: the receiver
            # detects the mismatch and treats the flit as lost.
            packet.payload ^= self.faults.corruption_mask(index)
            self.faults_corrupted += 1
        return packet

    def _deliver(self, packet: Packet, leaf_no: int) -> None:
        iface = self.leaves[leaf_no]
        received_before = iface.received
        acks_before = iface.acks_received
        bounced = iface.deliver(packet)
        if bounced is not None:
            iface.push_front(bounced)
            return
        if iface.received > received_before:
            self._accepted_events += 1
            if not isinstance(packet, AckPacket):
                # Acks and discarded flits (bad CRC, duplicates) are
                # not application deliveries and stay out of the
                # latency stats.
                self.delivered.append(DeliveryRecord(
                    packet.payload, self.cycle - packet.injected_at,
                    packet.hops))
        elif iface.acks_received > acks_before:
            self._accepted_events += 1

    # -- convenience drivers ------------------------------------------------

    def run(self, max_cycles: int = 100_000) -> int:
        """Step until the network drains or the cycle limit hits.

        Returns the cycle count at quiescence.  Reliable leaves are not
        quiescent while they still hold unacknowledged flits: the run
        keeps stepping so retransmission timers can fire.  A watchdog
        turns pure stagnation (pending work, zero accepted deliveries
        for ``watchdog_cycles``) into a :class:`DeadlockError` with a
        structured diagnostic instead of an opaque cycle-limit abort.
        """
        idle = 0
        last_progress_cycle = 0
        last_accepted = self._accepted_total()
        while idle < 3:
            if self.cycle >= max_cycles:
                raise NoCError(
                    f"network did not drain within {max_cycles} cycles")
            busy = bool(self._in_flight)
            if not busy:
                for iface in self._ifaces:
                    if iface.outbox or (iface.reliable
                                        and iface.has_unacked()):
                        busy = True
                        break
            self.step()
            idle = 0 if busy else idle + 1
            accepted = self._accepted_total()
            if accepted != last_accepted:
                last_accepted = accepted
                last_progress_cycle = self.cycle
            elif (busy and self.watchdog_cycles > 0
                    and self.cycle - last_progress_cycle
                    >= self.watchdog_cycles):
                self._raise_watchdog()
        return self.cycle

    def _accepted_total(self) -> int:
        """Progress metric: packets accepted (incl. acks) network-wide.

        Maintained as an O(1) event counter in :meth:`_deliver` — the
        only path that accepts packets during a run — instead of a
        per-cycle sum over every leaf.  ``run`` only compares values
        for change, so the counter is equivalent to the sum.
        """
        return self._accepted_events

    def _raise_watchdog(self) -> None:
        blocked = sorted(
            f"leaf{no}" for no, iface in self.leaves.items()
            if iface.outbox or (iface.reliable and iface.has_unacked()))
        diagnostic = {
            "cycle": self.cycle,
            "watchdog_cycles": self.watchdog_cycles,
            "in_flight": [
                f"{key[0]}/{key[1]}->leaf{pkt.dest_leaf}"
                f":port{pkt.dest_port}"
                for key, pkt in sorted(
                    ((self._slot_keys[sid], pkt)
                     for sid, pkt in self._in_flight.items()),
                    key=lambda kv: repr(kv[0]))],
            "outboxes": {f"leaf{no}": len(iface.outbox)
                         for no, iface in sorted(self.leaves.items())
                         if iface.outbox},
            "unacked": {f"leaf{no}": iface.unacked_count()
                        for no, iface in sorted(self.leaves.items())
                        if iface.reliable and iface.has_unacked()},
            "faults_dropped": self.faults_dropped,
            "faults_corrupted": self.faults_corrupted,
        }
        self.tracer.instant("noc:watchdog", category="noc", lane="noc",
                            cycle=self.cycle, blocked=len(blocked))
        raise DeadlockError(
            f"NoC made no delivery progress for {self.watchdog_cycles} "
            f"cycles with work pending (cycle {self.cycle})",
            blocked=blocked, diagnostic=diagnostic)

    def mean_latency(self) -> float:
        if not self.delivered:
            return 0.0
        return sum(r.latency for r in self.delivered) / len(self.delivered)

    def throughput(self) -> float:
        """Delivered packets per cycle over the whole run."""
        if self.cycle == 0:
            return 0.0
        return len(self.delivered) / self.cycle
