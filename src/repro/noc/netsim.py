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

Two routers step the network, chosen by its size:

* below :data:`VECTOR_MIN_LEAVES` leaves, the loop above: one dict/list
  operation per packet per cycle.
* from :data:`VECTOR_MIN_LEAVES` leaves up, all in-flight packets live
  in numpy columns (slot/dest/age/hops, plus an index into a stable
  packet-object store); routing class selection, age-ordered
  arbitration (a stable ``lexsort`` reproduces the per-switch sort
  exactly) and deflection resolution are whole-array operations per
  cycle.  Per cycle Python touches only actual deliveries and
  injections, so the cost is ~flat in the in-flight count — the win
  grows with network size, but the fixed per-cycle array overhead
  loses on small networks.  Deliveries, deflection counts, latencies
  and fault outcomes are bit-identical on both paths (pinned by the
  golden tests, which run on both).
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

#: Padded leaf count (:attr:`BFTopology.size`) from which the simulator
#: takes the numpy router.  Measured crossover: the vector router loses
#: at 8-64 leaves and wins from 128 up (EXPERIMENTS.md), so the U50 and
#: U280 overlays stay on the per-packet loop and the VU19P goes vector.
VECTOR_MIN_LEAVES = 128


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
        self._vector = topology.size >= VECTOR_MIN_LEAVES
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
        if self._vector:
            self._build_vector_tables()

    def _build_vector_tables(self) -> None:
        """Recast the routing tables as numpy columns.

        Slot ids index ``_slot_switch`` (arrival-switch row, or -1 when
        the slot delivers) and ``_slot_leaf`` (delivery leaf, or -1).
        Switch rows index the subtree bounds and a ``(3 classes x 3
        candidates)`` table padded with -1 — class 0/1/2 are
        covered-left / covered-right / climb, mirroring the scalar
        candidate tuples element for element.
        """
        import numpy as np

        self._np = np
        buffer_row = {id(entry[0]): row
                      for row, entry in enumerate(self._route_entries)}
        n_slots = len(self._slot_keys)
        slot_switch = np.full(n_slots, -1, np.int64)
        slot_leaf = np.full(n_slots, -1, np.int64)
        for sid, (to_leaf, target) in enumerate(self._dest):
            if to_leaf:
                slot_leaf[sid] = target
            else:
                slot_switch[sid] = buffer_row[id(target)]
        n_switches = len(self._route_entries)
        lo = np.empty(n_switches, np.int64)
        mid = np.empty(n_switches, np.int64)
        hi = np.empty(n_switches, np.int64)
        cand = np.full((n_switches, 3, 3), -1, np.int64)
        for row, entry in enumerate(self._route_entries):
            lo[row], mid[row], hi[row] = entry[2], entry[3], entry[4]
            for cls in range(3):
                slots = entry[5 + cls]
                cand[row, cls, :len(slots)] = slots
        self._slot_switch = slot_switch
        self._slot_leaf = slot_leaf
        self._sw_lo = lo
        self._sw_mid = mid
        self._sw_hi = hi
        self._cand_table = cand
        self._cand_flat = cand.reshape(-1, 3)
        # Per-leaf tables for the delivery/injection loops.  ``pos`` is
        # the leaf's position in _leaf_entries: scalar injections enter
        # next_flight in that order, and each leaf injects at most one
        # packet per cycle, so sorting vector injections by pos
        # reproduces the scalar insertion order exactly.
        size = self.topology.size
        by_no = [self.leaves[i] for i in range(size)]
        self._vleaf_by_no = by_no
        self._vleaf_fast = np.array(
            [not iface.reliable for iface in by_no], dtype=bool)
        upslot = np.zeros(size, np.int64)
        pos_of = np.zeros(size, np.int64)
        for pos, (leaf, _iface, key) in enumerate(self._leaf_entries):
            upslot[leaf] = key
            pos_of[leaf] = pos
        self._vleaf_upslot = upslot
        self._vleaf_pos = pos_of
        self._vleaf_entries = [
            (leaf, iface, key, iface.reliable, iface.outbox, pos)
            for pos, (leaf, iface, key) in enumerate(self._leaf_entries)]
        # Flight state survives an attach()-triggered table rebuild
        # (slot interning is deterministic, so the ids stay valid).
        if not hasattr(self, "_vpidx"):
            self._vstore: List[Packet] = []
            empty = np.zeros(0, np.int64)
            self._vpidx = empty
            self._vslot = empty.copy()
            self._vdest = empty.copy()
            self._vage = empty.copy()
            self._vhops = empty.copy()

    # -- one simulation step -----------------------------------------------

    def step(self) -> None:
        """Advance one clock cycle."""
        if self._vector:
            self._step_vector()
        else:
            self._step_scalar()

    def _step_scalar(self) -> None:
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

    def _step_vector(self) -> None:
        """One cycle over the numpy flight columns.

        The in-flight set is four aligned int64 columns (slot, dest,
        age, hops) plus ``_vpidx`` — an index into the append-only
        ``_vstore`` packet-object list, so reordering the flight each
        cycle is a numpy gather instead of a Python list rebuild.
        Column order *is* the scalar ``_in_flight`` dict insertion
        order; a stable ``lexsort`` on (switch row, -age) therefore
        reproduces the scalar per-switch age sort, including its
        arrival-order tie-breaks.  Python-level work per cycle is
        limited to actual deliveries and leaf injections.
        """
        np = self._np
        store = self._vstore
        pidx = self._vpidx
        age = self._vage
        hops = self._vhops
        dest = self._vdest
        # Bounce fast path: the scalar path's deliver()/push_front()/
        # pop_injection() round-trip for a mis-deflected packet at a
        # non-reliable, fault-free leaf reduces to ``bounced += 1;
        # sent += 1`` and the packet re-entering flight on that leaf's
        # up-link with dest/age/hops/injected_at unchanged — so those
        # rows never leave the arrays.  ``b_cols`` holds their spliced
        # columns (pidx, slot, dest, age, hops, leaf pos).
        bounced_leaves: set = set()
        b_cols = None
        if pidx.size:
            slot = self._vslot
            sw = self._slot_switch[slot]
            deliver_idx = np.flatnonzero(sw < 0)
            if deliver_idx.size:
                dleaf = self._slot_leaf[slot[deliver_idx]]
                ddest = dest[deliver_idx]
                if self.faults is None:
                    bounce_m = (ddest != dleaf) & self._vleaf_fast[dleaf]
                    n_bounce = int(bounce_m.sum())
                else:
                    bounce_m = None
                    n_bounce = 0
                if n_bounce < deliver_idx.size:
                    slow = (deliver_idx if bounce_m is None
                            else deliver_idx[~bounce_m])
                    s_leaf = (dleaf if bounce_m is None
                              else dleaf[~bounce_m]).tolist()
                    s_pidx = pidx[slow].tolist()
                    s_age = age[slow].tolist()
                    s_hops = hops[slow].tolist()
                    for k, leaf in enumerate(s_leaf):
                        # Sync the object before handing it back to the
                        # leaf: a bounced packet keeps its age priority.
                        packet = store[s_pidx[k]]
                        packet.age = s_age[k]
                        packet.hops = s_hops[k]
                        self._deliver(packet, leaf)
                if n_bounce:
                    b_idx = deliver_idx[bounce_m]
                    b_leaf = dleaf[bounce_m]
                    by_no = self._vleaf_by_no
                    leaves = b_leaf.tolist()
                    for leaf in leaves:
                        iface = by_no[leaf]
                        iface.bounced += 1
                        iface.sent += 1
                    bounced_leaves = set(leaves)
                    b_cols = (pidx[b_idx],
                              self._vleaf_upslot[b_leaf],
                              ddest[bounce_m],
                              age[b_idx],
                              hops[b_idx],
                              self._vleaf_pos[b_leaf])
            route_idx = np.flatnonzero(sw >= 0)
        else:
            route_idx = pidx
        if route_idx.size:
            rage = age[route_idx] + 1
            rhops = hops[route_idx] + 1
            rsw = sw[route_idx]
            # Stable sort by (switch row, age desc), arrival-order ties
            # — one composite int64 key beats a two-key lexsort.  Ages
            # stay far below 2**40 (the cycle limit bounds them).
            order = np.argsort((rsw << 40) - rage, kind="stable")
            sidx = route_idx[order]
            ssw = rsw[order]
            n = ssw.size
            positions = np.arange(n)
            group_start = np.empty(n, bool)
            group_start[0] = True
            if n > 1:
                group_start[1:] = ssw[1:] != ssw[:-1]
            # Rank of each packet within its switch's age-sorted
            # arrivals: position minus the position of the group head.
            rank = positions - np.maximum.accumulate(
                np.where(group_start, positions, 0))
            rdest = dest[sidx]
            covered = (self._sw_lo[ssw] <= rdest) \
                & (rdest < self._sw_hi[ssw])
            cls = np.where(covered,
                           np.where(rdest < self._sw_mid[ssw], 0, 1), 2)
            cands = self._cand_flat[ssw * 3 + cls]
            first = cands[:, 0]
            chosen = first.copy()
            # Rank 1 defers to its group head (the previous sorted row);
            # rank 2 to the two rows before it.  Candidates within a
            # class are distinct, so "first not taken" is closed-form.
            rank1 = np.flatnonzero(rank == 1)
            if rank1.size:
                t0 = chosen[rank1 - 1]
                c0 = cands[rank1, 0]
                chosen[rank1] = np.where(c0 != t0, c0, cands[rank1, 1])
            rank2 = np.flatnonzero(rank == 2)
            if rank2.size:
                t0 = chosen[rank2 - 2]
                t1 = chosen[rank2 - 1]
                c0 = cands[rank2, 0]
                c1 = cands[rank2, 1]
                free0 = (c0 != t0) & (c0 != t1)
                free1 = ~free0 & (c1 != t0) & (c1 != t1)
                chosen[rank2] = np.where(
                    free0, c0, np.where(free1, c1, cands[rank2, 2]))
            if int(rank.max()) > 2 or (chosen < 0).any():
                row = int(ssw[int(rank.argmax())])
                raise NoCError(
                    f"{self._route_entries[row][1]}: no free output — "
                    f"switch radix violated")
            self.total_deflections += int((chosen != first).sum())
            new_pidx = pidx[sidx]
            new_slot = chosen
            new_dest = rdest
            new_age = rage[order]
            new_hops = rhops[order]
        else:
            empty = pidx[:0]
            new_pidx = new_slot = new_dest = empty
            new_age = new_hops = empty

        # Leaf injections, in _leaf_entries order exactly as the scalar
        # loop: switch outputs never target leaf up-links, so the slot
        # is always free.  A leaf with a fast-pathed bounce re-injects
        # that packet (it sits at the head of the scalar outbox) and
        # must not pop its own traffic this cycle; fresh injections and
        # bounce rows are merged by leaf position afterwards.
        cycle = self.cycle
        faults = self.faults
        inj: List[Tuple[int, int, int, int, int, int]] = []
        for leaf_no, iface, key, rel, outbox, pos in self._vleaf_entries:
            if leaf_no in bounced_leaves or not outbox:
                continue
            # Inlined pop_injection(): count it sent, pop the head.
            iface.sent += 1
            packet = outbox.popleft()
            if packet.injected_at < 0:
                packet.injected_at = cycle
            if rel:
                iface.note_transmitted(packet, cycle)
            if faults is not None:
                packet = self._inject_faults(packet, leaf_no)
                if packet is None:
                    continue
            inj.append((len(store), key, packet.dest_leaf,
                        packet.age, packet.hops, pos))
            store.append(packet)
        if inj or b_cols is not None:
            if inj:
                cols = tuple(zip(*inj))
                fresh = [np.asarray(c, np.int64) for c in cols]
                if b_cols is not None:
                    parts = [np.concatenate(bf)
                             for bf in zip(b_cols, fresh)]
                else:
                    parts = fresh
            else:
                parts = list(b_cols)
            if parts[5].size > 1:
                perm = np.argsort(parts[5], kind="stable")
                parts = [col[perm] for col in parts[:5]]
            new_pidx = np.concatenate([new_pidx, parts[0]])
            new_slot = np.concatenate([new_slot, parts[1]])
            new_dest = np.concatenate([new_dest, parts[2]])
            new_age = np.concatenate([new_age, parts[3]])
            new_hops = np.concatenate([new_hops, parts[4]])
        self._vpidx = new_pidx
        self._vslot = new_slot
        self._vdest = new_dest
        self._vage = new_age
        self._vhops = new_hops
        if len(store) > 1024 and len(store) > 8 * new_pidx.size:
            # Drop delivered packets from the store now and then so a
            # long run does not hold every packet ever injected.
            self._vstore = [store[i] for i in new_pidx.tolist()]
            self._vpidx = np.arange(len(self._vstore), dtype=np.int64)
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
            busy = self._has_in_flight()
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

    def _has_in_flight(self) -> bool:
        if self._vector:
            return self._vpidx.size > 0
        return bool(self._in_flight)

    def _in_flight_items(self) -> List[Tuple[int, Packet]]:
        """(slot id, packet) pairs for diagnostics, either router."""
        if self._vector:
            store = self._vstore
            return [(sid, store[p]) for sid, p in
                    zip(self._vslot.tolist(), self._vpidx.tolist())]
        return list(self._in_flight.items())

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
                     for sid, pkt in self._in_flight_items()),
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
