"""Leaf interfaces: the standard page-to-network adapter (Sec. 4.1, 4.3).

Every page talks to the linking network through an identical leaf
interface (~500 LUTs).  Outbound stream ports have *destination
configuration registers* holding the (leaf, port) each token should be
addressed to; the pre-linker sets them by sending control packets, so a
design can be re-linked — operators moved between pages, or swapped
between FPGA and softcore implementations — without recompiling any
page.  Inbound packets demultiplex by destination port into per-stream
FIFOs.

Reliable mode
-------------

A deployed overlay must survive in-flight corruption and loss.  With
``reliable=True`` the leaf adds a selective-repeat recovery layer on
top of the existing per-link sequence numbers:

* outbound data flits carry a payload CRC; a receiver silently drops
  any flit whose payload no longer matches (corruption becomes loss);
* the sender keeps every unacknowledged flit in a retransmission
  buffer; the receiver returns a per-flit :class:`AckPacket` for every
  data flit it accepts — including out-of-order and duplicate arrivals
  (so lost acks self-heal), which is what makes the scheme selective
  repeat: one lost flit never un-acknowledges the window behind it;
* the network simulator drives a per-flit timeout — an unacked flit is
  re-injected after ``retransmit_timeout`` cycles, up to
  ``max_retransmissions`` attempts, after which the link is declared
  broken with :class:`LinkTimeoutError`;
* the receive side detects sequence gaps with its reorder buffer and
  discards duplicates, so every stream's payloads are delivered exactly
  once, in order, whatever the loss/corruption pattern.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import LinkTimeoutError, NoCError
from repro.noc.packet import (
    AckPacket,
    ConfigPacket,
    DataPacket,
    Packet,
)


@dataclass(frozen=True)
class StreamBinding:
    """One output port's destination register value."""

    dest_leaf: int
    dest_port: int


class LeafInterface:
    """The network endpoint logic of one page.

    Args:
        leaf: leaf (page) number in the tree.
        n_ports: local stream ports (both directions share numbering).
        reliable: enable CRC + retransmission recovery (see module doc).
        retransmit_timeout: cycles an unacked flit waits before being
            re-injected (only meaningful with ``reliable=True``).
        max_retransmissions: retransmission budget per flit; exceeding
            it raises :class:`LinkTimeoutError`.
    """

    #: Register space offset distinguishing config from data ports.
    CONFIG_PORT_BASE = 128

    #: Register space offset for stream acknowledgements (reliable mode).
    ACK_PORT_BASE = 256

    def __init__(self, leaf: int, n_ports: int = 8,
                 reliable: bool = False, retransmit_timeout: int = 256,
                 max_retransmissions: int = 64):
        if n_ports < 1 or n_ports > LeafInterface.CONFIG_PORT_BASE:
            raise NoCError(f"leaf {leaf}: n_ports out of range")
        self.leaf = leaf
        self.n_ports = n_ports
        self.reliable = reliable
        self.retransmit_timeout = retransmit_timeout
        self.max_retransmissions = max_retransmissions
        self.bindings: Dict[int, StreamBinding] = {}
        self.outbox: Deque[Packet] = deque()
        self.inboxes: Dict[int, Deque[int]] = {
            port: deque() for port in range(n_ports)}
        # Stream-order restoration: deflection can reorder packets in
        # flight, so senders stamp per-link sequence numbers and the
        # receiving leaf holds early arrivals in a reorder buffer.
        self._tx_seq: Dict[int, int] = {}
        # Receive-side state is keyed by (port, source leaf) so that
        # even ill-formed many-to-one traffic cannot wedge the buffer.
        self._rx_expected: Dict[Tuple[int, int], int] = {}
        self._rx_pending: Dict[Tuple[int, int], Dict[int, int]] = {}
        # Retransmission state (reliable mode): per-port unacked flits
        # as (dest_leaf, dest_port, payload) templates, the cycle each
        # was last put on the wire, and how often it was resent.
        self._unacked: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        self._last_tx: Dict[Tuple[int, int], int] = {}
        self._retx_count: Dict[Tuple[int, int], int] = {}
        # Flits whose retransmission is already waiting in the outbox:
        # the timer must not enqueue further copies behind them.
        self._queued_retx: set = set()
        # Running total of unacked flits (O(1) has_unacked) and a lower
        # bound on the next cycle any flit's ack timeout can expire, so
        # the per-cycle timer call is O(1) until a scan is actually due.
        self._unacked_total = 0
        self._retx_deadline: Optional[int] = None
        self.bounced = 0
        self.sent = 0
        self.received = 0
        self.retransmissions = 0
        self.crc_dropped = 0
        self.duplicates_dropped = 0
        self.acks_sent = 0
        self.acks_received = 0

    # -- configuration ---------------------------------------------------

    def bind(self, out_port: int, dest_leaf: int, dest_port: int) -> None:
        """Directly set an output port's destination register."""
        self._check_port(out_port)
        self.bindings[out_port] = StreamBinding(dest_leaf, dest_port)

    def config_packet(self, out_port: int, dest_leaf: int,
                      dest_port: int) -> ConfigPacket:
        """Build the control packet that performs :meth:`bind` remotely."""
        self._check_port(out_port)
        return ConfigPacket(
            dest_leaf=self.leaf,
            dest_port=LeafInterface.CONFIG_PORT_BASE + out_port,
            payload=ConfigPacket.encode(dest_leaf, dest_port),
        )

    def _check_port(self, port: int) -> None:
        if not (0 <= port < self.n_ports):
            raise NoCError(f"leaf {self.leaf}: no port {port}")

    # -- traffic -----------------------------------------------------------

    def send(self, out_port: int, token: int) -> None:
        """Queue one token for the network using the port's binding."""
        self._check_port(out_port)
        binding = self.bindings.get(out_port)
        if binding is None:
            raise NoCError(
                f"leaf {self.leaf}: port {out_port} not linked; "
                f"did the pre-linker run?")
        seq = self._tx_seq.get(out_port, 0)
        self._tx_seq[out_port] = seq + 1
        packet = DataPacket(
            dest_leaf=binding.dest_leaf,
            dest_port=binding.dest_port,
            payload=token & 0xFFFFFFFF,
            src_leaf=self.leaf,
            src_port=out_port,
            seq=seq,
        )
        if self.reliable:
            packet.stamp_crc()
            self._unacked.setdefault(out_port, {})[seq] = (
                binding.dest_leaf, binding.dest_port, packet.payload)
            self._unacked_total += 1
        self.outbox.append(packet)

    def deliver(self, packet: Packet) -> Optional[Packet]:
        """Accept a packet from the network.

        Returns a packet to re-inject when this was a mis-deflected
        delivery (bounce), else None.
        """
        if packet.dest_leaf != self.leaf:
            # Deflection sent it down the wrong way: bounce it back.
            self.bounced += 1
            return packet
        if not packet.crc_ok():
            # Corrupted in flight: discard; the sender's retransmission
            # timer recovers the loss.
            self.crc_dropped += 1
            return None
        if packet.dest_port >= LeafInterface.ACK_PORT_BASE:
            self._accept_ack(packet)
            return None
        if packet.dest_port >= LeafInterface.CONFIG_PORT_BASE:
            port = packet.dest_port - LeafInterface.CONFIG_PORT_BASE
            self._check_port(port)
            leaf, dport = ConfigPacket.decode(packet.payload)
            self.bindings[port] = StreamBinding(leaf, dport)
        else:
            self._check_port(packet.dest_port)
            if not self._deliver_in_order(packet):
                return None           # duplicate: dropped (and re-acked)
        self.received += 1
        return None

    def _deliver_in_order(self, packet: Packet) -> bool:
        """Returns False when the packet was a duplicate (discarded)."""
        port = packet.dest_port
        if packet.seq < 0:
            self.inboxes[port].append(packet.payload)
            return True
        key = (port, packet.src_leaf)
        expected = self._rx_expected.get(key, 0)
        pending = self._rx_pending.setdefault(key, {})
        if self.reliable and (packet.seq < expected
                              or packet.seq in pending):
            # Retransmitted flit we already hold: the original ack was
            # lost (or slow); re-ack so the sender can purge it.
            self.duplicates_dropped += 1
            self._enqueue_ack(packet, packet.seq)
            return False
        if packet.seq == expected:
            self.inboxes[port].append(packet.payload)
            expected += 1
            while expected in pending:
                self.inboxes[port].append(pending.pop(expected))
                expected += 1
            self._rx_expected[key] = expected
        else:
            # Sequence gap: hold the early arrival in the reorder
            # buffer.  It is still acknowledged individually below, so
            # only the genuinely missing flits are ever resent.
            pending[packet.seq] = packet.payload
        if self.reliable:
            self._enqueue_ack(packet, packet.seq)
        return True

    def _enqueue_ack(self, packet: Packet, seq: int) -> None:
        if packet.src_leaf < 0 or packet.src_port < 0 or seq < 0:
            return
        ack = AckPacket(
            dest_leaf=packet.src_leaf,
            dest_port=LeafInterface.ACK_PORT_BASE + packet.src_port,
            payload=seq & 0xFFFFFFFF,
            src_leaf=self.leaf,
        ).stamp_crc()
        self.outbox.append(ack)
        self.acks_sent += 1

    def _accept_ack(self, packet: Packet) -> None:
        port = packet.dest_port - LeafInterface.ACK_PORT_BASE
        self._check_port(port)
        self.acks_received += 1
        seq = packet.payload
        unacked = self._unacked.get(port)
        if unacked is not None and seq in unacked:
            del unacked[seq]
            self._unacked_total -= 1
            self._last_tx.pop((port, seq), None)
            self._retx_count.pop((port, seq), None)
            self._queued_retx.discard((port, seq))

    # -- retransmission (driven by the network simulator's clock) ----------

    def note_transmitted(self, packet: Packet, cycle: int) -> None:
        """Record that a flit of ours went on the wire this cycle."""
        if (self.reliable and isinstance(packet, DataPacket)
                and packet.seq >= 0 and packet.src_leaf == self.leaf):
            self._last_tx[(packet.src_port, packet.seq)] = cycle
            self._queued_retx.discard((packet.src_port, packet.seq))
            deadline = cycle + self.retransmit_timeout
            if self._retx_deadline is None or deadline < self._retx_deadline:
                self._retx_deadline = deadline

    def has_unacked(self) -> bool:
        return self._unacked_total > 0

    def unacked_count(self) -> int:
        return self._unacked_total

    def service_retransmissions(self, cycle: int) -> int:
        """Re-inject flits whose ack timeout expired; returns how many.

        The scan over unacked flits only runs once the precomputed
        deadline (earliest possible expiry, maintained by
        :meth:`note_transmitted`) has passed; a timeout can only expire
        ``retransmit_timeout`` cycles after a transmission, so skipping
        earlier cycles is behaviour-preserving — those scans would have
        re-injected nothing.
        """
        if not self.reliable or self._unacked_total == 0:
            return 0
        if self._retx_deadline is None or cycle < self._retx_deadline:
            return 0
        resent = 0
        for port, seqs in self._unacked.items():
            for seq in sorted(seqs):
                last = self._last_tx.get((port, seq))
                if last is None or cycle - last < self.retransmit_timeout:
                    continue
                if (port, seq) in self._queued_retx:
                    continue          # a copy is already waiting to inject
                count = self._retx_count.get((port, seq), 0) + 1
                if count > self.max_retransmissions:
                    raise LinkTimeoutError(
                        f"leaf {self.leaf} port {port}: flit seq {seq} "
                        f"unacknowledged after {self.max_retransmissions} "
                        f"retransmissions; link is down",
                        leaf=self.leaf, port=port, seq=seq,
                        attempts=count)
                self._retx_count[(port, seq)] = count
                dest_leaf, dest_port, payload = seqs[seq]
                self.outbox.append(DataPacket(
                    dest_leaf=dest_leaf, dest_port=dest_port,
                    payload=payload, src_leaf=self.leaf, src_port=port,
                    seq=seq).stamp_crc())
                # The timer restarts when the copy actually hits the
                # wire (note_transmitted); until then _queued_retx
                # keeps this flit out of further timer rounds.
                self._queued_retx.add((port, seq))
                self.retransmissions += 1
                resent += 1
        # Recompute the earliest next expiry among flits still armed
        # (transmitted, not already waiting in the outbox as a queued
        # retransmission — those re-arm via note_transmitted).
        timeout = self.retransmit_timeout
        queued = self._queued_retx
        last_tx = self._last_tx
        deadline = None
        for port, seqs in self._unacked.items():
            for seq in seqs:
                if (port, seq) in queued:
                    continue
                last = last_tx.get((port, seq))
                if last is None:
                    continue
                due = last + timeout
                if deadline is None or due < deadline:
                    deadline = due
        self._retx_deadline = deadline
        return resent

    def pop_injection(self) -> Optional[Packet]:
        """Packet to put on the up-link this cycle, if any."""
        if self.outbox:
            self.sent += 1
            return self.outbox.popleft()
        return None

    def push_front(self, packet: Packet) -> None:
        """Put a bounced packet at the head of the injection queue."""
        self.outbox.appendleft(packet)

    def tokens(self, port: int) -> List[int]:
        """Drain and return the tokens delivered to an input port."""
        self._check_port(port)
        inbox = self.inboxes[port]
        out = list(inbox)
        inbox.clear()
        return out

    def __repr__(self) -> str:
        mode = ", reliable" if self.reliable else ""
        return (f"LeafInterface(leaf={self.leaf}, ports={self.n_ports}, "
                f"{len(self.bindings)} bound{mode})")
