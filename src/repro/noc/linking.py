"""Software linking: wiring separately compiled pages together (Sec. 4.3).

The pre-linker/loader (``pld``) turns a dataflow graph plus a
page-assignment into leaf-interface configuration: each operator output
port gets a local port index on its page's leaf, and its destination
register is pointed at the consumer's (leaf, port).  The whole link step
is a handful of control packets per page — this is why re-linking takes
seconds while recompiling takes minutes.

External graph ports bind to the DMA interface leaf (leaf 0), which the
host drives through the platform layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NoCError
from repro.dataflow.graph import DataflowGraph
from repro.noc.leaf import LeafInterface
from repro.noc.packet import ConfigPacket

#: Leaf number reserved for the DMA engine / host interface.
INTERFACE_LEAF = 0


@dataclass(frozen=True)
class PortAddress:
    """A (leaf, local port) pair on the network."""

    leaf: int
    port: int


@dataclass
class LinkConfiguration:
    """The linking plan for one application.

    Attributes:
        graph_name: application name.
        leaf_of: operator -> leaf number.
        out_ports: (operator, port) -> local output index on its leaf.
        in_ports: (operator, port) -> local input index on its leaf.
        bindings: (src leaf, src out port) -> destination address.
        external_in: graph input name -> consumer address.
        external_out: graph output name -> local port on the interface
            leaf where results arrive.
    """

    graph_name: str
    leaf_of: Dict[str, int] = field(default_factory=dict)
    out_ports: Dict[Tuple[str, str], int] = field(default_factory=dict)
    in_ports: Dict[Tuple[str, str], int] = field(default_factory=dict)
    bindings: Dict[Tuple[int, int], PortAddress] = field(default_factory=dict)
    external_in: Dict[str, PortAddress] = field(default_factory=dict)
    external_out: Dict[str, int] = field(default_factory=dict)

    def config_packets(self) -> List[ConfigPacket]:
        """Control packets that install every binding."""
        packets = []
        for (leaf, out_port), dest in sorted(self.bindings.items()):
            packets.append(ConfigPacket(
                dest_leaf=leaf,
                dest_port=LeafInterface.CONFIG_PORT_BASE + out_port,
                payload=ConfigPacket.encode(dest.leaf, dest.port),
            ))
        return packets

    def apply_direct(self, leaves: Dict[int, LeafInterface]) -> None:
        """Install bindings directly (host backdoor, used in tests)."""
        for (leaf, out_port), dest in self.bindings.items():
            leaves[leaf].bind(out_port, dest.leaf, dest.port)

    def diff(self, other: Optional["LinkConfiguration"]
             ) -> Dict[Tuple[int, int], PortAddress]:
        """Bindings of this configuration that differ from ``other``.

        Returns the (src leaf, src port) -> destination entries that are
        new or changed relative to ``other`` (all of them when ``other``
        is None).  Bindings only present in ``other`` are not reported:
        a stale destination register on an untouched leaf is harmless —
        nothing produces into it any more.
        """
        changed: Dict[Tuple[int, int], PortAddress] = {}
        for key, dest in self.bindings.items():
            if other is None or other.bindings.get(key) != dest:
                changed[key] = dest
        return changed

    def delta_config_packets(self, reloaded_leaves,
                             previous: Optional["LinkConfiguration"] = None
                             ) -> List[ConfigPacket]:
        """Packets for a delta relink after partial reconfiguration.

        Reloading a page wipes that leaf's output-destination registers,
        so every binding whose *source* leaf was reloaded must be
        resent; bindings into a reloaded page live in the producers'
        registers and stay resident.  On top of that, any binding that
        changed relative to ``previous`` (a remap, a new link) is sent
        regardless of which leaf it lives on.  This is the seconds-scale
        relink of Sec. 4.3 shrunk further: for a one-operator edit the
        burst is just that operator's output bindings.
        """
        reloaded = set(reloaded_leaves)
        changed = self.diff(previous)
        packets = []
        for (leaf, out_port), dest in sorted(self.bindings.items()):
            if leaf in reloaded or (leaf, out_port) in changed:
                packets.append(ConfigPacket(
                    dest_leaf=leaf,
                    dest_port=LeafInterface.CONFIG_PORT_BASE + out_port,
                    payload=ConfigPacket.encode(dest.leaf, dest.port),
                ))
        return packets


def build_link_configuration(graph: DataflowGraph,
                             page_of: Dict[str, int],
                             interface_leaf: int = INTERFACE_LEAF
                             ) -> LinkConfiguration:
    """Run the pre-linker: allocate local ports and destination bindings.

    Args:
        graph: validated dataflow graph.
        page_of: operator name -> page number (page numbers are leaf
            numbers; the interface leaf is reserved).

    Raises:
        NoCError: missing assignments, or two operators on one page.
    """
    graph.validate()
    missing = set(graph.operators) - set(page_of)
    if missing:
        raise NoCError(f"no page assignment for: {sorted(missing)}")
    used: Dict[int, str] = {}
    for op, page in page_of.items():
        if page == interface_leaf:
            raise NoCError(
                f"operator {op!r} assigned to the interface leaf")
        if page in used:
            raise NoCError(
                f"operators {used[page]!r} and {op!r} both on page {page}")
        used[page] = op

    config = LinkConfiguration(graph.name, leaf_of=dict(page_of))

    # Local port allocation, per leaf, in declaration order.
    for name, op in graph.operators.items():
        for index, port in enumerate(op.outputs):
            config.out_ports[(name, port)] = index
        for index, port in enumerate(op.inputs):
            config.in_ports[(name, port)] = index

    # Internal links: producer out-port register -> consumer in-port.
    for link in graph.links.values():
        src_leaf = page_of[link.source.operator]
        src_port = config.out_ports[(link.source.operator,
                                     link.source.name)]
        dst = PortAddress(page_of[link.sink.operator],
                          config.in_ports[(link.sink.operator,
                                           link.sink.name)])
        config.bindings[(src_leaf, src_port)] = dst

    # External inputs: DMA interface sends into consumer ports; the
    # interface leaf allocates one local out-port per external input.
    for index, (name, ext) in enumerate(
            sorted(graph.external_inputs.items())):
        dst = PortAddress(page_of[ext.inner.operator],
                          config.in_ports[(ext.inner.operator,
                                           ext.inner.name)])
        config.external_in[name] = dst
        config.bindings[(interface_leaf, index)] = dst

    # External outputs: producer out-ports point at the interface leaf.
    for index, (name, ext) in enumerate(
            sorted(graph.external_outputs.items())):
        src_leaf = page_of[ext.inner.operator]
        src_port = config.out_ports[(ext.inner.operator, ext.inner.name)]
        config.bindings[(src_leaf, src_port)] = PortAddress(interface_leaf,
                                                            index)
        config.external_out[name] = index
    return config
