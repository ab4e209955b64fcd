"""Netlist generation: the synthesis hand-off to place-and-route.

Real synthesis lowers RTL to hundreds of thousands of primitive cells.
For placement/routing purposes what matters is the *instance count*,
*resource mix* and *connectivity locality* of the netlist, not gate
function — so :func:`synthesize_netlist` manufactures a cell-level
netlist whose statistics follow the resource estimate:

* LUT+FF logic is clustered into SLICE cells (8 LUTs / 16 FFs each,
  UltraScale+ style);
* each DSP and BRAM18 becomes its own cell (they bind to dedicated
  columns during placement);
* connectivity follows a Rent-style pattern: mostly-local chains with a
  deterministic sprinkling of longer-range nets, seeded by the operator
  name so builds are reproducible.

The paper's headline scaling claim — place-and-route effort grows
super-linearly with instance count — is then exercised by the actual
annealer/router in :mod:`repro.pnr` running on these netlists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.hls.estimate import ResourceEstimate

#: LUTs per SLICE cell (UltraScale+ CLB half).
SLICE_LUTS = 8

#: FFs per SLICE cell.
SLICE_FFS = 16

#: Average extra (non-chain) nets per cell.
RENT_EXTRA_NETS = 0.4

#: Fraction of extra nets that are long-range.
LONG_RANGE_FRACTION = 0.25


@dataclass(frozen=True)
class Cell:
    """One placeable instance."""

    name: str
    kind: str            # "SLICE" | "DSP" | "BRAM" | "IO"


@dataclass
class Net:
    """A multi-pin connection between cells (by index)."""

    name: str
    pins: List[int]


@dataclass
class Netlist:
    """A synthesized design ready for place and route."""

    name: str
    cells: List[Cell] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.cells)

    def count(self, kind: str) -> int:
        return sum(1 for c in self.cells if c.kind == kind)

    def resource_demand(self) -> ResourceEstimate:
        """Resources this netlist occupies once placed."""
        slices = self.count("SLICE")
        return ResourceEstimate(
            luts=slices * SLICE_LUTS,
            ffs=slices * SLICE_FFS,
            brams=self.count("BRAM"),
            dsps=self.count("DSP"),
        )

    def merged_with(self, other: "Netlist", bridge_nets: int = 4
                    ) -> "Netlist":
        """Union of two netlists with a few nets stitching them together.

        Used by the -O3 monolithic flow, which links operators with
        hardware FIFO streams at the Verilog level (Sec. 6.3).
        """
        merged = Netlist(f"{self.name}+{other.name}")
        merged.cells = list(self.cells) + list(other.cells)
        offset = len(self.cells)
        merged.nets = [Net(n.name, list(n.pins)) for n in self.nets]
        merged.nets += [Net(f"{other.name}.{n.name}",
                            [p + offset for p in n.pins])
                        for n in other.nets]
        rng = random.Random(_seed_for(merged.name))
        for i in range(bridge_nets):
            if not self.cells or not other.cells:
                break
            a = rng.randrange(len(self.cells))
            b = offset + rng.randrange(len(other.cells))
            merged.nets.append(Net(f"bridge{i}", [a, b]))
        return merged


def _seed_for(name: str) -> int:
    digest = hashlib.sha256(name.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def synthesize_netlist(name: str, estimate: ResourceEstimate,
                       n_ports: int = 2,
                       seed: Optional[int] = None) -> Netlist:
    """Manufacture a netlist matching a resource estimate.

    Args:
        name: design name (also seeds connectivity).
        estimate: post-synthesis resource estimate to match.
        n_ports: stream ports; each becomes an IO cell.
        seed: connectivity seed override (defaults to a hash of name).
    """
    rng = random.Random(_seed_for(name) if seed is None else seed)
    netlist = Netlist(name)

    n_slices = max(1, -(-estimate.luts // SLICE_LUTS))   # ceil div
    for i in range(n_slices):
        netlist.cells.append(Cell(f"slice_{i}", "SLICE"))
    for i in range(estimate.dsps):
        netlist.cells.append(Cell(f"dsp_{i}", "DSP"))
    for i in range(estimate.brams):
        netlist.cells.append(Cell(f"bram_{i}", "BRAM"))
    for i in range(max(1, n_ports)):
        netlist.cells.append(Cell(f"io_{i}", "IO"))

    total = len(netlist.cells)
    # Local chain: cell i talks to cell i+1 (datapath locality).
    for i in range(total - 1):
        netlist.nets.append(Net(f"chain_{i}", [i, i + 1]))
    # Rent-style extras: short hops plus a few long-range nets.
    extras = int(total * RENT_EXTRA_NETS)
    for i in range(extras):
        a = rng.randrange(total)
        if rng.random() < LONG_RANGE_FRACTION:
            b = rng.randrange(total)
        else:
            b = min(total - 1, max(0, a + rng.randint(-8, 8)))
        if a == b:
            b = (b + 1) % total
        fanout = [a, b]
        if rng.random() < 0.3:                       # occasional 3-pin net
            fanout.append(rng.randrange(total))
        netlist.nets.append(Net(f"rent_{i}", sorted(set(fanout))))
    # Hook the IO cells to the logic near the chain ends.
    io_start = total - max(1, n_ports)
    for j, io_index in enumerate(range(io_start, total)):
        anchor = rng.randrange(max(1, io_start))
        netlist.nets.append(Net(f"ionet_{j}", [io_index, anchor]))
    return netlist
