"""Device model: resource totals, SLRs, and tile-grid geometry.

The placer and router work on a :class:`TileGrid` — a rectangular array
of *sites*, each accepting one placed cell of a matching kind.  Logic
sites are CLB clusters (64 LUTs = 8 slices, see :mod:`repro.pnr.pack`);
BRAM and DSP sites sit in dedicated columns inserted at irregular
intervals, like the real fabric, which is what makes equal-sized pages
impossible (Sec. 4.1) and yields the heterogeneous page types of Tab. 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import FabricError

#: LUTs per logic site (a cluster of 8 UltraScale+ slices).
SITE_LUTS = 64

#: FFs per logic site.
SITE_FFS = 128

#: Column pattern period: positions of BRAM/DSP columns inside it.
_COLUMN_PATTERN = ("L", "L", "L", "D", "L", "L", "B", "L", "L", "D",
                   "L", "L", "L", "B", "L", "L")


@dataclass(frozen=True)
class Site:
    """One placement site."""

    x: int
    y: int
    kind: str          # "SLICE" (cluster) | "BRAM" | "DSP" | "IO"


class TileGrid:
    """A rectangular fabric region with heterogeneous columns.

    Args:
        width: columns.
        height: rows.
        pattern: column-kind pattern, cycled across x; defaults to the
            device-wide mix.
        io_column: add an IO column at x=0 (region boundary interface).
    """

    def __init__(self, width: int, height: int,
                 pattern: Tuple[str, ...] = _COLUMN_PATTERN,
                 io_column: bool = True):
        if width < 2 or height < 1:
            raise FabricError(f"grid {width}x{height} too small")
        self.width = width
        self.height = height
        self._kinds: List[str] = []
        for x in range(width):
            if io_column and x == 0:
                self._kinds.append("IO")
            else:
                self._kinds.append(pattern[(x - 1) % len(pattern)])

    def column_kind(self, x: int) -> str:
        return self._kinds[x]

    _KIND_MAP = {"L": "SLICE", "B": "BRAM", "D": "DSP", "IO": "IO"}

    def site(self, x: int, y: int) -> Site:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise FabricError(f"site ({x},{y}) outside grid "
                              f"{self.width}x{self.height}")
        return Site(x, y, self._KIND_MAP[self._kinds[x]])

    def sites(self) -> Iterator[Site]:
        for x in range(self.width):
            for y in range(self.height):
                yield self.site(x, y)

    def sites_of_kind(self, kind: str) -> List[Site]:
        return [s for s in self.sites() if s.kind == kind]

    def capacity(self) -> Dict[str, int]:
        """Site counts by cell kind."""
        counts: Dict[str, int] = {"SLICE": 0, "BRAM": 0, "DSP": 0, "IO": 0}
        for x in range(self.width):
            counts[self._KIND_MAP[self._kinds[x]]] += self.height
        return counts

    @classmethod
    def for_resources(cls, luts: int, brams: int, dsps: int,
                      io_sites: int = 8) -> "TileGrid":
        """Build a near-square grid with at least the given resources.

        Used both for page regions (page budgets from Tab. 1) and the
        whole-device region (monolithic compiles).
        """
        logic_sites = max(1, math.ceil(luts / SITE_LUTS))
        total = logic_sites + brams + dsps
        height = max(4, int(math.sqrt(total)))
        # Columns needed per kind at this height:
        need = {"L": math.ceil(logic_sites / height),
                "B": math.ceil(brams / height) if brams else 0,
                "D": math.ceil(dsps / height) if dsps else 0}
        pattern: List[str] = []
        remaining = dict(need)
        # Interleave, keeping the irregular real-fabric flavour.
        while any(v > 0 for v in remaining.values()):
            for kind in ("L", "L", "L", "D", "L", "L", "B"):
                if remaining.get(kind, 0) > 0:
                    pattern.append(kind)
                    remaining[kind] -= 1
        width = len(pattern) + 1     # +1 for the IO column
        grid = cls.__new__(cls)
        grid.width = width
        grid.height = height
        grid._kinds = ["IO"] + pattern
        # IO column height may exceed io_sites; that's fine (spare sites).
        return grid


@dataclass(frozen=True)
class SLR:
    """One super logic region (die on the interposer)."""

    index: int
    luts: int
    brams: int
    dsps: int


@dataclass(frozen=True)
class Device:
    """A data-center FPGA.

    Resource totals are *post-shell*: what the developer can use once
    the vendor static region is subtracted, matching Sec. 7.1.
    """

    name: str
    luts: int
    ffs: int
    brams: int          # BRAM18 blocks
    dsps: int
    slrs: Tuple[SLR, ...]
    slr_crossing_penalty_ns: float = 1.5

    def grid(self) -> TileGrid:
        """Whole-device tile grid for monolithic place-and-route."""
        return TileGrid.for_resources(self.luts, self.brams, self.dsps)

    def fits(self, luts: int, brams: int, dsps: int) -> bool:
        return luts <= self.luts and brams <= self.brams and dsps <= self.dsps

    def slr_of_row(self, y: int, height: int) -> int:
        """Which SLR a grid row belongs to (rows split evenly)."""
        rows_per_slr = max(1, height // len(self.slrs))
        return min(len(self.slrs) - 1, y // rows_per_slr)


#: The Alveo U50's XCU50, post-shell (Sec. 7.1).
XCU50 = Device(
    name="xcu50",
    luts=751_793,
    ffs=1_503_586,
    brams=2_300,
    dsps=5_936,
    slrs=(
        SLR(0, 375_896, 1_150, 2_968),
        SLR(1, 375_897, 1_150, 2_968),
    ),
)

#: The Alveo U280's XCU280, post-shell: three SLRs, ~1.08M usable LUTs
#: (of 1,303,680 raw; the gen3x16 shell plus HBM/DDR controllers take
#: ~220k).  The scaling target for the 40-page overlay.
XCU280 = Device(
    name="xcu280",
    luts=1_080_000,
    ffs=2_160_000,
    brams=3_600,
    dsps=8_600,
    slrs=(
        SLR(0, 360_000, 1_200, 2_866),
        SLR(1, 360_000, 1_200, 2_867),
        SLR(2, 360_000, 1_200, 2_867),
    ),
)

#: The VU19P: four SLRs, ~3.8M usable LUTs (of 4,086,000 raw; a
#: prototyping part, so only a thin configuration shell is reserved).
#: The big-device stress target for the 80-page overlay — an order of
#: magnitude more pages than the paper's 22-page U50 floorplan.
XCVU19P = Device(
    name="xcvu19p",
    luts=3_800_000,
    ffs=7_600_000,
    brams=4_300,
    dsps=3_840,
    slrs=(
        SLR(0, 950_000, 1_075, 960),
        SLR(1, 950_000, 1_075, 960),
        SLR(2, 950_000, 1_075, 960),
        SLR(3, 950_000, 1_075, 960),
    ),
)
