"""Simulated-annealing placement (VPR-style).

Places packed cells onto matching sites of a :class:`TileGrid`,
minimising total half-perimeter wirelength (HPWL).  The anneal follows
the classic VPR recipe: moves per temperature proportional to
``N**(4/3)`` — the super-linear scaling the paper identifies as the
reason monolithic FPGA compiles are slow — with an adaptive temperature
update driven by the acceptance rate and a shrinking displacement
window.

Every move tentatively applies the swap and recomputes the affected
nets' HPWL over their pin lists; rejected moves revert it.

The placer reports a :class:`PlacerStats` with the number of move
evaluations performed; :mod:`repro.pnr.compile_model` converts that work
into modeled backend seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import PnRError
from repro.fabric.device import Site, TileGrid
from repro.pnr.pack import PackedNetlist

#: Move-per-temperature multiplier (VPR uses 10; scaled for wall time).
MOVES_PER_TEMP_FACTOR = 2.0

#: Anneal exponent: moves per temperature ~ factor * N**EXPONENT.
MOVES_EXPONENT = 4.0 / 3.0

#: Temperature schedule bounds.
MIN_TEMPERATURES = 8
MAX_TEMPERATURES = 60


@dataclass
class PlacerStats:
    """Work and quality metrics from one placement run."""

    cells: int = 0
    sites: int = 0
    moves_evaluated: int = 0
    moves_accepted: int = 0
    temperatures: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0

    @property
    def improvement(self) -> float:
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


@dataclass
class Placement:
    """A legal placement: cell index -> site."""

    grid: TileGrid
    locations: List[Site]
    stats: PlacerStats
    netlist: PackedNetlist

    def hpwl(self) -> float:
        """Total half-perimeter wirelength of all nets."""
        total = 0.0
        for net in self.netlist.nets:
            xs = [self.locations[p].x for p in net.pins]
            ys = [self.locations[p].y for p in net.pins]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total


def place(netlist: PackedNetlist, grid: TileGrid,
          seed: int = 1, effort: float = 1.0) -> Placement:
    """Anneal ``netlist`` onto ``grid``.

    Args:
        netlist: packed design.
        grid: target region (page grid or whole-device grid).
        seed: RNG seed (placements are reproducible).
        effort: scales moves per temperature; <1 for fast/dirty runs
            (used by unit tests), 1.0 for benchmark runs.

    Raises:
        PnRError: when some cell kind has more cells than sites.
    """
    return _Annealer(netlist, grid, seed, effort).run()


class _Annealer:
    def __init__(self, netlist: PackedNetlist, grid: TileGrid, seed: int,
                 effort: float):
        self.netlist = netlist
        self.grid = grid
        self.rng = random.Random(seed)
        self.effort = effort
        self.stats = PlacerStats(cells=netlist.size)
        # site pools by kind
        self.pools: Dict[str, List[Site]] = {
            kind: grid.sites_of_kind(kind)
            for kind in ("SLICE", "BRAM", "DSP", "IO")}
        self.stats.sites = sum(len(v) for v in self.pools.values())
        for kind in ("SLICE", "BRAM", "DSP", "IO"):
            need = netlist.count(kind)
            have = len(self.pools[kind])
            if need > have:
                raise PnRError(
                    f"{netlist.name}: {need} {kind} cells but only "
                    f"{have} sites in region")
        # nets touching each cell (indices into netlist.nets), deduped —
        # the cost bookkeeping always treated these as sets.
        cell_nets: List[List[int]] = [[] for _ in range(netlist.size)]
        for net_index, net in enumerate(netlist.nets):
            for pin in net.pins:
                cell_nets[pin].append(net_index)
        self.cell_nets: List[List[int]] = [
            list(dict.fromkeys(nets)) for nets in cell_nets]
        # Hot-loop mirrors of the netlist/pool structures: pin tuples per
        # net, cell kinds, and per-kind site coordinate arrays, so a move
        # evaluation indexes flat int lists instead of walking Site
        # objects.  Coordinates are ints, so every cost below is an int
        # and summation order cannot perturb results.
        self.net_pins: List[Tuple[int, ...]] = [
            tuple(net.pins) for net in netlist.nets]
        self.cell_kinds: List[str] = [c.kind for c in netlist.cells]
        self.pool_x: Dict[str, List[int]] = {
            kind: [s.x for s in pool] for kind, pool in self.pools.items()}
        self.pool_y: Dict[str, List[int]] = {
            kind: [s.y for s in pool] for kind, pool in self.pools.items()}
        self.height = grid.height
        # randrange(n) for a positive int n is exactly
        # _randbelow_with_getrandbits(n): draw n.bit_length() bits,
        # rejecting draws >= n.  Inlining that loop with precomputed
        # bit lengths consumes the identical getrandbits sequence while
        # skipping two Python calls on ~1e6 draws per compile.
        self._size = netlist.size
        self._size_bits = netlist.size.bit_length()
        self._kind_pools: Dict[str, Tuple[List[int], List[int], int, int]] = {
            kind: (self.pool_x[kind], self.pool_y[kind],
                   len(pool), len(pool).bit_length())
            for kind, pool in self.pools.items()}

    # -- cost bookkeeping ---------------------------------------------------

    def _net_hpwl(self, net_index: int) -> int:
        pins = self.net_pins[net_index]
        loc_x, loc_y = self.loc_x, self.loc_y
        xs = [loc_x[p] for p in pins]
        ys = [loc_y[p] for p in pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def _initial_placement(self) -> None:
        loc: List[Optional[Site]] = [None] * self.netlist.size
        order: Dict[str, List[int]] = {k: [] for k in self.pools}
        for index, cell in enumerate(self.netlist.cells):
            order[cell.kind].append(index)
        for kind, indices in order.items():
            pool = list(self.pools[kind])
            self.rng.shuffle(pool)
            for index, site in zip(indices, pool):
                loc[index] = site
        # Anneal state: flat coordinate arrays plus an occupancy map
        # keyed by the packed coordinate x*height + y (grid coordinates
        # are unique across kinds, as the (x, y)-keyed map before it
        # relied on too).
        self.loc_x = [site.x for site in loc]
        self.loc_y = [site.y for site in loc]
        height = self.height
        self.occupant: Dict[int, int] = {
            site.x * height + site.y: index
            for index, site in enumerate(loc)}

    # -- the anneal -------------------------------------------------------------

    def run(self) -> Placement:
        self._initial_placement()
        net_cost = [self._net_hpwl(i) for i in range(len(self.netlist.nets))]
        cost = sum(net_cost)
        self.stats.initial_cost = cost

        n = max(2, self.netlist.size)
        moves_per_temp = max(
            8, int(MOVES_PER_TEMP_FACTOR * self.effort
                   * n ** MOVES_EXPONENT))
        # Initial temperature: ~ std-dev of a quick random-move sample.
        temperature = max(1.0, cost / max(1, len(self.netlist.nets)) * 2)
        window = max(self.grid.width, self.grid.height)

        temperatures = 0
        try_move = self._try_move
        while temperatures < MAX_TEMPERATURES:
            accepted = 0
            for _ in range(moves_per_temp):
                delta = try_move(net_cost, temperature, window)
                if delta is not None:
                    cost += delta
                    accepted += 1
            self.stats.moves_evaluated += moves_per_temp
            self.stats.moves_accepted += accepted
            temperatures += 1
            rate = accepted / max(1, moves_per_temp)
            # VPR-style adaptive cooling.
            if rate > 0.96:
                temperature *= 0.5
            elif rate > 0.8:
                temperature *= 0.9
            elif rate > 0.15:
                temperature *= 0.95
            else:
                temperature *= 0.8
            window = max(2, int(window * (0.5 + rate)))
            if (temperatures >= MIN_TEMPERATURES
                    and rate < 0.02 and temperature < 0.005 * max(cost, 1)
                    / max(1, len(self.netlist.nets))):
                break
        self.stats.temperatures = temperatures
        self.stats.final_cost = cost
        site_at: Dict[Tuple[int, int], Site] = {}
        for pool in self.pools.values():
            for site in pool:
                site_at[(site.x, site.y)] = site
        locations = [site_at[(x, y)]
                     for x, y in zip(self.loc_x, self.loc_y)]
        return Placement(self.grid, locations, self.stats, self.netlist)

    def _try_move(self, net_cost: List[int], temperature: float,
                  window: int) -> Optional[int]:
        """Propose one swap/displace; returns accepted delta or None.

        This is the placer's innermost loop (hundreds of thousands of
        calls per compile), so the HPWL recomputation is inlined over
        the flat coordinate arrays.  The RNG draw sequence — one cell
        draw, up to four target draws, one acceptance draw for uphill
        moves — matches the original implementation exactly, as do the
        integer cost deltas, keeping placements reproducible across the
        rewrite (pinned by the P&R equivalence tests).
        """
        rng = self.rng
        getrandbits = rng.getrandbits
        size = self._size
        cell = getrandbits(self._size_bits)
        while cell >= size:
            cell = getrandbits(self._size_bits)
        pool_x, pool_y, n_pool, pool_bits = \
            self._kind_pools[self.cell_kinds[cell]]
        if n_pool < 2:
            return None
        loc_x, loc_y = self.loc_x, self.loc_y
        sx = loc_x[cell]
        sy = loc_y[cell]
        for _ in range(4):   # find a target inside the window
            j = getrandbits(pool_bits)
            while j >= n_pool:
                j = getrandbits(pool_bits)
            tx = pool_x[j]
            ty = pool_y[j]
            if (-window <= tx - sx <= window
                    and -window <= ty - sy <= window
                    and (tx != sx or ty != sy)):
                break
        else:
            return None
        height = self.height
        occupant = self.occupant
        skey = sx * height + sy
        tkey = tx * height + ty
        other = occupant.get(tkey)

        cell_nets = self.cell_nets
        if other is not None:
            merged = set(cell_nets[cell])
            merged.update(cell_nets[other])
            affected: List[int] = list(merged)
        else:
            affected = cell_nets[cell]
        before = 0
        for i in affected:
            before += net_cost[i]

        # tentatively apply
        loc_x[cell] = tx
        loc_y[cell] = ty
        occupant[tkey] = cell
        if other is not None:
            loc_x[other] = sx
            loc_y[other] = sy
            occupant[skey] = other
        else:
            del occupant[skey]

        net_pins = self.net_pins
        after: List[int] = []
        total_after = 0
        for i in affected:
            pins = net_pins[i]
            if len(pins) == 2:
                a, b = pins
                ax, bx = loc_x[a], loc_x[b]
                ay, by = loc_y[a], loc_y[b]
                value = ((ax - bx if ax >= bx else bx - ax)
                         + (ay - by if ay >= by else by - ay))
            else:
                xs = [loc_x[p] for p in pins]
                ys = [loc_y[p] for p in pins]
                value = (max(xs) - min(xs)) + (max(ys) - min(ys))
            after.append(value)
            total_after += value
        delta = total_after - before
        if delta <= 0 or rng.random() < math.exp(
                -delta / max(temperature, 1e-9)):
            for i, value in zip(affected, after):
                net_cost[i] = value
            return delta
        # revert
        loc_x[cell] = sx
        loc_y[cell] = sy
        occupant[skey] = cell
        if other is not None:
            loc_x[other] = tx
            loc_y[other] = ty
            occupant[tkey] = other
        else:
            del occupant[tkey]
        return None
