"""Calibrated compile-time model: algorithm work -> Vivado-scale seconds.

The reproduction actually *runs* packing, annealing placement and
PathFinder routing on every design, so the super-linear scaling of
Tab. 2 emerges from measured algorithmic work (move evaluations, node
expansions).  This module converts that work — plus design size for the
HLS/synthesis/bitgen stages that we model analytically — into seconds on
the paper's Google-Cloud Xeon nodes.  Constants were calibrated so the
six Rosetta benchmarks land in Tab. 2's ranges:

* Vitis/-O3 monolithic: ~4,000–6,600 s total, p&r roughly half;
* -O1 per-page compiles: ~300–600 s p&r, 600–1,200 s total;
* -O0 RISC-V compiles: ~1–4 s.

Absolute seconds are a model; the measured work ratios (page vs.
monolithic) are real and drive the relative speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.device import TileGrid
from repro.hls.netlist import Netlist
from repro.pnr.pack import PackedNetlist, pack_netlist
from repro.pnr.placer import Placement, place
from repro.pnr.router import RoutingResult, route
from repro.pnr.timing import TimingReport, analyze_timing


@dataclass(frozen=True)
class StageTimes:
    """Modeled seconds per compile stage (one Tab. 2 row fragment)."""

    hls: float = 0.0
    syn: float = 0.0
    pnr: float = 0.0
    bit: float = 0.0

    @property
    def total(self) -> float:
        return self.hls + self.syn + self.pnr + self.bit

    def __add__(self, other: "StageTimes") -> "StageTimes":
        return StageTimes(self.hls + other.hls, self.syn + other.syn,
                          self.pnr + other.pnr, self.bit + other.bit)

    def merged_parallel(self, other: "StageTimes") -> "StageTimes":
        """Stage-wise max: jobs running concurrently."""
        return StageTimes(max(self.hls, other.hls),
                          max(self.syn, other.syn),
                          max(self.pnr, other.pnr),
                          max(self.bit, other.bit))

    def scaled(self, factor: float) -> "StageTimes":
        """All stages multiplied (e.g. a job retried ``factor`` times)."""
        return StageTimes(self.hls * factor, self.syn * factor,
                          self.pnr * factor, self.bit * factor)


@dataclass(frozen=True)
class CompileTimeModel:
    """Calibration constants for the backend-time conversion."""

    # HLS (C -> RTL): per-IR-instruction cost plus tool startup.
    hls_base_s: float = 8.0
    hls_per_instr_s: float = 0.35
    # Logic synthesis: startup (shell/netlist load) + per-LUT work.
    syn_base_s: float = 85.0
    syn_monolithic_base_s: float = 1_050.0
    syn_per_lut_s: float = 0.022
    # Place & route: startup + context load + measured work conversion.
    pnr_base_s: float = 190.0
    pnr_monolithic_base_s: float = 420.0
    pnr_per_context_lut_s: float = 2.0e-3
    pnr_per_move_s: float = 5.0e-4
    pnr_per_expansion_s: float = 2.0e-4
    # Bitstream generation: per covered LUT of fabric area.
    bit_base_s: float = 92.0
    bit_monolithic_base_s: float = 560.0
    bit_per_lut_s: float = 2.2e-3
    # RISC-V cross-compiler (-O0): per IR instruction.
    riscv_base_s: float = 0.6
    riscv_per_instr_s: float = 0.004
    # Thread-count scaling exponent (Amdahl-ish diminishing returns).
    thread_exponent: float = 0.35

    def _thread_factor(self, threads: int) -> float:
        return max(1, threads) ** self.thread_exponent

    # -- analytic stages ---------------------------------------------------

    def hls_seconds(self, ir_instructions: int, threads: int = 8) -> float:
        """C-to-RTL time for one operator (or one monolithic kernel)."""
        raw = self.hls_base_s + self.hls_per_instr_s * ir_instructions
        return raw / self._thread_factor(threads)

    def syn_seconds(self, luts: int, threads: int = 8,
                    monolithic: bool = False) -> float:
        base = self.syn_monolithic_base_s if monolithic else self.syn_base_s
        return base + self.syn_per_lut_s * luts / self._thread_factor(threads)

    def pnr_seconds(self, moves: int, expansions: int, context_luts: int,
                    threads: int = 8, monolithic: bool = False) -> float:
        base = (self.pnr_monolithic_base_s if monolithic
                else self.pnr_base_s)
        work = (self.pnr_per_move_s * moves
                + self.pnr_per_expansion_s * expansions)
        return (base + self.pnr_per_context_lut_s * context_luts
                + work / self._thread_factor(threads))

    def bit_seconds(self, covered_luts: int,
                    monolithic: bool = False) -> float:
        base = self.bit_monolithic_base_s if monolithic else self.bit_base_s
        return base + self.bit_per_lut_s * covered_luts * (
            0.1 if not monolithic else 0.25)

    def riscv_seconds(self, ir_instructions: int) -> float:
        """-O0 cross-compile time for one operator."""
        return self.riscv_base_s + self.riscv_per_instr_s * ir_instructions


#: Default calibration used by the flows and benchmarks.
DEFAULT_MODEL = CompileTimeModel()


@dataclass
class ImplementationResult:
    """Everything produced by one place-and-route run."""

    packed: PackedNetlist
    placement: Placement
    routing: RoutingResult
    timing: TimingReport
    pnr_seconds: float
    wall_seconds: float


def implement_design(netlist: Netlist, grid: TileGrid, *,
                     context_luts: int,
                     threads: int = 8,
                     monolithic: bool = False,
                     seed: int = 1,
                     effort: float = 1.0,
                     channel_capacity: int = 16,
                     route_iterations: int = 24,
                     model: CompileTimeModel = DEFAULT_MODEL,
                     spans_slrs: bool = False) -> ImplementationResult:
    """Pack, place, route and time one design; model its backend cost.

    Args:
        netlist: synthesized design.
        grid: target region grid (page or device).
        context_luts: surrounding logic the backend must load (abstract
            shell boundary vs. full overlay vs. full device).
        threads: backend thread count (30 monolithic / 8 per page in
            the paper's cluster, Sec. 7.1).
        monolithic: use the monolithic-startup constants.
        seed: placement RNG seed.
        effort: annealing effort knob (tests use < 1).
        channel_capacity: routing wires per grid cell.
        model: calibration constants.
        spans_slrs: whether timing should look for SLR crossings.
    """
    import time

    start = time.perf_counter()
    packed = pack_netlist(netlist)
    placement = place(packed, grid, seed=seed, effort=effort)
    routing = route(placement, channel_capacity=channel_capacity,
                    max_iterations=route_iterations)
    timing = analyze_timing(placement, routing, spans_slrs=spans_slrs)
    wall = time.perf_counter() - start

    # Normalise the measured annealing work to effort 1.0, so the
    # modeled backend seconds reflect the problem size, not the
    # wall-time knob a test or bench happened to use.
    normalised_moves = int(placement.stats.moves_evaluated
                           / max(effort, 1e-6))
    modeled = model.pnr_seconds(normalised_moves,
                                routing.node_expansions, context_luts,
                                threads=threads, monolithic=monolithic)
    return ImplementationResult(packed, placement, routing, timing,
                                pnr_seconds=modeled, wall_seconds=wall)
