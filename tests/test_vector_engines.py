"""Fast-path equivalence and big-device scaling tests.

The softcore ISS dispatches through a basic-block cache except while
an injected trap is armed.  The contract is **bit identity** with the
single-step path — same cycles, same architectural state, under any
seed.  These tests sweep that contract with hypothesis (swapping the
ISS block stepper for :meth:`PicoRV32.step`, so the same fixture runs
both ways) and pin the scaled multi-SLR fabrics (U280, VU19P) with
content digests, a NoC drain on the U280 overlay's network and an -O1
compile-and-run of digit-recognition on each.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import FabricError, NoCError
from repro.fabric import (Overlay, XCU50, XCU280, XCVU19P,
                          scaled_floorplan)
from repro.noc.bft import BFTopology
from repro.noc.leaf import LeafInterface
from repro.noc.netsim import NetworkSimulator
from repro.softcore import PicoRV32, assemble, encode
from repro.softcore.isa import Instruction


def _sha16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# softcore ISS: single-step vs basic-block cache
# --------------------------------------------------------------------------


def _iss_spec(tokens: int):
    from repro.hls import OperatorBuilder

    b = OperatorBuilder("vmix", inputs=[("a", 32), ("b", 32)],
                        outputs=[("o", 32)])
    with b.loop("L", tokens, pipeline=True):
        x = b.read("a")
        y = b.read("b")
        s = b.add(x, y)
        d = b.sub(x, y)
        p = b.mul(b.cast(x, 16), b.cast(y, 16))
        q = b.div(x, b.or_(y, 1))
        r = b.mod(x, b.or_(y, 3))
        b.write("o", b.cast(b.xor(b.and_(s, d), b.add(b.or_(p, q), r)),
                            32))
    return b.build()


def _iss_observables(spec, inputs, single_step: bool) -> Dict:
    """Run ``spec`` on the ISS as a dataflow operator; ``single_step``
    swaps the block stepper for :meth:`PicoRV32.step`."""
    from repro.dataflow import DataflowGraph, Operator, run_graph
    from repro.softcore import compile_operator

    compiled = compile_operator(spec)
    telemetry: Dict[str, object] = {}
    op = Operator(spec.name, compiled.make_body(telemetry=telemetry),
                  spec.input_ports, spec.output_ports)
    g = DataflowGraph(f"eq_{spec.name}")
    g.add(op)
    for port in spec.input_ports:
        g.expose_input(port, f"{spec.name}.{port}")
    for port in spec.output_ports:
        g.expose_output(port, f"{spec.name}.{port}")
    with pytest.MonkeyPatch.context() as mp:
        if single_step:
            mp.setattr(PicoRV32, "_step_block", PicoRV32.step)
        outputs = run_graph(g, inputs)
    cpu = telemetry[spec.name]
    return {"outputs": outputs,
            "cycles": cpu.cycles,
            "retired": cpu.instructions_retired,
            "regs": list(cpu.regs),
            "pc": cpu.pc}


#: Random loop programs: operands in x0..x8 (x0 included, so writes to
#: it are exercised); x9 counts iterations, x10 points at a data area
#: and x11 holds the word a "patch" op stores over a loop-body op.
_ALU_R = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
          "and", "mul", "mulh", "mulhu", "div", "remu")
_ALU_I = ("addi", "slti", "sltiu", "xori", "ori", "andi")
_REG = st.integers(min_value=0, max_value=8)
_IMM = st.integers(min_value=-2048, max_value=2047)
_DATA_BASE = 0x400
_BODY_OP = st.one_of(
    st.tuples(st.sampled_from(_ALU_R), _REG, _REG, _REG),
    st.tuples(st.sampled_from(_ALU_I), _REG, _REG, _IMM),
    st.tuples(st.sampled_from(("lw", "sw")), _REG,
              st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("patch"), st.integers(min_value=0, max_value=63)),
)


def _loop_program(values, iterations: int, body, patch: Instruction
                  ) -> bytes:
    prologue = [("li", reg, value) for reg, value in enumerate(values, 1)]
    prologue += [("li", 10, _DATA_BASE), ("li", 11, encode(patch)),
                 ("li", 9, iterations), "top:"]
    head = len(assemble(prologue))
    ops = []
    for op in body:
        if op[0] == "patch":
            # Every body op is one instruction, so op k sits at 4k.
            ops.append(("sw", 11, 0, head + 4 * (op[1] % len(body))))
        elif op[0] in ("lw", "sw"):
            ops.append((op[0], op[1], 10, 4 * op[2]))
        else:
            ops.append(op)
    return assemble(prologue + ops + [("addi", 9, 9, -1),
                                      ("bne", 9, 0, "top"), ("ebreak",)])


def _cpu_state(cpu: PicoRV32):
    return (list(cpu.regs), cpu.pc, cpu.cycles, cpu.instructions_retired,
            bytes(cpu.memory))


class TestISSEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                           min_size=8, max_size=8),
           iterations=st.integers(min_value=1, max_value=4),
           body=st.lists(_BODY_OP, min_size=1, max_size=12),
           patch_rd=st.integers(min_value=1, max_value=8),
           patch_imm=_IMM)
    # A write to x0 heading the loop's block, then a read of x0.
    @example(values=[5] * 8, iterations=2,
             body=[("addi", 0, 1, 1), ("add", 2, 0, 0)],
             patch_rd=1, patch_imm=0)
    # A store over the next, not yet executed op of the same block.
    @example(values=[0] * 8, iterations=1,
             body=[("patch", 1), ("patch", 0)], patch_rd=1, patch_imm=0)
    def test_standalone_programs_bit_identical(self, values, iterations,
                                               body, patch_rd, patch_imm):
        """Random loops — x0 writes, loads, stores and stores over the
        loop's own code — leave the same state under :meth:`step` as
        under the block cache."""
        code = _loop_program(values, iterations, body,
                             Instruction("addi", rd=patch_rd, rs1=patch_rd,
                                         imm=patch_imm))
        budget = 10_000     # far above any generated program's length
        stepped = PicoRV32()
        stepped.load_image(code)
        while not stepped.halted:
            assert stepped.instructions_retired < budget
            assert stepped.step() is None
        blocked = PicoRV32()
        blocked.load_image(code)
        blocked.run(max_instructions=budget)
        assert _cpu_state(stepped) == _cpu_state(blocked)

    @settings(max_examples=12, deadline=None)
    @given(data=st.lists(
        st.tuples(st.integers(min_value=0, max_value=0xFFFFFFFF),
                  st.integers(min_value=0, max_value=0xFFFFFFFF)),
        min_size=1, max_size=6))
    def test_architectural_state_bit_identical(self, data):
        spec = _iss_spec(len(data))
        inputs = {"a": [a for a, _ in data], "b": [b for _, b in data]}
        stepped = _iss_observables(spec, inputs, single_step=True)
        blocked = _iss_observables(spec, inputs, single_step=False)
        assert stepped == blocked
        assert len(stepped["outputs"]["o"]) == len(data)


# --------------------------------------------------------------------------
# scaled fabrics: U280 / VU19P
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def u50_digit_run():
    """digit-recognition and its -O1 outputs on the default U50 overlay."""
    from repro.core import BuildEngine, O1Flow
    from repro.rosetta import get_app

    app = get_app("digit-recognition")
    build = O1Flow(effort=0.1).compile(app.project, BuildEngine())
    return app, build.execute(app.project.sample_inputs)


class TestScaledFabrics:
    def test_u280_floorplan_pinned(self):
        overlay = Overlay.for_device(XCU280)
        plan = [(p.number, p.page_type.name, p.page_type.luts,
                 p.page_type.ffs, p.page_type.brams, p.page_type.dsps,
                 p.slr) for p in overlay.pages]
        assert len(plan) == 40
        assert _sha16(plan) == "d979ce7d3a0c36c6"

    def test_vu19p_floorplan_pinned(self):
        overlay = Overlay.for_device(XCVU19P)
        plan = [(p.number, p.page_type.name, p.page_type.luts,
                 p.page_type.ffs, p.page_type.brams, p.page_type.dsps,
                 p.slr) for p in overlay.pages]
        assert len(plan) == 80
        assert _sha16(plan) == "f113107a1e39a3f1"

    def test_vu19p_pages_bigger_but_ram_lean(self):
        # Eq. 1: bigger devices amortise per-page interface overhead,
        # so the VU19P floorplan picks *larger* pages; its BRAM budget
        # is proportionally tighter than the U50's, so pages carry
        # fewer RAMs.
        u50 = Overlay().pages[0].page_type
        vu = Overlay.for_device(XCVU19P).pages[0].page_type
        assert vu.luts > u50.luts
        assert vu.brams < u50.brams

    def test_floorplans_fit_their_device(self):
        for device in (XCU280, XCVU19P):
            overlay = Overlay.for_device(device)
            total = overlay.total_page_resources()
            assert device.fits(total.luts, total.brams, total.dsps)

    def test_slrs_contiguous_and_complete(self):
        for device in (XCU280, XCVU19P):
            slrs = [p.slr for p in Overlay.for_device(device).pages]
            assert slrs == sorted(slrs)
            assert set(slrs) == set(range(len(device.slrs)))

    def test_for_device_u50_is_default_overlay(self):
        assert Overlay.for_device(XCU50).name == Overlay().name

    def test_for_device_unknown_needs_page_count(self):
        from repro.fabric.device import Device, SLR
        mystery = Device(name="mystery", luts=500_000, ffs=1_000_000,
                         brams=1_000, dsps=1_000,
                         slrs=(SLR(0, 500_000, 1_000, 1_000),))
        with pytest.raises(FabricError):
            Overlay.for_device(mystery)
        overlay = Overlay.for_device(mystery, n_pages=10)
        assert len(overlay.pages) == 10

    def test_scaled_floorplan_rejects_tiny_page_count(self):
        with pytest.raises(FabricError):
            scaled_floorplan(XCU280, 1)

    @pytest.mark.parametrize("device,makespan", [
        (XCU280, 466.73290199690257), (XCVU19P, 469.6128522551573)],
        ids=["XCU280", "XCVU19P"])
    def test_o1_compiles_and_runs_on_scaled_overlay(self, u50_digit_run,
                                                    device, makespan):
        # -O1 end to end on the multi-SLR fabrics: the design computes
        # what the default U50 build computes, and the modeled Tab. 2
        # makespan is pinned.
        from repro.core import BuildEngine, O1Flow

        app, u50_outputs = u50_digit_run
        build = O1Flow(overlay=Overlay.for_device(device),
                       effort=0.1).compile(app.project, BuildEngine())
        assert build.execute(app.project.sample_inputs) == u50_outputs
        assert build.compile_times.total == pytest.approx(makespan)


class TestMultiSLRTopology:
    def test_u280_cut_links_pinned(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        assert topo.n_leaves == 41
        cuts = topo.slr_cut_links()
        assert len(cuts) == 8
        assert _sha16([(c.level, c.index, n)
                       for c, n in cuts]) == "93714429e25d0c80"

    def test_vu19p_cut_links_pinned(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCVU19P))
        assert topo.n_leaves == 81
        cuts = topo.slr_cut_links()
        assert len(cuts) == 16
        assert _sha16([(c.level, c.index, n)
                       for c, n in cuts]) == "99d3014ecc682a35"

    def test_dma_leaf_sits_on_slr0(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        assert topo.slr_of(0) == 0

    def test_crossings_are_absolute_die_distance(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCVU19P))
        first = topo.slr_of(1)
        last = topo.slr_of(topo.n_leaves - 1)
        assert topo.slr_crossings(1, topo.n_leaves - 1) == last - first
        assert topo.slr_crossings(5, 5) == 0

    def test_padding_leaves_inherit_last_slr(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        # Tree is padded to 64 leaves; the padding inherits SLR 2.
        assert topo.slr_of(topo.size - 1) == topo.slr_of(topo.n_leaves - 1)

    def test_no_slr_map_means_one_die(self):
        topo = BFTopology(8)
        assert topo.slr_of(3) == 0
        assert topo.slr_cut_links() == []

    def test_slr_map_length_validated(self):
        with pytest.raises(NoCError):
            BFTopology(8, leaf_slr=(0, 0, 1))

    def test_scaled_drain_on_overlay_topology(self):
        # End-to-end: a non-power-of-two leaf count (41, padded to 64)
        # drains cleanly, every flit delivered, with pinned observables.
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        rng = random.Random(7)
        leaves = {i: LeafInterface(i, n_ports=2)
                  for i in range(topo.n_leaves)}
        sim = NetworkSimulator(topo, leaves)
        for i in range(topo.n_leaves):
            for p in range(2):
                leaves[i].bind(p, rng.randrange(topo.n_leaves), p)
        for i in range(topo.n_leaves):
            for k in range(5):
                leaves[i].send(k % 2, (i * 100 + k) & 0xFFFFFFFF)
        cycles = sim.run(max_cycles=200_000)
        records = [(r.payload, r.latency, r.hops) for r in sim.delivered]
        assert len(records) == topo.n_leaves * 5
        assert (cycles, sim.total_deflections) == (90, 2306)
        assert _sha16(records) == "8d8f2cc717a4d772"
