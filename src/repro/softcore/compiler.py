"""-O0 code generation: operator IR -> RV32IM machine code.

This is PLD's ``riscv-gcc caller`` stage (Fig. 5): the *same* operator
description the FPGA flows consume compiles, in well under a second of
real work, into genuine RISC-V machine code for the page softcore.

The generated code is deliberately -O0 style — every SSA value lives in
a memory slot, each IR instruction loads its operands, computes, wraps
the result to its declared width, and stores back.  That is both simple
and faithful: the three-to-five orders of magnitude slowdown Tab. 3
shows for softcore mappings comes precisely from this kind of
unoptimised, unpipelined execution at 200 MHz.

Width support mirrors what ``riscv32`` compilers do for ``ap_int``:
values up to 64 bits are held in two words (add/sub/mul/logic/constant
shifts work wide); comparisons, divisions, selects conditions, memory
indexing and stream ports must be <= 32 bits — the Rosetta kernels cast
accordingly, exactly as the paper's operators size their datapaths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SoftcoreError
from repro.hls.ir import (
    Block,
    If,
    Instr,
    Loop,
    Operand,
    OperatorSpec,
    Value,
)
from repro.softcore.assembler import assemble
from repro.softcore.cpu import STREAM_READ_BASE, STREAM_WRITE_BASE

# Scratch register conventions (t-registers of the RISC-V ABI).
GP = 3          # data-segment base
A_LO, A_HI = 5, 6          # t0, t1
B_LO, B_HI = 7, 28         # t2, t3
R_LO, R_HI = 29, 30        # t4, t5
SCRATCH = 31               # t6


@dataclass
class CompiledOperator:
    """The output of the -O0 compiler for one operator."""

    name: str
    code: bytes
    data: bytes
    data_base: int
    memory_bytes: int
    in_ports: List[str]
    out_ports: List[str]
    listing: List[Tuple]
    ir_instructions: int

    @property
    def footprint_bytes(self) -> int:
        """Code + initialised data (the 30-60 KB figure of Sec. 5.2)."""
        return len(self.code) + len(self.data)

    def make_body(self, memory_bytes: Optional[int] = None,
                  telemetry: Optional[Dict[str, object]] = None,
                  cycles: Optional[Dict[str, int]] = None):
        """Build a dataflow operator body running this binary on an ISS.

        Args:
            memory_bytes: override the softcore memory size.
            telemetry: optional dict; the live :class:`PicoRV32` is
                stored under this operator's name so callers (the -O0
                performance model) can read cycle counters afterwards.
            cycles: softcore cycle profile (default: the unpipelined
                PicoRV32; pass ``PIPELINED_CYCLES`` for the faster
                overlay the paper suggests in Sec. 7.4).
        """
        from repro.softcore.cpu import PicoRV32

        size = memory_bytes or self.memory_bytes
        name = self.name

        def body(io):
            cpu = PicoRV32(memory_bytes=size, cycles=cycles)
            if telemetry is not None:
                telemetry[name] = cpu
            cpu.load_image(self.code, 0)
            yield from cpu.run_as_operator(
                io, self.in_ports, self.out_ports,
                data_image=self.data, data_base=self.data_base)

        body.__name__ = f"riscv_{self.name}"
        return body


def compile_operator(spec: OperatorSpec,
                     memory_bytes: Optional[int] = None) -> CompiledOperator:
    """Compile an operator spec to RV32IM machine code."""
    spec.validate()
    return _Compiler(spec).run(memory_bytes)


class _Compiler:
    def __init__(self, spec: OperatorSpec):
        self.spec = spec
        self.asm: List = []
        self.label_counter = 0
        self.slot_of: Dict[str, int] = {}      # SSA value name -> offset
        self.var_slot: Dict[str, int] = {}
        self.array_base: Dict[str, int] = {}
        self.next_offset = 0
        self.data_init: Dict[int, int] = {}    # offset -> initial word
        self.in_index = {p: i for i, p in enumerate(spec.input_ports)}
        self.out_index = {p: i for i, p in enumerate(spec.output_ports)}
        self.ir_count = 0

    # -- slot allocation ---------------------------------------------------

    def _alloc(self, nbytes: int) -> int:
        offset = self.next_offset
        self.next_offset += nbytes
        return offset

    def _value_slot(self, value: Value) -> int:
        if value.name not in self.slot_of:
            self.slot_of[value.name] = self._alloc(8)
        return self.slot_of[value.name]

    def _collect_storage(self) -> None:
        for var in self.spec.variables:
            if var.width > 64:
                raise SoftcoreError(
                    f"{self.spec.name}/{var.name}: variables wider than "
                    f"64 bits are not supported on the softcore")
            slot = self._alloc(8)
            self.var_slot[var.name] = slot
            init = var.init & ((1 << 64) - 1) if var.init < 0 else var.init
            self.data_init[slot] = init & 0xFFFFFFFF
            self.data_init[slot + 4] = (init >> 32) & 0xFFFFFFFF

        def loops_of(block: Block):
            for item in block.items:
                if isinstance(item, Loop):
                    yield item
                    yield from loops_of(item.body)
                elif isinstance(item, If):
                    yield from loops_of(item.then)
                    yield from loops_of(item.orelse)

        for loop in loops_of(self.spec.body):
            if loop.var not in self.var_slot:
                slot = self._alloc(8)
                self.var_slot[loop.var] = slot
                self.data_init[slot] = 0
                self.data_init[slot + 4] = 0

        for array in self.spec.arrays:
            if array.width > 32:
                raise SoftcoreError(
                    f"{self.spec.name}/{array.name}: arrays wider than "
                    f"32 bits are not supported on the softcore")
            base = self._alloc(4 * array.depth)
            self.array_base[array.name] = base
            if array.init:
                for index, value in enumerate(array.init):
                    self.data_init[base + 4 * index] = \
                        self._wrap_store(value, array.width, array.signed)

    @staticmethod
    def _wrap_store(value: int, width: int, signed: bool) -> int:
        value &= (1 << width) - 1
        if signed and width < 32 and value >> (width - 1):
            value |= ((1 << (32 - width)) - 1) << width
        return value & 0xFFFFFFFF

    # -- emission helpers -----------------------------------------------------

    def _label(self, stem: str) -> str:
        self.label_counter += 1
        return f"{stem}_{self.label_counter}"

    def emit(self, *statement) -> None:
        self.asm.append(tuple(statement))

    def emit_label(self, label: str) -> None:
        self.asm.append(label + ":")

    def _gp_access(self, mnemonic: str, reg: int, offset: int) -> None:
        """lw/sw relative to the data base, handling big offsets."""
        if -2048 <= offset <= 2047:
            self.emit(mnemonic, reg, GP, offset)
        else:
            self.emit("li", SCRATCH, offset)
            self.emit("add", SCRATCH, GP, SCRATCH)
            self.emit(mnemonic, reg, SCRATCH, 0)

    def _load_operand(self, operand: Operand, rlo: int, rhi: int) -> None:
        """Load an operand into (rlo, rhi), sign/zero-extended to 64b."""
        if isinstance(operand, Value):
            if operand.width > 64:
                raise SoftcoreError(
                    f"{self.spec.name}: value {operand.name} is "
                    f"{operand.width} bits; cast to <= 64 for -O0")
            slot = self._value_slot(operand)
            self._gp_access("lw", rlo, slot)
            if operand.width > 32:
                self._gp_access("lw", rhi, slot + 4)
            else:
                self._extend(rlo, rhi, operand.signed)
        else:
            value = int(operand)
            self.emit("li", rlo, value & 0xFFFFFFFF if value >= 0
                      else value)
            self._extend(rlo, rhi, True)

    def _extend(self, rlo: int, rhi: int, signed: bool) -> None:
        if signed:
            self.emit("srai", rhi, rlo, 31)
        else:
            self.emit("li", rhi, 0)

    def _store_result(self, result: Value, rlo: int, rhi: int) -> None:
        slot = self._value_slot(result)
        self._gp_access("sw", rlo, slot)
        if result.width > 32:
            self._gp_access("sw", rhi, slot + 4)

    def _wrap(self, width: int, signed: bool, rlo: int, rhi: int) -> None:
        """Wrap (rlo, rhi) to the declared width, in place."""
        if width > 64:
            raise SoftcoreError(
                f"{self.spec.name}: result wider than 64 bits; "
                f"insert casts for the -O0 target")
        if width < 32:
            shift = 32 - width
            self.emit("slli", rlo, rlo, shift)
            self.emit("srai" if signed else "srli", rlo, rlo, shift)
            self._extend(rlo, rhi, signed)
        elif width == 32:
            self._extend(rlo, rhi, signed)
        elif width < 64:
            shift = 64 - width
            self.emit("slli", rhi, rhi, shift)
            self.emit("srai" if signed else "srli", rhi, rhi, shift)

    # -- program structure --------------------------------------------------------

    def run(self, memory_bytes: Optional[int]) -> CompiledOperator:
        for port in self.spec.input_ports + self.spec.output_ports:
            if self.spec.port_width(port) > 32:
                raise SoftcoreError(
                    f"{self.spec.name}: port {port} wider than the 32-bit "
                    f"network word")
        self._collect_storage()
        self.emit("li", GP, 0)           # patched once code size is known
        self._gen_block(self.spec.body)
        self.emit("ebreak")

        # First assembly pass to learn the code size, then patch gp.
        code = assemble(self.asm)
        data_base = (len(code) + 15) & ~15
        self.asm[0] = ("li", GP, data_base)
        code = assemble(self.asm)
        # `li` may expand differently once the base is large; reassemble
        # until stable (at most once more in practice).
        for _ in range(3):
            new_base = (len(code) + 15) & ~15
            if new_base == data_base:
                break
            data_base = new_base
            self.asm[0] = ("li", GP, data_base)
            code = assemble(self.asm)

        data_len = self.next_offset
        data = bytearray(data_len)
        for offset, word in self.data_init.items():
            data[offset:offset + 4] = word.to_bytes(4, "little")

        total = data_base + data_len + 4096      # stack/slack headroom
        size = memory_bytes or max(16 * 1024, 1 << (total - 1).bit_length())
        from repro.softcore.cpu import MAX_MEMORY_BYTES
        if size > MAX_MEMORY_BYTES:
            raise SoftcoreError(
                f"{self.spec.name}: needs {total} bytes; page softcores "
                f"offer at most {MAX_MEMORY_BYTES}")
        return CompiledOperator(
            name=self.spec.name,
            code=code,
            data=bytes(data),
            data_base=data_base,
            memory_bytes=size,
            in_ports=list(self.spec.input_ports),
            out_ports=list(self.spec.output_ports),
            listing=list(self.asm),
            ir_instructions=self.ir_count,
        )

    def _gen_block(self, block: Block) -> None:
        for item in block.items:
            if isinstance(item, Instr):
                self.ir_count += 1
                self._gen_instr(item)
            elif isinstance(item, Loop):
                self._gen_loop(item)
            elif isinstance(item, If):
                self._gen_if(item)

    def _gen_loop(self, loop: Loop) -> None:
        slot = self.var_slot[loop.var]
        head = self._label("Lhead")
        end = self._label("Lend")
        self.emit("li", R_LO, 0)
        self._gp_access("sw", R_LO, slot)
        self.emit_label(head)
        self._gp_access("lw", R_LO, slot)
        self.emit("li", R_HI, loop.trip)
        self.emit("bge", R_LO, R_HI, end)
        self._gen_block(loop.body)
        self._gp_access("lw", R_LO, slot)
        self.emit("addi", R_LO, R_LO, 1)
        self._gp_access("sw", R_LO, slot)
        self.emit("j", head)
        self.emit_label(end)

    def _gen_if(self, node: If) -> None:
        orelse = self._label("Lelse")
        end = self._label("Lendif")
        self._load_operand(node.cond, A_LO, A_HI)
        self.emit("beq", A_LO, 0, orelse)
        self._gen_block(node.then)
        self.emit("j", end)
        self.emit_label(orelse)
        self._gen_block(node.orelse)
        self.emit_label(end)

    # -- instruction selection --------------------------------------------------------

    def _gen_instr(self, instr: Instr) -> None:
        kind = instr.kind
        handler = getattr(self, f"_gen_{kind}", None)
        if handler is not None:
            handler(instr)
            return
        if kind in ("add", "sub"):
            self._gen_addsub(instr)
        elif kind == "mul":
            self._gen_mul(instr)
        elif kind in ("div", "mod"):
            self._gen_divmod(instr)
        elif kind in ("and", "or", "xor"):
            self._gen_logic(instr)
        elif kind in ("shl", "shr", "lshr"):
            self._gen_shift(instr)
        elif kind in ("eq", "ne", "lt", "le", "gt", "ge"):
            self._gen_compare(instr)
        elif kind in ("min", "max"):
            self._gen_minmax(instr)
        else:
            raise SoftcoreError(f"no codegen for {kind!r}")

    # producers

    def _gen_const(self, instr: Instr) -> None:
        value = int(instr.attrs["value"])
        result = instr.result
        self.emit("li", A_LO, value & 0xFFFFFFFF if value >= 0 else value)
        if result.width > 32:
            self.emit("li", A_HI, (value >> 32) & 0xFFFFFFFF
                      if value >= 0 else (value >> 32))
        else:
            self._extend(A_LO, A_HI, True)
        self._wrap(result.width, result.signed, A_LO, A_HI)
        self._store_result(result, A_LO, A_HI)

    def _gen_read(self, instr: Instr) -> None:
        port = instr.attrs["port"]
        index = self.in_index[port]
        result = instr.result
        self.emit("li", SCRATCH, STREAM_READ_BASE + 4 * index)
        self.emit("lw", A_LO, SCRATCH, 0)
        self._wrap(min(result.width, 32), result.signed, A_LO, A_HI)
        self._extend(A_LO, A_HI, result.signed)
        self._store_result(result, A_LO, A_HI)

    def _gen_write(self, instr: Instr) -> None:
        port = instr.attrs["port"]
        index = self.out_index[port]
        width = self.spec.port_width(port)
        self._load_operand(instr.args[0], A_LO, A_HI)
        self._wrap(width, False, A_LO, A_HI)     # raw pattern on the wire
        self.emit("li", SCRATCH, STREAM_WRITE_BASE + 4 * index)
        self.emit("sw", A_LO, SCRATCH, 0)

    def _gen_getvar(self, instr: Instr) -> None:
        var = instr.attrs["var"]
        slot = self.var_slot[var]
        result = instr.result
        self._gp_access("lw", A_LO, slot)
        if result.width > 32:
            self._gp_access("lw", A_HI, slot + 4)
        else:
            self._extend(A_LO, A_HI, result.signed)
        self._wrap(result.width, result.signed, A_LO, A_HI)
        self._store_result(result, A_LO, A_HI)

    def _gen_setvar(self, instr: Instr) -> None:
        var = instr.attrs["var"]
        decl = self.spec.var(var) if any(
            v.name == var for v in self.spec.variables) else None
        width = decl.width if decl else 32
        signed = decl.signed if decl else True
        slot = self.var_slot[var]
        self._load_operand(instr.args[0], A_LO, A_HI)
        self._wrap(width, signed, A_LO, A_HI)
        self._gp_access("sw", A_LO, slot)
        if width > 32:
            self._gp_access("sw", A_HI, slot + 4)

    def _gen_load(self, instr: Instr) -> None:
        array = self.spec.array(instr.attrs["array"])
        base = self.array_base[array.name]
        self._load_operand(instr.args[0], A_LO, A_HI)      # index
        self.emit("slli", A_LO, A_LO, 2)
        self.emit("li", SCRATCH, base)
        self.emit("add", SCRATCH, SCRATCH, A_LO)
        self.emit("add", SCRATCH, SCRATCH, GP)
        self.emit("lw", A_LO, SCRATCH, 0)
        result = instr.result
        self._wrap(min(result.width, 32), array.signed, A_LO, A_HI)
        self._extend(A_LO, A_HI, array.signed)
        self._store_result(result, A_LO, A_HI)

    def _gen_store(self, instr: Instr) -> None:
        array = self.spec.array(instr.attrs["array"])
        base = self.array_base[array.name]
        self._load_operand(instr.args[1], B_LO, B_HI)      # value
        self._wrap(array.width, array.signed, B_LO, B_HI)
        self._load_operand(instr.args[0], A_LO, A_HI)      # index
        self.emit("slli", A_LO, A_LO, 2)
        self.emit("li", SCRATCH, base)
        self.emit("add", SCRATCH, SCRATCH, A_LO)
        self.emit("add", SCRATCH, SCRATCH, GP)
        self.emit("sw", B_LO, SCRATCH, 0)

    # arithmetic

    def _binary_operands(self, instr: Instr) -> None:
        self._load_operand(instr.args[0], A_LO, A_HI)
        self._load_operand(instr.args[1], B_LO, B_HI)

    def _finish(self, instr: Instr, rlo: int = R_LO, rhi: int = R_HI
                ) -> None:
        result = instr.result
        self._wrap(result.width, result.signed, rlo, rhi)
        self._store_result(result, rlo, rhi)

    def _gen_addsub(self, instr: Instr) -> None:
        self._binary_operands(instr)
        wide = instr.result.width > 32
        if instr.kind == "add":
            self.emit("add", R_LO, A_LO, B_LO)
            if wide:
                self.emit("sltu", SCRATCH, R_LO, A_LO)
                self.emit("add", R_HI, A_HI, B_HI)
                self.emit("add", R_HI, R_HI, SCRATCH)
        else:
            if wide:
                self.emit("sltu", SCRATCH, A_LO, B_LO)
                self.emit("sub", R_HI, A_HI, B_HI)
                self.emit("sub", R_HI, R_HI, SCRATCH)
            self.emit("sub", R_LO, A_LO, B_LO)
        self._finish(instr)

    @staticmethod
    def _op_signed(operand: Operand) -> bool:
        return operand.signed if isinstance(operand, Value) else True

    @staticmethod
    def _op_width(operand: Operand) -> int:
        if isinstance(operand, Value):
            return operand.width
        return max(int(operand).bit_length() + 1, 2)

    def _gen_mul(self, instr: Instr) -> None:
        for operand in instr.args:
            if self._op_width(operand) > 32:
                raise SoftcoreError(
                    f"{self.spec.name}: multiply operands must be <= 32 "
                    f"bits on the softcore (cast first)")
        self._binary_operands(instr)
        self.emit("mul", R_LO, A_LO, B_LO)
        if instr.result.width > 32:
            sa = self._op_signed(instr.args[0])
            sb = self._op_signed(instr.args[1])
            if sa and sb:
                self.emit("mulh", R_HI, A_LO, B_LO)
            elif not sa and not sb:
                self.emit("mulhu", R_HI, A_LO, B_LO)
            elif sa:
                self.emit("mulhsu", R_HI, A_LO, B_LO)
            else:
                self.emit("mulhsu", R_HI, B_LO, A_LO)
        self._finish(instr)

    def _gen_divmod(self, instr: Instr) -> None:
        for operand in instr.args:
            if self._op_width(operand) > 32:
                raise SoftcoreError(
                    f"{self.spec.name}: divide operands must be <= 32 "
                    f"bits on the softcore (cast first)")
        self._binary_operands(instr)
        signed = (self._op_signed(instr.args[0])
                  or self._op_signed(instr.args[1]))
        if instr.kind == "div":
            self.emit("div" if signed else "divu", R_LO, A_LO, B_LO)
        else:
            self.emit("rem" if signed else "remu", R_LO, A_LO, B_LO)
        self._extend(R_LO, R_HI, signed)
        self._finish(instr)

    def _gen_logic(self, instr: Instr) -> None:
        self._binary_operands(instr)
        op = {"and": "and", "or": "or", "xor": "xor"}[instr.kind]
        self.emit(op, R_LO, A_LO, B_LO)
        self.emit(op, R_HI, A_HI, B_HI)
        self._finish(instr)

    def _gen_shift(self, instr: Instr) -> None:
        amount = instr.args[1]
        wide = (self._op_width(instr.args[0]) > 32
                or instr.result.width > 32)
        self._load_operand(instr.args[0], A_LO, A_HI)
        if isinstance(amount, Value):
            if wide:
                raise SoftcoreError(
                    f"{self.spec.name}: variable shifts wider than 32 "
                    f"bits are not supported on the softcore")
            self._load_operand(amount, B_LO, B_HI)
            op = {"shl": "sll", "shr": "sra", "lshr": "srl"}[instr.kind]
            self.emit(op, R_LO, A_LO, B_LO)
            self._extend(R_LO, R_HI, instr.kind == "shr")
            self._finish(instr)
            return
        k = int(amount)
        if not wide:
            op = {"shl": "slli", "shr": "srai", "lshr": "srli"}[instr.kind]
            if k == 0:
                self.emit("mv", R_LO, A_LO)
            elif k < 32:
                self.emit(op, R_LO, A_LO, k)
            elif instr.kind == "shr":
                self.emit("srai", R_LO, A_LO, 31)   # all sign bits
            else:
                self.emit("li", R_LO, 0)            # shifted out entirely
            self._extend(R_LO, R_HI, instr.kind != "lshr")
            self._finish(instr)
            return
        self._gen_wide_const_shift(instr, k)

    def _gen_wide_const_shift(self, instr: Instr, k: int) -> None:
        kind = instr.kind
        arithmetic = kind == "shr"
        if k == 0:
            self.emit("mv", R_LO, A_LO)
            self.emit("mv", R_HI, A_HI)
        elif kind == "shl":
            if k < 32:
                self.emit("slli", R_HI, A_HI, k)
                self.emit("srli", SCRATCH, A_LO, 32 - k)
                self.emit("or", R_HI, R_HI, SCRATCH)
                self.emit("slli", R_LO, A_LO, k)
            elif k < 64:
                self.emit("slli", R_HI, A_LO, k - 32)
                self.emit("li", R_LO, 0)
            else:
                self.emit("li", R_LO, 0)
                self.emit("li", R_HI, 0)
        else:                               # shr / lshr
            if k < 32:
                self.emit("srli", R_LO, A_LO, k)
                self.emit("slli", SCRATCH, A_HI, 32 - k)
                self.emit("or", R_LO, R_LO, SCRATCH)
                self.emit("srai" if arithmetic else "srli",
                          R_HI, A_HI, k)
            elif k < 64:
                self.emit("srai" if arithmetic else "srli",
                          R_LO, A_HI, min(k - 32, 31))
                if k - 32 >= 32:
                    self.emit("li", R_LO, 0)
                if arithmetic:
                    self.emit("srai", R_HI, A_HI, 31)
                else:
                    self.emit("li", R_HI, 0)
            else:
                if arithmetic:
                    self.emit("srai", R_LO, A_HI, 31)
                    self.emit("mv", R_HI, R_LO)
                else:
                    self.emit("li", R_LO, 0)
                    self.emit("li", R_HI, 0)
        self._finish(instr)

    def _gen_compare(self, instr: Instr) -> None:
        kind = instr.kind
        wide = any(self._op_width(a) > 32 for a in instr.args)
        self._binary_operands(instr)
        if kind in ("eq", "ne"):
            self.emit("xor", R_LO, A_LO, B_LO)
            if wide:
                self.emit("xor", R_HI, A_HI, B_HI)
                self.emit("or", R_LO, R_LO, R_HI)
            self.emit("sltiu", R_LO, R_LO, 1)          # 1 when equal
            if kind == "ne":
                self.emit("xori", R_LO, R_LO, 1)
            self.emit("li", R_HI, 0)
            self._finish(instr)
            return
        if wide:
            raise SoftcoreError(
                f"{self.spec.name}: ordered compares must be <= 32 bits "
                f"on the softcore (cast first)")
        signed = any(self._op_signed(a) for a in instr.args)
        slt = "slt" if signed else "sltu"
        if kind == "lt":
            self.emit(slt, R_LO, A_LO, B_LO)
        elif kind == "gt":
            self.emit(slt, R_LO, B_LO, A_LO)
        elif kind == "ge":
            self.emit(slt, R_LO, A_LO, B_LO)
            self.emit("xori", R_LO, R_LO, 1)
        else:                                           # le
            self.emit(slt, R_LO, B_LO, A_LO)
            self.emit("xori", R_LO, R_LO, 1)
        self.emit("li", R_HI, 0)
        self._finish(instr)

    def _gen_minmax(self, instr: Instr) -> None:
        if any(self._op_width(a) > 32 for a in instr.args):
            raise SoftcoreError(
                f"{self.spec.name}: min/max must be <= 32 bits on the "
                f"softcore")
        self._binary_operands(instr)
        signed = any(self._op_signed(a) for a in instr.args)
        keep_b = self._label("Lmm")
        end = self._label("Lmmend")
        branch = ("blt" if signed else "bltu")
        if instr.kind == "min":
            self.emit(branch, B_LO, A_LO, keep_b)
        else:
            self.emit(branch, A_LO, B_LO, keep_b)
        self.emit("mv", R_LO, A_LO)
        self.emit("j", end)
        self.emit_label(keep_b)
        self.emit("mv", R_LO, B_LO)
        self.emit_label(end)
        self._extend(R_LO, R_HI, signed)
        self._finish(instr)

    def _gen_neg(self, instr: Instr) -> None:
        self._load_operand(instr.args[0], A_LO, A_HI)
        self.emit("sltu", SCRATCH, 0, A_LO)     # borrow = (lo != 0)
        self.emit("sub", R_LO, 0, A_LO)
        self.emit("sub", R_HI, 0, A_HI)
        self.emit("sub", R_HI, R_HI, SCRATCH)
        self._finish(instr)

    def _gen_abs(self, instr: Instr) -> None:
        if self._op_width(instr.args[0]) > 32:
            raise SoftcoreError(
                f"{self.spec.name}: abs must be <= 32 bits on the "
                f"softcore (cast first)")
        self._load_operand(instr.args[0], A_LO, A_HI)
        done = self._label("Labs")
        self.emit("mv", R_LO, A_LO)
        self.emit("bge", A_LO, 0, done)
        self.emit("sub", R_LO, 0, A_LO)
        self.emit_label(done)
        self._extend(R_LO, R_HI, True)
        self._finish(instr)

    def _gen_not(self, instr: Instr) -> None:
        self._load_operand(instr.args[0], A_LO, A_HI)
        self.emit("xori", R_LO, A_LO, -1)
        self.emit("xori", R_HI, A_HI, -1)
        self._finish(instr)

    def _gen_cast(self, instr: Instr) -> None:
        self._load_operand(instr.args[0], A_LO, A_HI)
        self._finish(instr, A_LO, A_HI)

    def _gen_select(self, instr: Instr) -> None:
        cond, if_true, if_false = instr.args
        use_false = self._label("Lsel")
        end = self._label("Lselend")
        self._load_operand(cond, A_LO, A_HI)
        self.emit("beq", A_LO, 0, use_false)
        self._load_operand(if_true, R_LO, R_HI)
        self.emit("j", end)
        self.emit_label(use_false)
        self._load_operand(if_false, R_LO, R_HI)
        self.emit_label(end)
        self._finish(instr)

    def _gen_isqrt(self, instr: Instr) -> None:
        if self._op_width(instr.args[0]) > 32:
            raise SoftcoreError(
                f"{self.spec.name}: isqrt input must be <= 32 bits on "
                f"the softcore (cast first)")
        self._load_operand(instr.args[0], A_LO, A_HI)
        head = self._label("Lsq")
        skip = self._label("Lsqskip")
        nxt = self._label("Lsqnext")
        end = self._label("Lsqend")
        self.emit("li", R_LO, 0)                 # result
        self.emit("li", B_LO, 1 << 30)           # bit
        self.emit_label(head)
        self.emit("beq", B_LO, 0, end)
        self.emit("add", SCRATCH, R_LO, B_LO)    # res + bit
        self.emit("bltu", A_LO, SCRATCH, skip)
        self.emit("sub", A_LO, A_LO, SCRATCH)
        self.emit("srli", R_LO, R_LO, 1)
        self.emit("add", R_LO, R_LO, B_LO)
        self.emit("j", nxt)
        self.emit_label(skip)
        self.emit("srli", R_LO, R_LO, 1)
        self.emit_label(nxt)
        self.emit("srli", B_LO, B_LO, 2)
        self.emit("j", head)
        self.emit_label(end)
        self.emit("li", R_HI, 0)
        self._finish(instr)
