"""PicoRV32-style instruction-set simulator.

Executes real RV32IM machine code from a byte-addressed unified memory
(instructions and data share the 192 KB page BRAM budget, Sec. 5.1).
Stream ports are memory mapped, as in Fig. 4: a load from
``STREAM_READ_BASE + 4*p`` blocks until port ``p`` has a token; a store
to ``STREAM_WRITE_BASE + 4*p`` emits one token.  Run standalone with
:meth:`PicoRV32.run` (host-less programs) or as a dataflow operator body
with :meth:`PicoRV32.run_as_operator`, where blocking port accesses
become stream requests serviced by the graph simulators.

Cycle costs follow the unpipelined PicoRV32 (the paper's area-efficient
choice): roughly 4 cycles per ALU op, 5 for memory and taken branches,
and a slow iterative divider.

Dispatch goes through a basic-block cache: straight-line runs are
decoded once into a fused handler list keyed by the head pc and
replayed without per-instruction fetch checks or cache lookups.
:meth:`PicoRV32.step` executes exactly one instruction; it is the
single-step API, the path :meth:`PicoRV32.run` takes while an injected
trap is armed, and the reference the block cache is tested against.
Both paths share one per-address decode cache.  A write that overlaps
decoded code — :meth:`load_image`, the fault-trap image restore, or a
self-modifying store — drops the decodes it overwrote and every cached
block, so either path executes what memory holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SoftcoreError, TrapError
from repro.softcore.isa import decode

#: Memory-mapped stream port bases (one word per port).
STREAM_READ_BASE = 0x1000_0000
STREAM_WRITE_BASE = 0x2000_0000

#: Maximum unified memory per page (192 KB = 96 BRAM18s, Sec. 5.1).
MAX_MEMORY_BYTES = 192 * 1024

#: Cycles per instruction class (PicoRV32-like, unpipelined).
CYCLES = {
    "alu": 4, "load": 5, "store": 5, "branch": 5, "branch_not_taken": 4,
    "jump": 5, "mul": 5, "div": 40, "system": 4,
}

#: A higher-frequency, pipelined softcore profile — the paper notes
#: "performance can easily be improved by replacing [the PicoRV32]
#: with a higher frequency, pipelined softcore" (Sec. 7.4).  CPI near
#: one except for hazards on memory, taken branches and divides.
PIPELINED_CYCLES = {
    "alu": 1, "load": 2, "store": 1, "branch": 3, "branch_not_taken": 1,
    "jump": 2, "mul": 2, "div": 12, "system": 1,
}

_M32 = 0xFFFFFFFF

#: Basic-block cache: instructions per block before forcing a cut.
_BB_CAP = 64

#: Mnemonics that end a basic block (pc leaves the straight line).
_BB_TERMINATORS = frozenset((
    "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "jal", "jalr", "ebreak",
))

_BB_STORES = frozenset(("sw", "sh", "sb"))


def _s32(value: int) -> int:
    value &= _M32
    return value - 0x1_0000_0000 if value >> 31 else value


class PicoRV32:
    """One softcore instance.

    Args:
        memory_bytes: unified memory size (must fit the page BRAMs).
        cycles: per-instruction-class cycle costs (default unpipelined).
        faults: optional :class:`repro.faults.SoftcoreFaultInjector`;
            standalone :meth:`run` calls may then take spurious traps,
            which the core recovers from by restoring the loaded memory
            image and restarting (the paper's watchdog-reset story for
            soft logic upsets).
        core_id: stable name keying this core's fault draws.
        max_trap_restarts: restarts :meth:`run` attempts before
            re-raising an injected trap.
    """

    def __init__(self, memory_bytes: int = 64 * 1024,
                 cycles: Optional[Dict[str, int]] = None,
                 faults=None, core_id: str = "core0",
                 max_trap_restarts: int = 3):
        if not (1024 <= memory_bytes <= MAX_MEMORY_BYTES):
            raise SoftcoreError(
                f"memory {memory_bytes} outside 1KB..192KB page budget")
        self.cycle_table = dict(cycles or CYCLES)
        self.memory = bytearray(memory_bytes)
        self.regs = [0] * 32
        self.pc = 0
        self.cycles = 0
        self.instructions_retired = 0
        self.halted = False
        self._decode_cache: Dict[int, Tuple] = {}
        self.faults = faults
        self.core_id = core_id
        self.max_trap_restarts = max_trap_restarts
        self.injected_traps = 0
        self.restarts = 0
        self._image_snapshot: Optional[bytes] = None
        # Byte span [lo, hi) of every decoded word, so a store outside
        # it skips invalidation with one range check.
        self._code_lo: Optional[int] = None
        self._code_hi = 0
        # Basic-block cache: head pc -> list of decode-cache entries.
        self._bb_cache: Dict[int, List[Tuple]] = {}
        self._bb_dirty = False

    # -- memory ------------------------------------------------------------

    def load_image(self, image: bytes, base: int = 0) -> None:
        if base + len(image) > len(self.memory):
            raise SoftcoreError(
                f"image of {len(image)} bytes at {base:#x} exceeds "
                f"{len(self.memory)}-byte memory")
        self.memory[base:base + len(image)] = image
        # Decodes outside the overwritten range still match memory;
        # keeping them (and the blocks, when no decoded word was
        # overwritten) lets operator frames — which reload only the
        # data segment — keep their warm code caches.
        self._invalidate_range(base, base + len(image))
        # Snapshot the as-loaded memory so an injected trap can restore
        # pristine state before restarting the program.
        self._image_snapshot = bytes(self.memory)

    def reset(self, pc: int = 0) -> None:
        self.regs = [0] * 32
        self.pc = pc
        self.halted = False

    def _read_word(self, addr: int) -> int:
        return int.from_bytes(self.memory[addr:addr + 4], "little")

    def _check_mem(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > len(self.memory):
            raise TrapError(
                f"memory access {addr:#010x} (+{size}) out of bounds",
                pc=self.pc)

    # -- execution ---------------------------------------------------------

    def step(self):
        """Execute one instruction.

        Returns None normally, or an MMIO request tuple
        ``("read", port)`` / ``("write", port, value)`` that the caller
        must service (the generator wrapper turns these into stream
        requests).
        """
        if self.halted:
            raise SoftcoreError("stepping a halted core")
        self._check_mem(self.pc, 4)
        word_addr = self.pc
        entry = self._decode_cache.get(word_addr)
        if entry is None:
            entry = self._decode_at(word_addr)
        request = entry[1](self, entry[0])
        self.regs[0] = 0
        self.instructions_retired += 1
        return request

    def _step_block(self):
        """Execute up to one basic block.

        Replays the fused handler list for the block at ``pc``.  Exits
        early — with the same architectural state :meth:`step` would
        leave — on an MMIO request, a halt, or a self-modifying
        store that invalidated the cache; the next call resumes at the
        updated pc (mid-block pcs simply become new block heads).
        """
        if self.halted:
            raise SoftcoreError("stepping a halted core")
        pc = self.pc
        block = self._bb_cache.get(pc)
        if block is None:
            self._check_mem(pc, 4)
            block = self._build_block(pc)
            self._bb_cache[pc] = block
        regs = self.regs
        retired = 0
        try:
            for entry in block:
                request = entry[1](self, entry[0])
                retired += 1
                if entry[3]:
                    regs[0] = 0
                if request is not None:
                    return request
                if entry[2] and self._bb_dirty:
                    self._bb_dirty = False
                    return None
            return None
        finally:
            self.instructions_retired += retired

    def _build_block(self, head: int) -> List[Tuple]:
        """Decode the straight-line run starting at ``head``.

        Shares the per-address decode cache with :meth:`step`.  An
        undecodable word ends the block without being included: the
        error surfaces only if execution actually reaches it, exactly
        as lazy single-step decoding would.
        """
        entries: List[Tuple] = []
        mem_end = len(self.memory)
        dc = self._decode_cache
        addr = head
        while addr + 4 <= mem_end and len(entries) < _BB_CAP:
            entry = dc.get(addr)
            if entry is None:
                try:
                    entry = self._decode_at(addr)
                except SoftcoreError:
                    if not entries:
                        raise    # step() would raise here too
                    break
            entries.append(entry)
            addr += 4
            if entry[0].mnemonic in _BB_TERMINATORS:
                break
        return entries

    def _decode_at(self, addr: int) -> Tuple:
        """Decode the word at ``addr`` into the decode cache.

        Entries are ``(instr, handler, is_store, clears_x0)``; blocks
        hold the same tuples, so blocks that overlap (a pc after an
        MMIO exit heads a new one) share them.  The x0-clear is only
        observable when a handler can write regs[0], i.e. when the
        decoded rd is 0 (branches/stores decode rd=0 too — the extra
        clear is a harmless no-op).
        """
        instr = decode(self._read_word(addr))
        entry = (instr, _HANDLERS.get(instr.mnemonic, _h_unknown),
                 instr.mnemonic in _BB_STORES, instr.rd == 0)
        self._decode_cache[addr] = entry
        if self._code_lo is None or addr < self._code_lo:
            self._code_lo = addr
        if addr + 4 > self._code_hi:
            self._code_hi = addr + 4
        return entry

    @staticmethod
    def _divide(m: str, a: int, b: int) -> int:
        if m in ("div", "rem"):
            sa, sb = _s32(a), _s32(b)
            if sb == 0:
                return _M32 if m == "div" else a
            if sa == -(2 ** 31) and sb == -1:
                return a if m == "div" else 0
            quotient = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                quotient = -quotient
            remainder = sa - quotient * sb
            return (quotient if m == "div" else remainder) & _M32
        if b == 0:
            return _M32 if m == "divu" else a
        return ((a // b) if m == "divu" else (a % b)) & _M32

    def _load(self, m: str, addr: int) -> int:
        size = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1}[m]
        self._check_mem(addr, size)
        raw = int.from_bytes(self.memory[addr:addr + size], "little")
        if m == "lh" and raw >> 15:
            raw -= 1 << 16
        elif m == "lb" and raw >> 7:
            raw -= 1 << 8
        return raw & _M32

    def _store(self, m: str, addr: int, value: int) -> None:
        """Store to memory; a store into decoded code invalidates it
        and ends the running block (self-modifying code)."""
        size = {"sw": 4, "sh": 2, "sb": 1}[m]
        self._check_mem(addr, size)
        self.memory[addr:addr + size] = (value & ((1 << (8 * size)) - 1)
                                         ).to_bytes(size, "little")
        lo = self._code_lo
        if lo is not None and addr < self._code_hi and addr + size > lo:
            self._invalidate_range(addr, addr + size)
            self._bb_dirty = True

    def _invalidate_range(self, lo: int, hi: int) -> None:
        """Drop the decodes overlapping ``[lo, hi)`` and, if there were
        any to check, every cached block."""
        if self._code_lo is None or hi <= self._code_lo \
                or lo >= self._code_hi:
            return
        dc = self._decode_cache
        for addr in [a for a in dc if lo - 3 <= a < hi]:
            del dc[addr]
        self._bb_cache.clear()

    # -- drivers --------------------------------------------------------------

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until ``ebreak``; returns cycles.  MMIO access is an error
        here — use :meth:`run_as_operator` for stream programs.  The
        instruction budget is checked between basic blocks, so a
        runaway program overshoots it by less than one block before
        raising.

        With a fault injector attached, an attempt may take a spurious
        trap; the core then restores the loaded memory image, resets,
        and reruns (a fresh attempt re-draws, so transient upsets clear)
        up to ``max_trap_restarts`` times before the trap propagates.
        """
        attempt = 0
        while True:
            attempt += 1
            trap_at = None if self.faults is None else \
                self.faults.trap_point(self.core_id, attempt)
            start = self.instructions_retired
            # Armed fault traps need the per-instruction trap-point
            # check, so they run on the single-step path.
            stepper = self._step_block if trap_at is None else self.step
            try:
                while not self.halted:
                    if self.instructions_retired >= max_instructions:
                        raise SoftcoreError(
                            f"program exceeded {max_instructions} "
                            f"instructions")
                    if (trap_at is not None
                            and self.instructions_retired - start
                            >= trap_at):
                        self.faults.record_fired(self.core_id, attempt,
                                                 trap_at)
                        raise TrapError(
                            f"injected spurious trap on {self.core_id} "
                            f"(attempt {attempt})",
                            pc=self.pc, injected=True)
                    request = stepper()
                    if request is not None:
                        raise SoftcoreError(
                            f"stream access {request} outside a "
                            f"dataflow run")
                return self.cycles
            except TrapError as exc:
                if not exc.injected \
                        or attempt > self.max_trap_restarts:
                    raise
                self.injected_traps += 1
                self.restarts += 1
                if self._image_snapshot is not None:
                    self.memory[:] = self._image_snapshot
                    self._invalidate_range(0, len(self.memory))
                self.reset()

    def run_as_operator(self, io, in_ports: List[str], out_ports: List[str],
                        data_image: bytes = b"", data_base: int = 0,
                        max_instructions_per_frame: int = 50_000_000):
        """Generator: execute frames forever, as a dataflow operator body.

        Each frame re-loads the data segment (initial variable/array
        values) and runs the program to ``ebreak``.  Stream MMIO becomes
        blocking reads/writes on the named ports.
        """
        step_block = self._step_block
        while True:
            if data_image:
                self.load_image(data_image, data_base)
            self.reset()
            frame_start = self.instructions_retired
            while not self.halted:
                if (self.instructions_retired - frame_start
                        > max_instructions_per_frame):
                    raise SoftcoreError("softcore frame exceeded "
                                        "instruction budget")
                request = step_block()
                if request is None:
                    continue
                if request[0] == "read":
                    _kind, port, rd = request
                    if port >= len(in_ports):
                        raise TrapError(f"read of unmapped port {port}",
                                        pc=self.pc)
                    token = yield io.read(in_ports[port])
                    self.regs[rd] = int(token) & _M32
                    self.regs[0] = 0
                    self.cycles += 1      # FIFO handshake
                else:
                    _kind, port, value = request
                    if port >= len(out_ports):
                        raise TrapError(f"write to unmapped port {port}",
                                        pc=self.pc)
                    yield io.write(out_ports[port], value)
                    self.cycles += 1
            if not in_ports:
                return                    # source operators run once


# -- instruction dispatch ----------------------------------------------------
#
# One handler per mnemonic, bound into the decode cache alongside the
# decoded instruction: executing an already-seen pc is a dict hit plus a
# direct call, with no mnemonic comparisons on the hot path.  Each
# handler charges its own cycle class (the totals match the previous
# base-cost-plus-adjustment accounting exactly) and advances pc.

def _h_unknown(cpu, i):  # pragma: no cover - decode() is closed over the ISA
    raise TrapError(f"unimplemented {i.mnemonic}", pc=cpu.pc)


def _h_addi(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] + i.imm) & _M32
    cpu.pc += 4


def _h_add(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] + r[i.rs2]) & _M32
    cpu.pc += 4


def _h_sub(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] - r[i.rs2]) & _M32
    cpu.pc += 4


def _h_lui(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    cpu.regs[i.rd] = (i.imm << 12) & _M32
    cpu.pc += 4


def _h_auipc(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    cpu.regs[i.rd] = (cpu.pc + (i.imm << 12)) & _M32
    cpu.pc += 4


def _h_andi(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] & i.imm) & _M32
    cpu.pc += 4


def _h_and(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = r[i.rs1] & r[i.rs2]
    cpu.pc += 4


def _h_ori(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] | i.imm) & _M32
    cpu.pc += 4


def _h_or(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = r[i.rs1] | r[i.rs2]
    cpu.pc += 4


def _h_xori(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] ^ i.imm) & _M32
    cpu.pc += 4


def _h_xor(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = r[i.rs1] ^ r[i.rs2]
    cpu.pc += 4


def _h_slli(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] << i.imm) & _M32
    cpu.pc += 4


def _h_sll(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (r[i.rs1] << (r[i.rs2] & 31)) & _M32
    cpu.pc += 4


def _h_srli(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = r[i.rs1] >> i.imm
    cpu.pc += 4


def _h_srl(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = r[i.rs1] >> (r[i.rs2] & 31)
    cpu.pc += 4


def _h_srai(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (_s32(r[i.rs1]) >> i.imm) & _M32
    cpu.pc += 4


def _h_sra(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = (_s32(r[i.rs1]) >> (r[i.rs2] & 31)) & _M32
    cpu.pc += 4


def _h_slti(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = int(_s32(r[i.rs1]) < i.imm)
    cpu.pc += 4


def _h_slt(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = int(_s32(r[i.rs1]) < _s32(r[i.rs2]))
    cpu.pc += 4


def _h_sltiu(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = int(r[i.rs1] < (i.imm & _M32))
    cpu.pc += 4


def _h_sltu(cpu, i):
    cpu.cycles += cpu.cycle_table["alu"]
    r = cpu.regs
    r[i.rd] = int(r[i.rs1] < r[i.rs2])
    cpu.pc += 4


def _h_mul(cpu, i):
    cpu.cycles += cpu.cycle_table["mul"]
    r = cpu.regs
    r[i.rd] = (_s32(r[i.rs1]) * _s32(r[i.rs2])) & _M32
    cpu.pc += 4


def _h_mulh(cpu, i):
    cpu.cycles += cpu.cycle_table["mul"]
    r = cpu.regs
    r[i.rd] = ((_s32(r[i.rs1]) * _s32(r[i.rs2])) >> 32) & _M32
    cpu.pc += 4


def _h_mulhu(cpu, i):
    cpu.cycles += cpu.cycle_table["mul"]
    r = cpu.regs
    r[i.rd] = ((r[i.rs1] * r[i.rs2]) >> 32) & _M32
    cpu.pc += 4


def _h_mulhsu(cpu, i):
    cpu.cycles += cpu.cycle_table["mul"]
    r = cpu.regs
    r[i.rd] = ((_s32(r[i.rs1]) * r[i.rs2]) >> 32) & _M32
    cpu.pc += 4


def _make_div(mnemonic):
    def handler(cpu, i):
        cpu.cycles += cpu.cycle_table["div"]
        r = cpu.regs
        r[i.rd] = cpu._divide(mnemonic, r[i.rs1], r[i.rs2])
        cpu.pc += 4
    return handler


def _make_branch(compare):
    def handler(cpu, i):
        r = cpu.regs
        if compare(r[i.rs1], r[i.rs2]):
            cpu.cycles += cpu.cycle_table["branch"]
            cpu.pc += i.imm
        else:
            cpu.cycles += cpu.cycle_table["branch_not_taken"]
            cpu.pc += 4
    return handler


def _h_jal(cpu, i):
    cpu.cycles += cpu.cycle_table["jump"]
    pc = cpu.pc
    cpu.regs[i.rd] = (pc + 4) & _M32
    cpu.pc = pc + i.imm


def _h_jalr(cpu, i):
    cpu.cycles += cpu.cycle_table["jump"]
    r = cpu.regs
    target = (r[i.rs1] + i.imm) & ~1 & _M32
    r[i.rd] = (cpu.pc + 4) & _M32
    cpu.pc = target


def _h_lw(cpu, i):
    cpu.cycles += cpu.cycle_table["load"]
    addr = (cpu.regs[i.rs1] + i.imm) & _M32
    if STREAM_READ_BASE <= addr < STREAM_READ_BASE + 1024:
        cpu.pc += 4
        return ("read", (addr - STREAM_READ_BASE) // 4, i.rd)
    cpu._check_mem(addr, 4)
    cpu.regs[i.rd] = int.from_bytes(cpu.memory[addr:addr + 4], "little")
    cpu.pc += 4


def _make_load(mnemonic):
    def handler(cpu, i):
        cpu.cycles += cpu.cycle_table["load"]
        addr = (cpu.regs[i.rs1] + i.imm) & _M32
        if STREAM_READ_BASE <= addr < STREAM_READ_BASE + 1024:
            cpu.pc += 4
            return ("read", (addr - STREAM_READ_BASE) // 4, i.rd)
        cpu.regs[i.rd] = cpu._load(mnemonic, addr)
        cpu.pc += 4
    return handler


def _make_store(mnemonic):
    def handler(cpu, i):
        cpu.cycles += cpu.cycle_table["store"]
        r = cpu.regs
        addr = (r[i.rs1] + i.imm) & _M32
        if STREAM_WRITE_BASE <= addr < STREAM_WRITE_BASE + 1024:
            cpu.pc += 4
            return ("write", (addr - STREAM_WRITE_BASE) // 4,
                    r[i.rs2] & _M32)
        cpu._store(mnemonic, addr, r[i.rs2])
        cpu.pc += 4
    return handler


def _h_ebreak(cpu, i):
    cpu.cycles += cpu.cycle_table["system"]
    cpu.halted = True
    cpu.pc += 4


def _h_ecall(cpu, i):
    cpu.cycles += cpu.cycle_table["system"]
    cpu.pc += 4


_HANDLERS = {
    "addi": _h_addi, "add": _h_add, "sub": _h_sub,
    "lui": _h_lui, "auipc": _h_auipc,
    "andi": _h_andi, "and": _h_and,
    "ori": _h_ori, "or": _h_or,
    "xori": _h_xori, "xor": _h_xor,
    "slli": _h_slli, "sll": _h_sll,
    "srli": _h_srli, "srl": _h_srl,
    "srai": _h_srai, "sra": _h_sra,
    "slti": _h_slti, "slt": _h_slt,
    "sltiu": _h_sltiu, "sltu": _h_sltu,
    "mul": _h_mul, "mulh": _h_mulh,
    "mulhu": _h_mulhu, "mulhsu": _h_mulhsu,
    "div": _make_div("div"), "divu": _make_div("divu"),
    "rem": _make_div("rem"), "remu": _make_div("remu"),
    "beq": _make_branch(lambda a, b: a == b),
    "bne": _make_branch(lambda a, b: a != b),
    "blt": _make_branch(lambda a, b: _s32(a) < _s32(b)),
    "bge": _make_branch(lambda a, b: _s32(a) >= _s32(b)),
    "bltu": _make_branch(lambda a, b: a < b),
    "bgeu": _make_branch(lambda a, b: a >= b),
    "jal": _h_jal, "jalr": _h_jalr,
    "lw": _h_lw, "lh": _make_load("lh"), "lhu": _make_load("lhu"),
    "lb": _make_load("lb"), "lbu": _make_load("lbu"),
    "sw": _make_store("sw"), "sh": _make_store("sh"),
    "sb": _make_store("sb"),
    "ebreak": _h_ebreak, "ecall": _h_ecall,
}
