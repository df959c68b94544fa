"""The interpreter's if/elif opcode chain, kept as a test oracle.

This is the fetch/decode/execute loop the two-tier interpreter replaced,
unchanged: it tests one ``op == I.X`` arm after another and computes
every flag an instruction writes.  It shares the exit record and the
exception types with :mod:`repro.cpu.interpreter`, so the differential
tests compare the two exit for exit.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu import isa
from repro.cpu.interpreter import (
    DivideError,
    InvalidOpcodeError,
    VmExit,
    VmExitReason,
)
from repro.cpu.registers import MASK64, RegisterFile
from repro.mem.addrspace import AddressSpace
from repro.mem.faults import PageFaultError

_SIGN_BIT = 1 << 63


def _signed(value: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed."""
    return value - (1 << 64) if value & _SIGN_BIT else value


class ReferenceInterpreter:
    """Executes decoded instructions over an address space.

    Parameters
    ----------
    space:
        The guest address space (swappable via :meth:`attach_space` when
        the scheduler restores a snapshot).
    regs:
        The mutable register file (default: fresh zeroed file).
    icache:
        Optional shared decode cache.  The machine engine passes one
        cache across all snapshot restores of the same program.
    """

    def __init__(
        self,
        space: AddressSpace,
        regs: Optional[RegisterFile] = None,
        icache: Optional[dict] = None,
    ):
        self.space = space
        self.regs = regs if regs is not None else RegisterFile()
        self._icache: dict[int, tuple] = icache if icache is not None else {}
        #: Total instructions executed over this interpreter's lifetime.
        self.instructions_executed = 0

    def attach_space(self, space: AddressSpace) -> None:
        """Point the CPU at a different address space (snapshot restore)."""
        self.space = space

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def _decode(self, rip: int) -> tuple:
        # Fetch the opcode byte alone first: an undefined opcode is #UD
        # even when the bytes after it are unmapped.
        space = self.space
        opcode = space.fetch(rip, 1)[0]
        if opcode not in isa.OPCODES:
            raise InvalidOpcodeError(rip, opcode)
        try:
            return isa.decode(space.fetch(rip, isa.insn_length(opcode)), rip)
        except isa.DecodeError:
            # A register operand outside r0..r15 is an invalid encoding,
            # not a host error.
            raise InvalidOpcodeError(rip, opcode) from None

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------

    def step(self) -> VmExit:
        """Execute exactly one instruction (slow path, used in tests)."""
        return self.run(max_steps=1)

    def run(self, max_steps: Optional[int] = None) -> VmExit:
        """Run until syscall/hlt/fault or *max_steps* instructions."""
        regs = self.regs
        g = regs.gprs
        space = self.space
        icache = self._icache
        read_word = space.read_word
        write_word = space.write_word
        read_byte = space.read_byte
        write_byte = space.write_byte
        rip = regs.rip
        zf, sf, cf, of = regs.zf, regs.sf, regs.cf, regs.of
        steps = 0
        budget = max_steps if max_steps is not None else -1

        def sync_out() -> None:
            regs.rip = rip
            regs.zf, regs.sf, regs.cf, regs.of = zf, sf, cf, of
            self.instructions_executed += steps

        I = isa
        try:
            while True:
                if steps == budget:
                    sync_out()
                    return VmExit(VmExitReason.STEP_LIMIT, steps)
                d = icache.get(rip)
                if d is None:
                    d = self._decode(rip)
                    icache[rip] = d
                op = d[0]
                steps += 1

                if op == I.MOVI:
                    g[d[1]] = d[2]
                    rip = d[3]
                elif op == I.MOVR:
                    g[d[1]] = g[d[2]]
                    rip = d[3]
                elif op == I.LOAD:
                    g[d[1]] = read_word((g[d[2]] + d[3]) & MASK64)
                    rip = d[4]
                elif op == I.STORE:
                    write_word((g[d[1]] + d[2]) & MASK64, g[d[3]])
                    rip = d[4]
                elif op == I.LOADB:
                    g[d[1]] = read_byte((g[d[2]] + d[3]) & MASK64)
                    rip = d[4]
                elif op == I.STOREB:
                    write_byte((g[d[1]] + d[2]) & MASK64, g[d[3]])
                    rip = d[4]
                elif op == I.LOADX:
                    addr = (g[d[2]] + g[d[3]] * d[4] + d[5]) & MASK64
                    g[d[1]] = read_word(addr)
                    rip = d[6]
                elif op == I.STOREX:
                    addr = (g[d[1]] + g[d[2]] * d[3] + d[4]) & MASK64
                    write_word(addr, g[d[5]])
                    rip = d[6]
                elif op == I.LOADBX:
                    addr = (g[d[2]] + g[d[3]] * d[4] + d[5]) & MASK64
                    g[d[1]] = read_byte(addr)
                    rip = d[6]
                elif op == I.STOREBX:
                    addr = (g[d[1]] + g[d[2]] * d[3] + d[4]) & MASK64
                    write_byte(addr, g[d[5]])
                    rip = d[6]
                elif op == I.LEA:
                    g[d[1]] = (g[d[2]] + d[3]) & MASK64
                    rip = d[4]
                elif op == I.LEAX:
                    g[d[1]] = (g[d[2]] + g[d[3]] * d[4] + d[5]) & MASK64
                    rip = d[6]

                elif op == I.ADDRR or op == I.ADDRI:
                    a = g[d[1]]
                    b = g[d[2]] if op == I.ADDRR else d[2] & MASK64
                    full = a + b
                    res = full & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = full > MASK64
                    of = bool(~(a ^ b) & (a ^ res) & _SIGN_BIT)
                    rip = d[3]
                elif op == I.SUBRR or op == I.SUBRI:
                    a = g[d[1]]
                    b = g[d[2]] if op == I.SUBRR else d[2] & MASK64
                    res = (a - b) & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = a < b
                    of = bool((a ^ b) & (a ^ res) & _SIGN_BIT)
                    rip = d[3]
                elif op == I.CMPRR or op == I.CMPRI:
                    a = g[d[1]]
                    b = g[d[2]] if op == I.CMPRR else d[2] & MASK64
                    res = (a - b) & MASK64
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = a < b
                    of = bool((a ^ b) & (a ^ res) & _SIGN_BIT)
                    rip = d[3]
                elif op == I.TESTRR:
                    res = g[d[1]] & g[d[2]]
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = of = False
                    rip = d[3]
                elif op == I.IMULRR or op == I.IMULRI:
                    a = _signed(g[d[1]])
                    b = _signed(g[d[2]]) if op == I.IMULRR else d[2]
                    res = (a * b) & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    rip = d[3]
                elif op == I.ANDRR or op == I.ANDRI:
                    res = g[d[1]] & (g[d[2]] if op == I.ANDRR else d[2] & MASK64)
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = of = False
                    rip = d[3]
                elif op == I.ORRR or op == I.ORRI:
                    res = g[d[1]] | (g[d[2]] if op == I.ORRR else d[2] & MASK64)
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = of = False
                    rip = d[3]
                elif op == I.XORRR or op == I.XORRI:
                    res = g[d[1]] ^ (g[d[2]] if op == I.XORRR else d[2] & MASK64)
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = of = False
                    rip = d[3]
                elif op == I.SHLI:
                    res = (g[d[1]] << (d[2] & 63)) & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    rip = d[3]
                elif op == I.SHRI:
                    res = g[d[1]] >> (d[2] & 63)
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    rip = d[3]
                elif op == I.NEG:
                    res = (-g[d[1]]) & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    cf = res != 0
                    rip = d[2]
                elif op == I.NOT:
                    g[d[1]] = g[d[1]] ^ MASK64
                    rip = d[2]
                elif op == I.INC:
                    res = (g[d[1]] + 1) & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    rip = d[2]
                elif op == I.DEC:
                    res = (g[d[1]] - 1) & MASK64
                    g[d[1]] = res
                    zf = res == 0
                    sf = bool(res & _SIGN_BIT)
                    rip = d[2]
                elif op == I.UDIVRR or op == I.UMODRR:
                    divisor = g[d[2]]
                    if divisor == 0:
                        raise DivideError(f"division by zero at {rip:#x}")
                    if op == I.UDIVRR:
                        g[d[1]] = g[d[1]] // divisor
                    else:
                        g[d[1]] = g[d[1]] % divisor
                    rip = d[3]

                elif op == I.JMP:
                    rip = d[1]
                elif op == I.JE:
                    rip = d[1] if zf else d[2]
                elif op == I.JNE:
                    rip = d[2] if zf else d[1]
                elif op == I.JL:
                    rip = d[1] if sf != of else d[2]
                elif op == I.JLE:
                    rip = d[1] if zf or sf != of else d[2]
                elif op == I.JG:
                    rip = d[1] if not zf and sf == of else d[2]
                elif op == I.JGE:
                    rip = d[1] if sf == of else d[2]
                elif op == I.JB:
                    rip = d[1] if cf else d[2]
                elif op == I.JAE:
                    rip = d[2] if cf else d[1]

                elif op == I.CALL:
                    rsp = (g[4] - 8) & MASK64
                    write_word(rsp, d[2])  # return address
                    g[4] = rsp
                    rip = d[1]
                elif op == I.RET:
                    rsp = g[4]
                    rip = read_word(rsp)
                    g[4] = (rsp + 8) & MASK64
                elif op == I.PUSH:
                    rsp = (g[4] - 8) & MASK64
                    write_word(rsp, g[d[1]])
                    g[4] = rsp
                    rip = d[2]
                elif op == I.POP:
                    rsp = g[4]
                    g[d[1]] = read_word(rsp)
                    g[4] = (rsp + 8) & MASK64
                    rip = d[2]

                elif op == I.NOP:
                    rip = d[1]
                elif op == I.SYSCALL:
                    rip = d[1]  # resume after the syscall instruction
                    sync_out()
                    return VmExit(VmExitReason.SYSCALL, steps)
                elif op == I.HLT:
                    rip = d[1]
                    sync_out()
                    return VmExit(VmExitReason.HLT, steps)
                else:  # pragma: no cover - table and executor kept in sync
                    raise InvalidOpcodeError(rip, op)
        except PageFaultError as fault:
            # rip still points at the faulting instruction.
            sync_out()
            return VmExit(VmExitReason.PAGE_FAULT, steps, fault)
        except (DivideError, InvalidOpcodeError) as fault:
            sync_out()
            return VmExit(VmExitReason.CPU_EXCEPTION, steps, fault)
