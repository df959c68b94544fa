"""The symbolic interpreter.

Executes :mod:`repro.cpu` instructions over a :class:`SymState`, keeping
values as either concrete ints or symbolic expressions.  Execution stops
with a typed event the explorer acts on: a symbolic branch (fork point),
path exit, a found bug, or a kill (unsupported operation on symbolic
data — e.g. symbolic pointers, which real engines concretize; we keep
the engine honest and small by killing those paths, documented in
DESIGN.md).

Code is fetched from the static program image (guest code is mapped
read-execute, so it cannot change), keeping decode identical across
backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cpu import isa
from repro.cpu.assembler import Program
from repro.cpu.registers import MASK64
from repro.symex.expr import (
    Expr,
    Value,
    compare,
    is_concrete,
    negate,
    simplify,
    to_expr,
)
from repro.symex.backends import SymState

RSP = 4


@dataclass
class Forked:
    """Reached a branch whose condition is symbolic."""

    condition: Expr  # truth means "branch taken"
    taken_rip: int
    fallthrough_rip: int
    branch_pc: int


@dataclass
class Exited:
    """Path terminated (exit syscall or hlt)."""

    status: Value


@dataclass
class Bug:
    """A bug found on this path (with the triggering condition)."""

    kind: str
    pc: int
    condition: Optional[Expr]  # None = happens unconditionally


@dataclass
class Killed:
    """Path abandoned: unsupported operation on symbolic data."""

    reason: str


@dataclass
class OutOfFuel:
    """Step budget exhausted."""


Event = Union[Forked, Exited, Bug, Killed, OutOfFuel]

_JCC_OP = {
    isa.JE: "eq", isa.JNE: "ne", isa.JL: "slt", isa.JLE: "sle",
    isa.JG: "sgt", isa.JGE: "sge", isa.JB: "ult", isa.JAE: "uge",
}

_ALU_RR = {
    isa.ADDRR: "add", isa.SUBRR: "sub", isa.IMULRR: "mul",
    isa.ANDRR: "and", isa.ORRR: "or", isa.XORRR: "xor",
}
_ALU_RI = {
    isa.ADDRI: "add", isa.SUBRI: "sub", isa.IMULRI: "mul",
    isa.ANDRI: "and", isa.ORRI: "or", isa.XORRI: "xor",
}

SYS_EXIT = 60
#: Console writes are allowed but ignored by the symbolic engine.
SYS_WRITE = 1


class StaticDecoder:
    """Decodes instructions straight from the program image."""

    def __init__(self, program: Program):
        self.program = program
        self._cache: dict[int, tuple] = {}

    def decode(self, rip: int) -> tuple:
        """Decode at *rip*; raises ``KeyError`` outside ``.text`` and
        :class:`repro.cpu.isa.DecodeError` on a bad encoding."""
        cached = self._cache.get(rip)
        if cached is None:
            offset = rip - self.program.text_base
            if not (0 <= offset < len(self.program.text)):
                raise KeyError(f"rip {rip:#x} outside .text")
            cached = self._cache[rip] = isa.decode(self.program.text, rip, offset)
        return cached


class SymMachine:
    """Runs one SymState until the next explorer-visible event."""

    def __init__(self, program: Program, backend, concretizer=None):
        self.decoder = StaticDecoder(program)
        self.backend = backend
        #: Optional hook ``(state, expr) -> int | None``: pick a concrete
        #: value for a symbolic address (adding the binding constraint to
        #: the state) instead of killing the path — KLEE-style address
        #: concretization.  None (or a hook returning None) falls back to
        #: killing the path.
        self.concretizer = concretizer
        #: Number of symbolic values concretized via the hook.
        self.concretizations = 0
        #: Branch PCs executed (for coverage-driven strategies).
        self.instructions = 0

    def _resolve(self, state: SymState, value: Value, what: str) -> int:
        """Force *value* concrete, concretizing through the hook if set."""
        if is_concrete(value):
            return value
        if self.concretizer is not None:
            concrete = self.concretizer(state, value)
            if concrete is not None:
                self.concretizations += 1
                return concrete
        raise _Kill(f"symbolic {what}")

    def _mem_addr(self, state: SymState, base: Value, disp: int) -> int:
        """Effective address ``base + disp``, concretizing if needed."""
        if is_concrete(base):
            return (base + disp) & MASK64
        return (self._resolve(state, base, "base register in address")
                + disp) & MASK64

    def _mem_addr_x(self, state: SymState, base: Value, index: Value,
                    scale: int, disp: int) -> int:
        """Effective address ``base + index*scale + disp``."""
        if is_concrete(base) and is_concrete(index):
            return (base + index * scale + disp) & MASK64
        # Concretize the whole effective-address expression at once, so
        # the binding constraint covers the combined computation.
        scaled = simplify("mul", index, scale)
        effective = simplify("add", simplify("add", base, scaled), disp)
        return self._resolve(state, effective, "register in indexed address")

    # ------------------------------------------------------------------
    # Memory access combining overlay (symbolic) and backend (concrete)
    # ------------------------------------------------------------------

    def _load(self, state: SymState, addr: Value, size: int) -> Value:
        if not is_concrete(addr):
            raise _Kill("symbolic pointer on load")
        sym = state.overlay.get((addr, size))
        if sym is not None:
            return sym
        for (o_addr, o_size) in state.overlay:
            if o_addr < addr + size and addr < o_addr + o_size:
                raise _Kill("partially-overlapping symbolic load")
        return self.backend.read(state.mem, addr, size)

    def _store(self, state: SymState, addr: Value, value: Value, size: int) -> None:
        if not is_concrete(addr):
            raise _Kill("symbolic pointer on store")
        for key in [k for k in state.overlay
                    if k[0] < addr + size and addr < k[0] + k[1]]:
            if key != (addr, size):
                raise _Kill("partially-overlapping symbolic store")
            del state.overlay[key]
        if is_concrete(value):
            self.backend.write(state.mem, addr, value, size)
        else:
            state.overlay[(addr, size)] = value

    # ------------------------------------------------------------------

    def run(self, state: SymState, max_steps: int = 200_000) -> Event:
        """Execute until fork / exit / bug / kill / fuel exhaustion."""
        from repro.mem.faults import PageFaultError

        try:
            return self._run(state, max_steps)
        except _Kill as kill:
            return Killed(str(kill))
        except (KeyError, isa.DecodeError, PageFaultError) as err:
            return Killed(f"memory/decode error: {err}")

    def _run(self, state: SymState, max_steps: int) -> Event:
        decoder = self.decoder
        g = state.regs
        I = isa
        for _ in range(max_steps):
            d = decoder.decode(state.rip)
            op = d[0]
            state.steps += 1
            self.instructions += 1

            if op == I.MOVI:
                g[d[1]] = d[2]
                state.rip = d[3]
            elif op == I.MOVR:
                g[d[1]] = g[d[2]]
                state.rip = d[3]
            elif op == I.LOAD or op == I.LOADB:
                size = 8 if op == I.LOAD else 1
                g[d[1]] = self._load(state, self._mem_addr(state, g[d[2]], d[3]), size)
                state.rip = d[4]
            elif op == I.STORE or op == I.STOREB:
                size = 8 if op == I.STORE else 1
                value = g[d[3]]
                if size == 1 and not is_concrete(value):
                    value = simplify("and", value, 0xFF)
                elif size == 1:
                    value &= 0xFF
                self._store(state, self._mem_addr(state, g[d[1]], d[2]), value, size)
                state.rip = d[4]
            elif op == I.LOADX or op == I.LOADBX:
                size = 8 if op == I.LOADX else 1
                addr = self._mem_addr_x(state, g[d[2]], g[d[3]], d[4], d[5])
                g[d[1]] = self._load(state, addr, size)
                state.rip = d[6]
            elif op == I.STOREX or op == I.STOREBX:
                size = 8 if op == I.STOREX else 1
                addr = self._mem_addr_x(state, g[d[1]], g[d[2]], d[3], d[4])
                value = g[d[5]]
                if size == 1:
                    value = (value & 0xFF) if is_concrete(value) \
                        else simplify("and", value, 0xFF)
                self._store(state, addr, value, size)
                state.rip = d[6]
            elif op == I.LEA:
                g[d[1]] = simplify("add", g[d[2]], d[3])
                state.rip = d[4]
            elif op == I.LEAX:
                scaled = simplify("mul", g[d[3]], d[4])
                g[d[1]] = simplify("add", simplify("add", g[d[2]], scaled), d[5])
                state.rip = d[6]

            elif op in _ALU_RR:
                g[d[1]] = simplify(_ALU_RR[op], g[d[1]], g[d[2]])
                state.flags = ("move", g[d[1]], 0)
                state.rip = d[3]
            elif op in _ALU_RI:
                g[d[1]] = simplify(_ALU_RI[op], g[d[1]], d[2] & MASK64)
                state.flags = ("move", g[d[1]], 0)
                state.rip = d[3]
            elif op == I.SHLI:
                g[d[1]] = simplify("shl", g[d[1]], d[2] & 63)
                state.rip = d[3]
            elif op == I.SHRI:
                g[d[1]] = simplify("shr", g[d[1]], d[2] & 63)
                state.rip = d[3]
            elif op == I.INC:
                g[d[1]] = simplify("add", g[d[1]], 1)
                state.flags = ("move", g[d[1]], 0)
                state.rip = d[2]
            elif op == I.DEC:
                g[d[1]] = simplify("sub", g[d[1]], 1)
                state.flags = ("move", g[d[1]], 0)
                state.rip = d[2]
            elif op == I.NEG:
                g[d[1]] = simplify("sub", 0, g[d[1]])
                state.rip = d[2]
            elif op == I.NOT:
                g[d[1]] = simplify("xor", g[d[1]], MASK64)
                state.rip = d[2]

            elif op == I.CMPRR:
                state.flags = ("cmp", g[d[1]], g[d[2]])
                state.rip = d[3]
            elif op == I.CMPRI:
                state.flags = ("cmp", g[d[1]], d[2] & MASK64)
                state.rip = d[3]
            elif op == I.TESTRR:
                state.flags = ("test", g[d[1]], g[d[2]])
                state.rip = d[3]

            elif op == I.UDIVRR or op == I.UMODRR:
                divisor = g[d[2]]
                if not is_concrete(divisor):
                    return Bug(
                        "possible-divide-by-zero", state.rip,
                        condition=_as_cond(compare("eq", divisor, 0)),
                    )
                if divisor == 0:
                    return Bug("divide-by-zero", state.rip, condition=None)
                dividend = g[d[1]]
                if not is_concrete(dividend):
                    raise _Kill("symbolic dividend")
                g[d[1]] = dividend // divisor if op == I.UDIVRR \
                    else dividend % divisor
                state.rip = d[3]

            elif op == I.JMP:
                state.rip = d[1]
            elif op in _JCC_OP:
                cond = self._condition(state, _JCC_OP[op])
                if is_concrete(cond):
                    state.rip = d[1] if cond else d[2]
                else:
                    return Forked(
                        condition=cond,
                        taken_rip=d[1],
                        fallthrough_rip=d[2],
                        branch_pc=state.rip,
                    )

            elif op == I.CALL:
                rsp = self._resolve(state, g[RSP], "rsp") - 8
                self._store(state, rsp, d[2], 8)
                g[RSP] = rsp
                state.rip = d[1]
            elif op == I.RET:
                rsp = self._resolve(state, g[RSP], "rsp")
                target = self._load(state, rsp, 8)
                g[RSP] = rsp + 8
                state.rip = self._resolve(state, target, "return address")
            elif op == I.PUSH:
                rsp = self._resolve(state, g[RSP], "rsp") - 8
                self._store(state, rsp, g[d[1]], 8)
                g[RSP] = rsp
                state.rip = d[2]
            elif op == I.POP:
                rsp = self._resolve(state, g[RSP], "rsp")
                g[d[1]] = self._load(state, rsp, 8)
                g[RSP] = rsp + 8
                state.rip = d[2]

            elif op == I.NOP:
                state.rip = d[1]
            elif op == I.SYSCALL:
                state.rip = d[1]
                number = self._resolve(state, g[0], "syscall number")
                if number == SYS_EXIT:
                    return Exited(status=g[7])  # rdi
                if number == SYS_WRITE:
                    g[0] = g[2]  # pretend full write; output ignored
                    continue
                raise _Kill(f"unsupported syscall #{number} in symbolic mode")
            elif op == I.HLT:
                return Exited(status=g[0])
            else:
                raise _Kill(f"unsupported opcode {op:#x}")
        return OutOfFuel()

    def _condition(self, state: SymState, cmp_op: str) -> Value:
        flags = state.flags
        if flags is None:
            raise _Kill("conditional jump with no flags set")
        kind, lhs, rhs = flags
        if kind == "cmp":
            return compare(cmp_op, lhs, rhs)
        if kind == "test":
            anded = simplify("and", lhs, rhs)
            zero = compare("eq", anded, 0)
            mapping = {"eq": zero}
            if cmp_op == "eq":
                return zero
            if cmp_op == "ne":
                return negate(to_expr(zero)) if not is_concrete(zero) \
                    else int(not zero)
            raise _Kill(f"unsupported jcc {cmp_op!r} after test")
        # "move": flags from an ALU result (compare result against 0).
        if cmp_op in ("eq", "ne", "slt", "sle", "sgt", "sge"):
            return compare(cmp_op, lhs, 0)
        raise _Kill(f"unsupported jcc {cmp_op!r} after ALU result")


class _Kill(Exception):
    pass


def _as_cond(value: Value) -> Expr:
    return to_expr(value)
