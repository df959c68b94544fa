"""Dataflow passes: intervals, init tracking, scopes, step bounds.

The core is an unsigned-interval abstract interpretation over the CFG,
in the style of an eBPF verifier's value tracking:

* every register holds an interval ``[lo, hi]`` with
  ``0 <= lo <= hi <= 2**64 - 1``; the loader zeroes the file, so
  registers start at the *precise* value ``[0, 0]`` (which is what makes
  null-pointer dereferences through never-written bases provable);
* loops converge via *threshold widening*: instead of jumping straight
  to ``[0, 2**64)``, growing bounds snap to the nearest program constant
  (``cmp``/``mov`` immediates), so the usual ``inc / cmp / jl`` loop
  shape keeps its exact trip bound;
* conditional edges are *refined*: a ``cmp a, b`` feeding a ``jcc``
  intersects both operands with the branch condition on each out-edge,
  and an edge whose refinement is empty is infeasible and pruned;
* system-call sites are classified from the abstract ``rax``;
  ``exit``/``guess_fail`` sites are non-returning, so their fall-through
  edges are pruned and the whole fixpoint re-runs until the
  classification stabilises.

Alongside the fixpoint this module derives the *facts* the lint layer
consumes: uninitialised-register reads, memory-operand address
intervals, division sites, per-site syscall classification, guess-scope
reachability sets, and worst-case step bounds per guess scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import ControlFlowGraph, Insn
from repro.core import sysno
from repro.cpu import isa
from repro.cpu.registers import MASK64, RAX, RDI, RSP
from repro.mem.layout import STACK_TOP

Interval = tuple[int, int]

TOP: Interval = (0, MASK64)
_SIGNED_MAX = 1 << 63  # intervals below this behave identically signed/unsigned

#: Fixpoint pass at which joins start widening to thresholds.
_WIDEN_PASS = 3
#: Pass at which widening falls back to the trivial threshold set.
_BLOW_PASS = 40
#: Hard cap on fixpoint passes (the widened lattice converges long before).
_MAX_PASSES = 60
#: Rounds of (fixpoint, reclassify syscalls, prune noreturn edges).
_MAX_CLASSIFY_ROUNDS = 4

_GUESS_KINDS = frozenset({sysno.SYS_GUESS, sysno.SYS_GUESS_HINT})
_NORETURN_KINDS = frozenset({sysno.SYS_EXIT, sysno.SYS_GUESS_FAIL})


# -- interval arithmetic -----------------------------------------------


def const(value: int) -> Interval:
    value &= MASK64
    return (value, value)


def _fits(lo: int, hi: int) -> Interval:
    """The interval if it stays inside u64, else TOP (wraparound)."""
    if 0 <= lo <= hi <= MASK64:
        return (lo, hi)
    return TOP


def iv_add(a: Interval, b: Interval) -> Interval:
    return _fits(a[0] + b[0], a[1] + b[1])


def iv_sub(a: Interval, b: Interval) -> Interval:
    return _fits(a[0] - b[1], a[1] - b[0])


def iv_mul(a: Interval, b: Interval) -> Interval:
    return _fits(a[0] * b[0], a[1] * b[1])


def iv_and(a: Interval, b: Interval) -> Interval:
    if a[0] == a[1] and b[0] == b[1]:
        return const(a[0] & b[0])
    return (0, min(a[1], b[1]))


def iv_or(a: Interval, b: Interval) -> Interval:
    if a[0] == a[1] and b[0] == b[1]:
        return const(a[0] | b[0])
    bits = max(a[1].bit_length(), b[1].bit_length())
    return (max(a[0], b[0]), min((1 << bits) - 1, MASK64))


def iv_xor(a: Interval, b: Interval) -> Interval:
    if a[0] == a[1] and b[0] == b[1]:
        return const(a[0] ^ b[0])
    bits = max(a[1].bit_length(), b[1].bit_length())
    return (0, min((1 << bits) - 1, MASK64))


def iv_shl(a: Interval, count: int) -> Interval:
    count &= 63
    return _fits(a[0] << count, a[1] << count)


def iv_shr(a: Interval, count: int) -> Interval:
    count &= 63
    return (a[0] >> count, a[1] >> count)


def iv_udiv(a: Interval, b: Interval) -> Interval:
    divisor_lo = max(b[0], 1)
    divisor_hi = max(b[1], 1)
    return (a[0] // divisor_hi, a[1] // divisor_lo)


def iv_umod(a: Interval, b: Interval) -> Interval:
    if b[1] == 0:
        return (0, 0)  # traps anyway; lint reports it
    return (0, min(a[1], b[1] - 1))


def iv_neg(a: Interval) -> Interval:
    if a == (0, 0):
        return (0, 0)
    if a[0] == a[1]:
        return const(-a[0])
    return TOP


def iv_not(a: Interval) -> Interval:
    return (a[1] ^ MASK64, a[0] ^ MASK64)


def iv_join(a: Interval, b: Interval) -> Interval:
    return (min(a[0], b[0]), max(a[1], b[1]))


def iv_intersect(a: Interval, b: Interval) -> Interval | None:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


# -- abstract state ----------------------------------------------------


class AbsState:
    """Per-program-point abstraction: 16 intervals + a must-init mask."""

    __slots__ = ("regs", "init")

    def __init__(self, regs: list[Interval], init: int) -> None:
        self.regs = regs
        self.init = init

    @classmethod
    def entry(cls) -> "AbsState":
        # The loader zeroes every register, then points rsp at the
        # stack top; only rsp counts as deliberately initialised.
        regs: list[Interval] = [(0, 0)] * 16
        regs[RSP] = const(STACK_TOP)
        return cls(regs, 1 << RSP)

    def copy(self) -> "AbsState":
        return AbsState(list(self.regs), self.init)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AbsState)
            and self.regs == other.regs
            and self.init == other.init
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((tuple(self.regs), self.init))


def _widen_bound(
    old: Interval, new: Interval, thresholds: list[int]
) -> Interval:
    """Widening join: growing bounds snap to the next threshold."""
    lo, hi = old
    if new[0] < lo:
        lo = 0
        for t in reversed(thresholds):
            if t <= new[0]:
                lo = t
                break
    if new[1] > hi:
        hi = MASK64
        for t in thresholds:
            if t >= new[1]:
                hi = t
                break
    return (lo, hi)


def join_states(
    old: AbsState, new: AbsState, thresholds: list[int] | None
) -> AbsState:
    """Hull join, with threshold widening when *thresholds* is given."""
    regs: list[Interval] = []
    for a, b in zip(old.regs, new.regs):
        hull = iv_join(a, b)
        if thresholds is not None and hull != a:
            hull = _widen_bound(a, hull, thresholds)
        regs.append(hull)
    return AbsState(regs, old.init & new.init)


# -- facts -------------------------------------------------------------


@dataclass(frozen=True)
class SyscallFact:
    """One syscall site with its abstract in-state."""

    pc: int
    rax: Interval
    rdi: Interval
    #: Resolved syscall number, or None when rax is not a constant.
    number: int | None
    #: Abstract rsi/rdx at the site (the file-effect domain reads
    #: these: flags, offsets, lengths, destination paths).
    rsi: Interval = TOP
    rdx: Interval = TOP

    @property
    def name(self) -> str:
        if self.number is None:
            return "<unknown>"
        return sysno.syscall_name(self.number)


@dataclass(frozen=True)
class MemAccess:
    """A load/store with the abstract address interval of its operand."""

    pc: int
    addr: Interval | None  # None when statically unbounded
    width: int  # 1 or 8 bytes
    is_write: bool


@dataclass(frozen=True)
class DivSite:
    """A udiv/umod with the abstract divisor interval."""

    pc: int
    divisor: Interval


@dataclass(frozen=True)
class UninitRead:
    """A register read on a path where it was never written."""

    pc: int
    reg: int


@dataclass
class _Facts:
    syscalls: dict[int, SyscallFact] = field(default_factory=dict)
    mem_accesses: list[MemAccess] = field(default_factory=list)
    div_sites: list[DivSite] = field(default_factory=list)
    uninit_reads: list[UninitRead] = field(default_factory=list)


#: Address intervals wider than this are treated as statically unknown.
_MAX_ADDR_SPAN = 1 << 32

#: Intra-block flag provenance: see :attr:`_Transfer.flag_src`.
FlagSource = tuple[str, int, int, "int | None"]

# Flag-source kinds tracked intra-block for branch refinement.
_FLAG_ALU = frozenset({
    isa.ADDRR, isa.ADDRI, isa.SUBRR, isa.SUBRI, isa.IMULRR, isa.IMULRI,
    isa.ANDRR, isa.ANDRI, isa.ORRR, isa.ORRI, isa.XORRR, isa.XORRI,
    isa.SHLI, isa.SHRI, isa.NEG, isa.INC, isa.DEC,
})


class _Transfer:
    """Abstract transfer over one instruction, with optional recording."""

    def __init__(self, facts: _Facts | None = None) -> None:
        self.facts = facts
        #: ``("cmp", dst_reg, src_reg, imm)`` (src_reg < 0 means the
        #: imm operand is live) or ``("zero", reg, -1, None)`` for an
        #: ALU result whose only refinable relation is the zero test;
        #: None when flags are unknown at this point.
        self.flag_src: FlagSource | None = None

    # -- recording helpers ---------------------------------------------

    def _read(self, state: AbsState, reg: int, pc: int) -> Interval:
        if self.facts is not None and not (state.init >> reg) & 1:
            self.facts.uninit_reads.append(UninitRead(pc, reg))
        return state.regs[reg]

    def _write(self, state: AbsState, reg: int, value: Interval) -> None:
        state.regs[reg] = value
        state.init |= 1 << reg
        if self.flag_src is not None:
            kind = self.flag_src[0]
            if (kind == "zero" and self.flag_src[1] == reg) or (
                kind == "cmp" and reg in (self.flag_src[1], self.flag_src[2])
            ):
                self.flag_src = None

    def _mem(
        self, pc: int, addr: Interval, width: int, is_write: bool
    ) -> None:
        if self.facts is None:
            return
        bounded: Interval | None = addr
        if addr == TOP or addr[1] - addr[0] > _MAX_ADDR_SPAN:
            bounded = None
        self.facts.mem_accesses.append(MemAccess(pc, bounded, width, is_write))

    # -- the transfer proper -------------------------------------------

    def step(self, state: AbsState, insn: Insn) -> None:
        """Apply *insn* to *state* in place."""
        op = insn.opcode
        f = insn.fields
        pc = insn.pc
        I = isa

        if op == I.MOVI:
            self._write(state, f[0], const(f[1]))
        elif op == I.MOVR:
            self._write(state, f[0], self._read(state, f[1], pc))
        elif op in (I.LOAD, I.LOADB):
            addr = iv_add(self._read(state, f[1], pc), const(f[2]))
            width = 8 if op == I.LOAD else 1
            self._mem(pc, addr, width, is_write=False)
            self._write(state, f[0], TOP if op == I.LOAD else (0, 255))
        elif op in (I.STORE, I.STOREB):
            addr = iv_add(self._read(state, f[0], pc), const(f[1]))
            self._read(state, f[2], pc)
            self._mem(pc, addr, 8 if op == I.STORE else 1, is_write=True)
        elif op in (I.LOADX, I.LOADBX):
            base = self._read(state, f[1], pc)
            idx = self._read(state, f[2], pc)
            addr = iv_add(iv_add(base, iv_mul(idx, const(f[3]))), const(f[4]))
            width = 8 if op == I.LOADX else 1
            self._mem(pc, addr, width, is_write=False)
            self._write(state, f[0], TOP if op == I.LOADX else (0, 255))
        elif op in (I.STOREX, I.STOREBX):
            base = self._read(state, f[0], pc)
            idx = self._read(state, f[1], pc)
            addr = iv_add(iv_add(base, iv_mul(idx, const(f[2]))), const(f[3]))
            self._read(state, f[4], pc)
            self._mem(pc, addr, 8 if op == I.STOREX else 1, is_write=True)
        elif op == I.LEA:
            self._write(
                state, f[0], iv_add(self._read(state, f[1], pc), const(f[2]))
            )
        elif op == I.LEAX:
            base = self._read(state, f[1], pc)
            idx = self._read(state, f[2], pc)
            self._write(
                state, f[0],
                iv_add(iv_add(base, iv_mul(idx, const(f[3]))), const(f[4])),
            )
        elif op in (I.ADDRR, I.ADDRI, I.SUBRR, I.SUBRI, I.IMULRR, I.IMULRI,
                    I.ANDRR, I.ANDRI, I.ORRR, I.ORRI, I.XORRR, I.XORRI):
            dst = self._read(state, f[0], pc)
            if op in (I.ADDRR, I.SUBRR, I.IMULRR, I.ANDRR, I.ORRR, I.XORRR):
                src = self._read(state, f[1], pc)
            else:
                src = const(f[1])
            if op in (I.ADDRR, I.ADDRI):
                res = iv_add(dst, src)
            elif op in (I.SUBRR, I.SUBRI):
                res = iv_sub(dst, src)
            elif op in (I.IMULRR, I.IMULRI):
                res = iv_mul(dst, src)
            elif op in (I.ANDRR, I.ANDRI):
                res = iv_and(dst, src)
            elif op in (I.ORRR, I.ORRI):
                res = iv_or(dst, src)
            else:
                if op == I.XORRR and f[0] == f[1]:
                    res = (0, 0)  # the canonical zeroing idiom
                else:
                    res = iv_xor(dst, src)
            self._write(state, f[0], res)
            self.flag_src = ("zero", f[0], -1, None)
        elif op == I.SHLI:
            self._write(
                state, f[0], iv_shl(self._read(state, f[0], pc), f[1])
            )
            self.flag_src = ("zero", f[0], -1, None)
        elif op == I.SHRI:
            self._write(
                state, f[0], iv_shr(self._read(state, f[0], pc), f[1])
            )
            self.flag_src = ("zero", f[0], -1, None)
        elif op == I.NEG:
            self._write(state, f[0], iv_neg(self._read(state, f[0], pc)))
            self.flag_src = ("zero", f[0], -1, None)
        elif op == I.NOT:
            self._write(state, f[0], iv_not(self._read(state, f[0], pc)))
        elif op in (I.INC, I.DEC):
            val = self._read(state, f[0], pc)
            delta = const(1)
            res = iv_add(val, delta) if op == I.INC else iv_sub(val, delta)
            self._write(state, f[0], res)
            self.flag_src = ("zero", f[0], -1, None)
        elif op in (I.UDIVRR, I.UMODRR):
            dst = self._read(state, f[0], pc)
            src = self._read(state, f[1], pc)
            if self.facts is not None:
                self.facts.div_sites.append(DivSite(pc, src))
            res = iv_udiv(dst, src) if op == I.UDIVRR else iv_umod(dst, src)
            self._write(state, f[0], res)
        elif op == I.CMPRR:
            self._read(state, f[0], pc)
            self._read(state, f[1], pc)
            self.flag_src = ("cmp", f[0], f[1], None)
        elif op == I.CMPRI:
            self._read(state, f[0], pc)
            self.flag_src = ("cmp", f[0], -1, f[1])
        elif op == I.TESTRR:
            self._read(state, f[0], pc)
            self._read(state, f[1], pc)
            # test r, r is the zero-test idiom; mixed regs carry no
            # refinable relation.
            self.flag_src = ("zero", f[0], -1, None) if f[0] == f[1] else None
        elif op == I.PUSH:
            self._read(state, f[0], pc)
            state.regs[RSP] = iv_sub(state.regs[RSP], const(8))
        elif op == I.POP:
            self._write(state, f[0], TOP)
            state.regs[RSP] = iv_add(state.regs[RSP], const(8))
        elif op == I.CALL:
            state.regs[RSP] = iv_sub(state.regs[RSP], const(8))
        elif op == I.RET:
            state.regs[RSP] = iv_add(state.regs[RSP], const(8))
        elif op == I.SYSCALL:
            self._syscall(state, insn)
        # JMP/Jcc/NOP/HLT: no register effect.

    def _syscall(self, state: AbsState, insn: Insn) -> None:
        rax = self._read(state, RAX, insn.pc)
        rdi = state.regs[RDI]
        number = rax[0] if rax[0] == rax[1] else None
        if self.facts is not None:
            self.facts.syscalls[insn.pc] = SyscallFact(
                insn.pc, rax, rdi, number,
                rsi=state.regs[6], rdx=state.regs[2],
            )
            if number in _GUESS_KINDS or number == sysno.SYS_GUESS_STRATEGY \
                    or number == sysno.SYS_BRK or number == sysno.SYS_EXIT:
                self._read(state, RDI, insn.pc)
            elif number in (sysno.SYS_READ, sysno.SYS_WRITE):
                self._read(state, RDI, insn.pc)
                self._read(state, 6, insn.pc)  # rsi
                self._read(state, 2, insn.pc)  # rdx
            elif number == sysno.SYS_GUESS_HINT:
                self._read(state, RDI, insn.pc)
                self._read(state, 6, insn.pc)
            elif number in (sysno.SYS_FSYNC, sysno.SYS_CRASH_SELECT,
                            sysno.SYS_CRASH_OPTS):
                self._read(state, RDI, insn.pc)  # fd / point / dim index
            elif number in (sysno.SYS_RENAME, sysno.SYS_CRASH_SET):
                self._read(state, RDI, insn.pc)
                self._read(state, 6, insn.pc)  # rsi: dst path / option
        if number in _GUESS_KINDS and rdi[1] >= 1:
            result: Interval = (0, rdi[1] - 1)
        else:
            result = TOP
        self._write(state, RAX, result)


# -- branch refinement -------------------------------------------------

#: jcc opcode -> relation that holds on the *taken* edge.
_TAKEN_REL = {
    isa.JE: "eq", isa.JNE: "ne",
    isa.JL: "slt", isa.JLE: "sle", isa.JG: "sgt", isa.JGE: "sge",
    isa.JB: "ult", isa.JAE: "uge",
}
_NEGATE = {
    "eq": "ne", "ne": "eq",
    "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
    "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
}


def _chop_ne(iv: Interval, value: int) -> Interval | None:
    """Refine *iv* with ``!= value`` (endpoint chopping only)."""
    lo, hi = iv
    if lo == hi == value:
        return None
    if lo == value:
        return (lo + 1, hi)
    if hi == value:
        return (lo, hi - 1)
    return iv


def _refine_unsigned(
    dst: Interval, src: Interval, rel: str
) -> tuple[Interval, Interval] | None:
    """Intersect both operands with ``dst REL src``; None = infeasible."""
    if rel == "eq":
        meet = iv_intersect(dst, src)
        if meet is None:
            return None
        return meet, meet
    if rel == "ne":
        if src[0] == src[1]:
            new_dst = _chop_ne(dst, src[0])
            if new_dst is None:
                return None
            dst = new_dst
        if dst[0] == dst[1]:
            new_src = _chop_ne(src, dst[0])
            if new_src is None:
                return None
            src = new_src
        return dst, src
    if rel == "ult":
        if src[1] == 0:
            return None
        new_dst = iv_intersect(dst, (0, src[1] - 1))
        new_src = iv_intersect(src, (min(dst[0] + 1, MASK64), MASK64))
        if new_dst is None or new_src is None:
            return None
        return new_dst, new_src
    if rel == "ule":
        new_dst = iv_intersect(dst, (0, src[1]))
        new_src = iv_intersect(src, (dst[0], MASK64))
        if new_dst is None or new_src is None:
            return None
        return new_dst, new_src
    if rel == "ugt":
        if dst[1] == 0:
            return None
        new_dst = iv_intersect(dst, (min(src[0] + 1, MASK64), MASK64))
        new_src = iv_intersect(src, (0, dst[1] - 1))
        if new_dst is None or new_src is None:
            return None
        return new_dst, new_src
    # "uge"
    new_dst = iv_intersect(dst, (src[0], MASK64))
    new_src = iv_intersect(src, (0, dst[1]))
    if new_dst is None or new_src is None:
        return None
    return new_dst, new_src


def refine_edge(
    state: AbsState, flag_src: FlagSource | None, jcc_op: int, taken: bool
) -> AbsState | None:
    """State on one out-edge of a jcc; None when the edge is infeasible."""
    if flag_src is None:
        return state
    rel = _TAKEN_REL[jcc_op]
    if not taken:
        rel = _NEGATE[rel]

    if flag_src[0] == "zero":
        reg = flag_src[1]
        if rel == "eq":
            meet = iv_intersect(state.regs[reg], (0, 0))
            if meet is None:
                return None
            out = state.copy()
            out.regs[reg] = meet
            return out
        if rel == "ne":
            chopped = _chop_ne(state.regs[reg], 0)
            if chopped is None:
                return None
            out = state.copy()
            out.regs[reg] = chopped
            return out
        return state  # only the zero flag is refinable here

    _, dst_reg, src_reg, imm = flag_src
    dst = state.regs[dst_reg]
    imm_signed: int | None
    if src_reg >= 0:
        src: Interval = state.regs[src_reg]
        imm_signed = None
    else:
        if imm is None:  # defensive: cmp sources always carry an operand
            return state
        imm_signed = imm  # sign-extended imm32
        src = const(imm)

    if rel in ("slt", "sle", "sgt", "sge"):
        # Signed relations refine only where signed and unsigned
        # ordering agree: both operands in [0, 2**63).
        if dst[1] >= _SIGNED_MAX:
            return state
        if imm_signed is not None and imm_signed < 0:
            # dst >= 0 > imm: the relation is statically decided.
            if rel in ("slt", "sle"):
                return None
            return state
        if imm_signed is None and src[1] >= _SIGNED_MAX:
            return state
        rel = {"slt": "ult", "sle": "ule", "sgt": "ugt", "sge": "uge"}[rel]

    refined = _refine_unsigned(dst, src, rel)
    if refined is None:
        return None
    new_dst, new_src = refined
    out = state.copy()
    out.regs[dst_reg] = new_dst
    if src_reg >= 0:
        out.regs[src_reg] = new_src
    return out


# -- fixpoint ----------------------------------------------------------


def _thresholds(cfg: ControlFlowGraph) -> list[int]:
    values = {0, 1, MASK64}
    for insn in cfg.insns.values():
        if insn.opcode == isa.CMPRI or insn.opcode == isa.MOVI:
            v = insn.fields[1] & MASK64
            values.add(v)
            if v < MASK64:
                values.add(v + 1)
    return sorted(values)


def _rpo(cfg: ControlFlowGraph) -> list[int]:
    """Reverse post-order over blocks, from the entry."""
    if cfg.entry not in cfg.block_of:
        return []
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(cfg.block_of[cfg.entry], False)]
    while stack:
        block, done = stack.pop()
        if done:
            order.append(block)
            continue
        if block in seen:
            continue
        seen.add(block)
        stack.append((block, True))
        for _, succ in cfg.blocks[block].edges:
            if succ not in seen:
                stack.append((succ, False))
    order.reverse()
    return order


def _transfer_block(
    cfg: ControlFlowGraph,
    block_start: int,
    in_state: AbsState,
    noreturn: frozenset[int],
    facts: _Facts | None = None,
) -> list[tuple[int, AbsState]]:
    """Run one block; return refined out-states per feasible edge."""
    block = cfg.blocks[block_start]
    transfer = _Transfer(facts)
    state = in_state.copy()
    for insn in block.insns:
        transfer.step(state, insn)
    term = block.terminator
    outs: list[tuple[int, AbsState]] = []
    if term.opcode == isa.SYSCALL and term.pc in noreturn:
        return outs
    if term.opcode in isa.CONDITIONAL_JUMPS:
        for kind, succ in block.edges:
            refined = refine_edge(
                state, transfer.flag_src, term.opcode, taken=(kind == "jump")
            )
            if refined is not None:
                outs.append((succ, refined))
    else:
        for _, succ in block.edges:
            outs.append((succ, state))
    return outs


def _fixpoint(
    cfg: ControlFlowGraph,
    noreturn: frozenset[int],
    thresholds: list[int],
) -> dict[int, AbsState]:
    order = _rpo(cfg)
    if not order:
        return {}
    block_in: dict[int, AbsState] = {order[0]: AbsState.entry()}
    trivial = [0, MASK64]
    for pass_num in range(_MAX_PASSES):
        if pass_num >= _BLOW_PASS:
            widen: list[int] | None = trivial
        elif pass_num >= _WIDEN_PASS:
            widen = thresholds
        else:
            widen = None
        changed = False
        for block in order:
            state = block_in.get(block)
            if state is None:
                continue
            for succ, out in _transfer_block(cfg, block, state, noreturn):
                old = block_in.get(succ)
                if old is None:
                    block_in[succ] = out.copy()
                    changed = True
                else:
                    joined = join_states(old, out, widen)
                    if joined != old:
                        block_in[succ] = joined
                        changed = True
        if not changed:
            break
    return block_in


# -- results -----------------------------------------------------------


@dataclass
class DataflowResult:
    """Everything the lint layer needs, in one bundle."""

    cfg: ControlFlowGraph
    block_in: dict[int, AbsState]
    noreturn: frozenset[int]
    syscalls: dict[int, SyscallFact]
    mem_accesses: list[MemAccess]
    div_sites: list[DivSite]
    uninit_reads: list[UninitRead]
    #: Scope key pc (program entry or guess-site pc) -> worst-case
    #: retired-instruction bound, or None when a cycle makes the scope
    #: statically unbounded.
    step_bounds: dict[int, int | None]

    @property
    def guess_sites(self) -> list[int]:
        return sorted(
            pc for pc, s in self.syscalls.items() if s.number in _GUESS_KINDS
        )

    @property
    def fail_sites(self) -> list[int]:
        return sorted(
            pc for pc, s in self.syscalls.items()
            if s.number == sysno.SYS_GUESS_FAIL
        )

    @property
    def write_sites(self) -> list[int]:
        return sorted(
            pc for pc, s in self.syscalls.items()
            if s.number == sysno.SYS_WRITE
        )

    # -- guess-scope reachability --------------------------------------

    def blocks_before_first_guess(self) -> set[int]:
        """Blocks reachable from entry without crossing any guess."""
        cfg = self.cfg
        if cfg.entry not in cfg.block_of:
            return set()
        guess_pcs = set(self.guess_sites)
        start = cfg.block_of[cfg.entry]
        seen = {start}
        work = [start]
        while work:
            block_start = work.pop()
            block = cfg.blocks[block_start]
            term = block.terminator
            if term.opcode == isa.SYSCALL and term.pc in guess_pcs:
                continue  # do not cross into the guess scope
            for succ in cfg.successors(block, self.noreturn):
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def reachable_from(self, block_start: int) -> set[int]:
        """Blocks reachable from the *successors* of one block."""
        cfg = self.cfg
        seen: set[int] = set()
        work = list(cfg.successors(cfg.blocks[block_start], self.noreturn))
        while work:
            b = work.pop()
            if b in seen:
                continue
            seen.add(b)
            work.extend(cfg.successors(cfg.blocks[b], self.noreturn))
        return seen


def _scope_bound(
    cfg: ControlFlowGraph,
    start_blocks: list[int],
    noreturn: frozenset[int],
    guess_pcs: set[int],
) -> int | None:
    """Longest instruction path from *start_blocks*, cut at guess sites.

    Returns None when a cycle is reachable (statically unbounded scope).
    Iterative DFS: the CFG of a 9x9 sudoku has ~1000 blocks in a chain,
    past the default recursion limit.
    """
    memo: dict[int, int | None] = {}
    onstack: set[int] = set()

    def succs_of(block_start: int) -> list[int]:
        block = cfg.blocks[block_start]
        term = block.terminator
        if term.opcode == isa.SYSCALL and term.pc in guess_pcs:
            return []  # scope ends where the next guess begins
        return cfg.successors(block, noreturn)

    for root in start_blocks:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            block_start, done = stack.pop()
            if done:
                onstack.discard(block_start)
                best = 0
                unbounded = False
                for succ in succs_of(block_start):
                    sub = memo.get(succ)
                    if sub is None:
                        unbounded = True
                        break
                    best = max(best, sub)
                if unbounded:
                    return None
                memo[block_start] = len(cfg.blocks[block_start]) + best
                continue
            if block_start in memo:
                continue
            if block_start in onstack:
                return None  # back edge: cycle in scope
            onstack.add(block_start)
            stack.append((block_start, True))
            for succ in succs_of(block_start):
                if succ not in memo and succ not in onstack:
                    stack.append((succ, False))
                elif succ in onstack:
                    return None
    if not start_blocks:
        return 0
    return max(memo.get(b) or 0 for b in start_blocks)


def run_dataflow(cfg: ControlFlowGraph) -> DataflowResult:
    """Full pipeline: fixpoint + syscall classification + fact harvest."""
    thresholds = _thresholds(cfg)
    noreturn: frozenset[int] = frozenset()
    block_in: dict[int, AbsState] = {}
    facts = _Facts()
    for _ in range(_MAX_CLASSIFY_ROUNDS):
        block_in = _fixpoint(cfg, noreturn, thresholds)
        facts = _Facts()
        for block, state in block_in.items():
            _transfer_block(cfg, block, state, noreturn, facts)
        new_noreturn = frozenset(
            pc for pc, s in facts.syscalls.items()
            if s.number in _NORETURN_KINDS
        )
        if new_noreturn == noreturn:
            break
        noreturn = new_noreturn

    guess_pcs = {
        pc for pc, s in facts.syscalls.items() if s.number in _GUESS_KINDS
    }
    step_bounds: dict[int, int | None] = {}
    if cfg.entry in cfg.block_of:
        step_bounds[cfg.entry] = _scope_bound(
            cfg, [cfg.block_of[cfg.entry]], noreturn, guess_pcs
        )
    for pc in sorted(guess_pcs):
        block = cfg.blocks[cfg.block_of[pc]]
        starts = [s for s in cfg.successors(block, noreturn)]
        step_bounds[pc] = _scope_bound(cfg, starts, noreturn, guess_pcs)

    return DataflowResult(
        cfg=cfg,
        block_in=block_in,
        noreturn=noreturn,
        syscalls=facts.syscalls,
        mem_accesses=facts.mem_accesses,
        div_sites=facts.div_sites,
        uninit_reads=facts.uninit_reads,
        step_bounds=step_bounds,
    )
