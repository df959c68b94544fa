"""Random deterministic guest programs (differential-testing workload).

Generates structured random assembly guests: a handful of levels, each
optionally mutating guest memory, guessing with a random fan-out, and
pruning some branches based on the guess and the accumulated state.
Every generated program is deterministic given the guess outcomes, so
all engines (snapshot, replay, parallel, eager, ...) must produce the
same solution multiset — the differential-testing property used by the
engine equivalence tests.

A Python reference implementation (:func:`reference_solutions`) computes
the expected solution set independently of any engine.

:func:`opcode_program` generates a second kind of guest, for the
interpreter rather than the engines: straight-line code and a loop over
every opcode of the ISA, ending in one chosen VM exit (halt, syscall,
unmapped or protected memory, divide by zero, bad opcode, or a loop that
only the step budget ends).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.sysno import SYS_EXIT, SYS_GUESS, SYS_GUESS_FAIL
from repro.cpu import isa

_CELLS = 8  # 64-bit state cells at DATA_BASE
_DATA = 0x60_0000


@dataclass
class _Level:
    fanout: int
    #: cell mutated before the guess: (index, multiplier, addend)
    pre: tuple[int, int, int]
    #: prune rule: fail if (guess + cell[idx]) % mod == rem
    prune: tuple[int, int, int]  # (cell index, mod, rem)
    #: cell absorbing the guess: cell[idx] = cell[idx]*3 + guess
    absorb: int


@dataclass
class RandomProgram:
    seed: int
    levels: list[_Level] = field(default_factory=list)

    @property
    def source(self) -> str:
        return generate_source(self)


def make_program(seed: int, max_depth: int = 4, max_fanout: int = 3) -> RandomProgram:
    """Build a random program description from *seed*."""
    rng = random.Random(seed)
    depth = rng.randint(1, max_depth)
    levels = []
    for _ in range(depth):
        levels.append(
            _Level(
                fanout=rng.randint(1, max_fanout),
                pre=(rng.randrange(_CELLS), rng.randint(1, 5), rng.randint(0, 9)),
                prune=(rng.randrange(_CELLS), rng.randint(2, 4),
                       rng.randint(0, 3)),
                absorb=rng.randrange(_CELLS),
            )
        )
    return RandomProgram(seed=seed, levels=levels)


def generate_source(program: RandomProgram) -> str:
    """Emit the program as assembly for the machine engines."""
    lines = [f"; random guest, seed={program.seed}", "mov r15, 0"]
    for i, level in enumerate(program.levels):
        pre_idx, mul, add = level.pre
        prune_idx, mod, rem = level.prune
        lines += [
            f"; --- level {i} ---",
            f"mov r8, {_DATA + 8 * pre_idx}",
            "mov r9, [r8]",
            f"imul r9, {mul}",
            f"add r9, {add}",
            "mov [r8], r9",
            f"mov rax, {SYS_GUESS:#x}",
            f"mov rdi, {level.fanout}",
            "syscall",
            "mov r12, rax",
            f"mov r8, {_DATA + 8 * prune_idx}",
            "mov r9, [r8]",
            "add r9, r12",
            f"mov r10, {mod}",
            "umod r9, r10",
            f"cmp r9, {rem}",
            f"jne level{i}_ok",
            f"mov rax, {SYS_GUESS_FAIL:#x}",
            "syscall",
            f"level{i}_ok:",
            f"mov r8, {_DATA + 8 * level.absorb}",
            "mov r9, [r8]",
            "imul r9, 3",
            "add r9, r12",
            "mov [r8], r9",
            "imul r15, 7",
            "add r15, r12",
        ]
    lines += [
        "mov rdi, r15",
        f"mov rax, {SYS_EXIT}",
        "syscall",
    ]
    return "\n".join(lines)


def reference_solutions(program: RandomProgram) -> list[tuple[tuple[int, ...], int]]:
    """Engine-free reference: enumerate (path, exit code) by recursion."""
    out: list[tuple[tuple[int, ...], int]] = []

    def walk(level_index: int, cells: tuple[int, ...], acc: int,
             path: tuple[int, ...]) -> None:
        if level_index == len(program.levels):
            # acc stays tiny (max fanout 3, depth 4), far below the
            # 32-bit exit-status truncation boundary.
            out.append((path, acc))
            return
        level = program.levels[level_index]
        pre_idx, mul, add = level.pre
        mutated = list(cells)
        mutated[pre_idx] = (mutated[pre_idx] * mul + add) & ((1 << 64) - 1)
        for guess in range(level.fanout):
            prune_idx, mod, rem = level.prune
            if (mutated[prune_idx] + guess) % mod == rem:
                continue  # pruned branch
            absorbed = list(mutated)
            absorbed[level.absorb] = (
                absorbed[level.absorb] * 3 + guess
            ) & ((1 << 64) - 1)
            walk(
                level_index + 1,
                tuple(absorbed),
                (acc * 7 + guess) & ((1 << 64) - 1),
                path + (guess,),
            )

    walk(0, (0,) * _CELLS, 0, ())
    return out


# ----------------------------------------------------------------------
# Opcode coverage: guests for the interpreter's differential tests
# ----------------------------------------------------------------------

#: Registers an opcode program computes in.  ``r12`` holds the data base,
#: ``r13`` counts loop iterations, ``r14`` and ``r15`` hold addresses and
#: divisors, and ``rsp`` stays a valid stack pointer until an ending
#: moves it.
_FREE = ("rax", "rcx", "rdx", "rbx", "rbp", "rsi", "rdi",
         "r8", "r9", "r10", "r11")
#: Bytes of ``.data`` the programs load from and store to.
_BUF = 512
#: A canonical page no loader maps.
_UNMAPPED = 0x7F00_0000_0000

#: How an opcode program ends, after its loop and tail: each ending
#: makes one VM exit (``syscall`` exits, then the program halts).
ENDINGS = ("hlt", "syscall", "not-mapped", "protection", "divide",
           "bad-opcode", "step-limit")

_ALU = ("add", "sub", "imul", "and", "or", "xor", "cmp")


class _Emitter:
    """Random instruction snippets over the free registers."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.labels = 0

    def label(self) -> str:
        self.labels += 1
        return f"L{self.labels}"

    def reg(self) -> str:
        return self.rng.choice(_FREE)

    def imm32(self) -> int:
        return self.rng.choice((0, 1, -1, 0x7FFF_FFFF, -0x8000_0000,
                                self.rng.randint(-0x8000_0000, 0x7FFF_FFFF),
                                self.rng.randint(-9, 9)))

    def imm64(self) -> int:
        return self.rng.choice((0, 1, (1 << 64) - 1, 1 << 63, (1 << 63) - 1,
                                self.rng.getrandbits(64), self.rng.randint(0, 9)))

    def scaled(self) -> tuple[int, int]:
        """A scale and a displacement that keep ``[r12 + r15*scale + disp]``
        inside the buffer while ``r15`` is in 0..31."""
        scale = self.rng.choice((1, 2, 4, 8))
        return scale, self.rng.randint(0, _BUF - 8 - 31 * scale)

    def simple(self) -> list[str]:
        """One instruction that neither transfers control nor faults."""
        rng, a, b = self.rng, self.reg(), self.reg()
        kind = rng.randrange(9)
        if kind == 0:
            return [f"{rng.choice(_ALU)} {a}, {b}"]
        if kind == 1:
            return [f"{rng.choice(_ALU)} {a}, {self.imm32()}"]
        if kind == 2:
            return [f"test {a}, {b}"]
        if kind == 3:
            return [f"{rng.choice(('shl', 'shr'))} {a}, {rng.randint(0, 127)}"]
        if kind == 4:
            return [f"{rng.choice(('neg', 'not', 'inc', 'dec'))} {a}"]
        if kind == 5:
            return [f"mov {a}, {self.imm64()}"]
        if kind == 6:
            return [f"mov {a}, {b}"]
        if kind == 7:
            return [f"lea {a}, [{b} + {self.imm32()}]"]
        return [f"lea {a}, [{b} + {self.reg()}*{rng.choice((1, 2, 4, 8))} "
                f"+ {self.imm32()}]"]

    def covering(self, op: int) -> list[str]:
        """A snippet that runs *op* without faulting or leaving the guest
        (``syscall`` exits and resumes; ``hlt`` is left to the endings)."""
        rng, a, b = self.rng, self.reg(), self.reg()
        mem = f"[r12 + {rng.randint(0, _BUF - 8)}]"
        name = isa.OPCODES[op].name
        layout = isa.OPCODES[op].layout
        if op in (isa.LOAD, isa.LOADB):
            return [f"{name} {a}, {mem}"]
        if op in (isa.STORE, isa.STOREB):
            return [f"{name} {mem}, {a}"]
        if op in (isa.LOADX, isa.LOADBX, isa.STOREX, isa.STOREBX):
            scale, disp = self.scaled()
            where = f"[r12 + r15*{scale} + {disp}]"
            access = (f"{name} {a}, {where}" if op in (isa.LOADX, isa.LOADBX)
                      else f"{name} {where}, {a}")
            return [f"mov r15, {b}", "and r15, 31", access]
        if op == isa.LEA:
            return [f"lea {a}, [{b} + {self.imm32()}]"]
        if op == isa.LEAX:
            return [f"lea {a}, [{b} + {self.reg()}*{rng.choice((1, 2, 4, 8))} "
                    f"+ {self.imm32()}]"]
        if op == isa.MOVI:
            return [f"mov {a}, {self.imm64()}"]
        if op in (isa.UDIVRR, isa.UMODRR):
            return [f"mov r15, {b}", "or r15, 1", f"{name} {a}, r15"]
        if op in (isa.SHLI, isa.SHRI):
            return [f"{name} {a}, {rng.randint(0, 127)}"]
        if op == isa.JMP or op in isa.CONDITIONAL_JUMPS:
            # A forward branch over one instruction: taken or not, the
            # flags of whatever ran before decide.
            skip = self.label()
            return [f"{name} {skip}", *self.simple(), f"{skip}:"]
        if op == isa.CALL:
            return ["call sub"]
        if op == isa.RET:
            return []  # the subroutine returns
        if op in (isa.PUSH, isa.POP):
            return [f"push {a}", *self.simple(), f"pop {b}"]
        if layout == "rr":
            return [f"{name} {a}, {b}"]
        if layout == "rs":
            return [f"{name} {a}, {self.imm32()}"]
        if layout == "r":
            return [f"{name} {a}"]
        return [name]  # syscall, nop

    def ending(self, kind: str) -> list[str]:
        """The last snippet: one exit of kind *kind*, with instructions
        that write flags on both sides of a faulting one."""
        rng, a = self.rng, self.reg()
        around = [*self.simple(), *self.simple()]
        after = [*self.simple(), "hlt"]
        if kind == "hlt":
            return [*around, "hlt"]
        if kind == "syscall":
            return [*around, "syscall", *after]
        if kind == "divide":
            op = rng.choice(("udiv", "umod"))
            return ["mov r15, 0", *around, f"{op} {a}, r15", *after]
        if kind == "not-mapped":
            base = _UNMAPPED + rng.randrange(16) * 4096
            fault = rng.choice((
                [f"mov {a}, [r14 + 8]"], [f"mov [r14], {a}"],
                [f"movb {a}, [r14 + 1]"], [f"movb [r14 + 2], {a}"],
                ["mov r15, 3", f"mov {a}, [r14 + r15*8 + 8]"],
                ["mov r15, 5", f"movb [r14 + r15*1], {a}"],
                ["mov rsp, r14", f"push {a}"], ["mov rsp, r14", f"pop {a}"],
                ["mov rsp, r14", "call sub"], ["mov rsp, r14", "ret"],
            ))
            return [f"mov r14, {base}", *around, *fault, *after]
        if kind == "protection":
            fault = rng.choice((
                ["mov r14, _start", *around, f"mov [r14 + 8], {a}", *after],
                ["mov r14, buf", "push r14", *around, "ret"],
            ))
            return fault
        if kind == "bad-opcode":
            return [*around, f"jmp {rng.choice(('bad_opcode', 'bad_register'))}"]
        if kind == "step-limit":
            return ["spin:", *around, "jmp spin"]
        raise ValueError(f"unknown ending {kind!r}")


def opcode_program(seed: int, ending: Optional[str] = None) -> str:
    """A random guest that runs every opcode of ``isa.OPCODES`` but
    ``hlt`` outside its ending.

    The guest loads random values, runs a loop (a backward branch) of
    1–100 iterations over a random body, then a tail of every opcode the
    body left out, then *ending* (drawn from :data:`ENDINGS` when
    None).  Memory operands stay inside a 512-byte ``.data`` buffer and
    divisors are odd, so only the ending faults.
    """
    rng = random.Random(seed)
    emit = _Emitter(rng)
    ops = [op for op in isa.OPCODES if op != isa.HLT]
    rng.shuffle(ops)
    split = rng.randint(0, len(ops) // 2)
    body = [line for op in ops[:split] for line in emit.covering(op)]
    tail = [line for op in ops[split:] for line in emit.covering(op)]
    values = ", ".join(str(rng.getrandbits(64)) for _ in range(_BUF // 8))
    inits = [f"mov {reg}, {emit.imm64()}" for reg in _FREE]
    sub = [line for _ in range(rng.randint(0, 3)) for line in emit.simple()]
    return "\n".join([
        f"; opcode coverage guest, seed={seed}",
        ".data",
        f"buf: .quad {values}",
        ".text",
        "_start:",
        "mov r12, buf",
        f"mov r13, {rng.randint(1, 100)}",
        *inits,
        "loop:",
        *body,
        "dec r13",
        "jne loop",
        *tail,
        *emit.ending(ending or rng.choice(ENDINGS)),
        "sub:",
        *sub,
        "ret",
        "bad_opcode:",
        ".byte 0xff",
        "bad_register:",
        ".byte 0x02, 0x30, 0x01",
    ])
