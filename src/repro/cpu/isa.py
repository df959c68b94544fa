"""Instruction-set definition for the simulated CPU.

A compact x86-64-flavoured ISA.  Every instruction is one opcode byte
followed by fixed-layout operands; register operands are one byte
(index 0..15), immediates are little-endian (imm64 for MOVI, sign-extended
imm32 elsewhere), displacements and branch targets are signed 32-bit.

The encoding is deliberately regular — this is not a binary-compatible
x86 core, it is the smallest ISA that lets the paper's claims be tested
with *machine code whose memory traffic goes through a paged MMU*.
"""

from __future__ import annotations

from struct import Struct
from typing import Callable, NamedTuple

# --- opcode space ------------------------------------------------------

# data movement
MOVI = 0x01       # reg <- imm64
MOVR = 0x02       # reg <- reg
LOAD = 0x03       # reg <- [reg + disp32]              (64-bit)
STORE = 0x04      # [reg + disp32] <- reg              (64-bit)
LOADB = 0x05      # reg <- zx([reg + disp32])          (8-bit)
STOREB = 0x06     # [reg + disp32] <- low8(reg)
LOADX = 0x07      # reg <- [base + idx*scale + disp32] (64-bit)
STOREX = 0x08     # [base + idx*scale + disp32] <- reg
LOADBX = 0x09     # 8-bit indexed load (zero-extended)
STOREBX = 0x0A    # 8-bit indexed store
LEA = 0x0B        # reg <- base + disp32
LEAX = 0x0C       # reg <- base + idx*scale + disp32

# arithmetic / logic (RR = reg,reg; RI = reg,imm32 sign-extended)
ADDRR = 0x10
ADDRI = 0x11
SUBRR = 0x12
SUBRI = 0x13
IMULRR = 0x14
IMULRI = 0x15
ANDRR = 0x16
ANDRI = 0x17
ORRR = 0x18
ORRI = 0x19
XORRR = 0x1A
XORRI = 0x1B
SHLI = 0x1C
SHRI = 0x1D
NEG = 0x1E
NOT = 0x1F
UDIVRR = 0x23     # dst <- dst / src (unsigned; #DE on zero)
UMODRR = 0x24     # dst <- dst % src
INC = 0x25
DEC = 0x26

# compare / test
CMPRR = 0x20
CMPRI = 0x21
TESTRR = 0x22

# control flow (targets are rip-relative signed 32-bit, from next insn)
JMP = 0x30
JE = 0x31
JNE = 0x32
JL = 0x33
JLE = 0x34
JG = 0x35
JGE = 0x36
JB = 0x37
JAE = 0x38
CALL = 0x40
RET = 0x41
PUSH = 0x42
POP = 0x43

# system
SYSCALL = 0x50
NOP = 0x90
HLT = 0xF4


class OpSpec(NamedTuple):
    """Static operand layout of one opcode."""

    name: str
    #: operand layout string: each char describes one encoded operand:
    #:   r = register byte, i = imm64, s = imm32 (sign-extended),
    #:   d = disp32 (signed), t = branch target rel32 (signed),
    #:   c = scale byte (1/2/4/8)
    layout: str


#: opcode byte -> operand spec.  :data:`ENCODINGS` derives every
#: opcode's length and byte layout from this single table.
OPCODES: dict[int, OpSpec] = {
    MOVI: OpSpec("mov", "ri"),
    MOVR: OpSpec("mov", "rr"),
    LOAD: OpSpec("mov", "rrd"),
    STORE: OpSpec("mov", "rdr"),
    LOADB: OpSpec("movb", "rrd"),
    STOREB: OpSpec("movb", "rdr"),
    LOADX: OpSpec("mov", "rrrcd"),
    STOREX: OpSpec("mov", "rrcdr"),
    LOADBX: OpSpec("movb", "rrrcd"),
    STOREBX: OpSpec("movb", "rrcdr"),
    LEA: OpSpec("lea", "rrd"),
    LEAX: OpSpec("lea", "rrrcd"),
    ADDRR: OpSpec("add", "rr"),
    ADDRI: OpSpec("add", "rs"),
    SUBRR: OpSpec("sub", "rr"),
    SUBRI: OpSpec("sub", "rs"),
    IMULRR: OpSpec("imul", "rr"),
    IMULRI: OpSpec("imul", "rs"),
    ANDRR: OpSpec("and", "rr"),
    ANDRI: OpSpec("and", "rs"),
    ORRR: OpSpec("or", "rr"),
    ORRI: OpSpec("or", "rs"),
    XORRR: OpSpec("xor", "rr"),
    XORRI: OpSpec("xor", "rs"),
    SHLI: OpSpec("shl", "rs"),
    SHRI: OpSpec("shr", "rs"),
    NEG: OpSpec("neg", "r"),
    NOT: OpSpec("not", "r"),
    UDIVRR: OpSpec("udiv", "rr"),
    UMODRR: OpSpec("umod", "rr"),
    INC: OpSpec("inc", "r"),
    DEC: OpSpec("dec", "r"),
    CMPRR: OpSpec("cmp", "rr"),
    CMPRI: OpSpec("cmp", "rs"),
    TESTRR: OpSpec("test", "rr"),
    JMP: OpSpec("jmp", "t"),
    JE: OpSpec("je", "t"),
    JNE: OpSpec("jne", "t"),
    JL: OpSpec("jl", "t"),
    JLE: OpSpec("jle", "t"),
    JG: OpSpec("jg", "t"),
    JGE: OpSpec("jge", "t"),
    JB: OpSpec("jb", "t"),
    JAE: OpSpec("jae", "t"),
    CALL: OpSpec("call", "t"),
    RET: OpSpec("ret", ""),
    PUSH: OpSpec("push", "r"),
    POP: OpSpec("pop", "r"),
    SYSCALL: OpSpec("syscall", ""),
    NOP: OpSpec("nop", ""),
    HLT: OpSpec("hlt", ""),
}

#: Conditional branches: a taken edge and a fall-through edge.
CONDITIONAL_JUMPS = frozenset({JE, JNE, JL, JLE, JG, JGE, JB, JAE})

#: Opcodes that end a basic block: every control transfer, and the two
#: instructions that leave the guest.  The control-flow graph and the
#: interpreter's block compiler both split code here.
ENDS_BLOCK = CONDITIONAL_JUMPS | {JMP, CALL, RET, SYSCALL, HLT}

#: The :mod:`struct` format of each operand kind: register and scale
#: bytes unsigned, imm64 unsigned, imm32, disp32 and rel32 signed.
_FIELD_FORMAT = {"r": "B", "c": "B", "i": "Q", "s": "i", "d": "i", "t": "i"}


class Encoding(NamedTuple):
    """The byte layout of one opcode, derived from its layout string: the
    whole instruction, opcode byte first, little-endian."""

    #: Encoded length in bytes.
    size: int
    #: ``pack(opcode, *fields)`` and ``unpack_from(code, offset)`` of
    #: that layout (:class:`struct.Struct` methods).
    pack: Callable[..., bytes]
    unpack_from: Callable[..., tuple[int, ...]]
    #: Position of each register field in the unpacked tuple.
    registers: tuple[int, ...]
    #: True for a branch: its one operand is relative to the next pc.
    relative: bool


def _encoding(layout: str) -> Encoding:
    shape = Struct("<B" + "".join(_FIELD_FORMAT[kind] for kind in layout))
    return Encoding(
        shape.size, shape.pack, shape.unpack_from,
        tuple(k for k, kind in enumerate(layout, 1) if kind == "r"),
        layout == "t",
    )


#: opcode byte -> its encoding.  The assembler packs and :func:`decode`
#: unpacks with this one table.
ENCODINGS: dict[int, Encoding] = {
    op: _encoding(spec.layout) for op, spec in OPCODES.items()
}


def insn_length(opcode: int) -> int:
    """Total encoded length (opcode byte + operands) of *opcode*."""
    return ENCODINGS[opcode].size


class DecodeError(Exception):
    """The bytes at *pc* do not encode an instruction.

    ``kind`` is ``"invalid-opcode"`` (undefined opcode byte),
    ``"bad-register"`` (a register operand outside r0..r15) or
    ``"truncated"`` (the bytes end mid-instruction).
    """

    def __init__(self, pc: int, kind: str, opcode: int) -> None:
        self.pc = pc
        self.kind = kind
        self.opcode = opcode
        super().__init__(f"{kind} (opcode {opcode:#04x}) at {pc:#x}")


def decode(code: bytes, pc: int, offset: int = 0) -> tuple[int, ...]:
    """Decode the instruction at ``code[offset]``, which sits at address *pc*.

    Returns ``(opcode, *operands, next_pc)`` with operands in layout
    order: register, scale and imm64 fields as encoded, imm32 and disp32
    sign-extended, and branch targets resolved to absolute addresses.
    Every consumer (interpreter, control-flow graph, symbolic executor) decodes
    through here.  Raises :class:`DecodeError`.
    """
    opcode = code[offset]
    encoding = ENCODINGS.get(opcode)
    if encoding is None:
        raise DecodeError(pc, "invalid-opcode", opcode)
    size, _, unpack_from, registers, relative = encoding
    if offset + size > len(code):
        raise DecodeError(pc, "truncated", opcode)
    fields = unpack_from(code, offset)
    for k in registers:
        if fields[k] >= 16:
            raise DecodeError(pc, "bad-register", opcode)
    next_pc = pc + size
    if relative:
        return (opcode, fields[1] + next_pc, next_pc)
    return fields + (next_pc,)
