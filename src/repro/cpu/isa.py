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

from typing import NamedTuple

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


#: opcode byte -> operand spec.  The assembler and :func:`decode` both
#: derive operand sizes from this single table.
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

#: Encoded byte width of each operand kind.
_FIELD_WIDTH = {"r": 1, "c": 1, "i": 8, "s": 4, "d": 4, "t": 4}


def insn_length(opcode: int) -> int:
    """Total encoded length (opcode byte + operands) of *opcode*."""
    spec = OPCODES[opcode]
    return 1 + sum(_FIELD_WIDTH[f] for f in spec.layout)


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
    spec = OPCODES.get(opcode)
    if spec is None:
        raise DecodeError(pc, "invalid-opcode", opcode)
    length = insn_length(opcode)
    if offset + length > len(code):
        raise DecodeError(pc, "truncated", opcode)
    next_pc = pc + length
    pos = offset + 1
    fields = [opcode]
    for kind in spec.layout:
        width = _FIELD_WIDTH[kind]
        if kind == "r" or kind == "c":
            value = code[pos]
            if kind == "r" and value >= 16:
                raise DecodeError(pc, "bad-register", opcode)
        elif kind == "i":
            value = int.from_bytes(code[pos : pos + width], "little")
        else:
            value = int.from_bytes(code[pos : pos + width], "little", signed=True)
            if kind == "t":
                value += next_pc
        fields.append(value)
        pos += width
    fields.append(next_pc)
    return tuple(fields)
