"""The assembler and the instruction decoder as they were before the
one-pass lexer and the shared layout table, kept as test oracles.

``assemble`` (with its helpers) and ``decode`` are the old code,
unchanged except that they raise the shared :class:`AssemblyError` and
:class:`repro.cpu.isa.DecodeError` and build the shared
:class:`Program`, so the differential tests compare results and errors
directly.  The old lexer has two known defects the new one fixes: it
starts a comment at ``;`` or ``#`` inside quotes and splits operands at
a comma inside single quotes or after an unmatched ``]``, and it
lower-cases everything inside brackets, labels and character literals
included.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.cpu import isa
from repro.cpu.assembler import AssemblyError, Program
from repro.cpu.registers import REG_INDEX
from repro.mem.layout import CODE_BASE, DATA_BASE


# --- decoder -------------------------------------------------------------

#: Encoded byte width of each operand kind.
_FIELD_WIDTH = {"r": 1, "c": 1, "i": 8, "s": 4, "d": 4, "t": 4}


def insn_length(opcode: int) -> int:
    """Total encoded length (opcode byte + operands) of *opcode*."""
    spec = isa.OPCODES[opcode]
    return 1 + sum(_FIELD_WIDTH[f] for f in spec.layout)


def decode(code: bytes, pc: int, offset: int = 0) -> tuple[int, ...]:
    """Decode the instruction at ``code[offset]``, which sits at address *pc*.

    Returns ``(opcode, *operands, next_pc)`` with operands in layout
    order: register, scale and imm64 fields as encoded, imm32 and disp32
    sign-extended, and branch targets resolved to absolute addresses.
    Every consumer (interpreter, control-flow graph, symbolic executor) decodes
    through here.  Raises :class:`DecodeError`.
    """
    opcode = code[offset]
    spec = isa.OPCODES.get(opcode)
    if spec is None:
        raise isa.DecodeError(pc, "invalid-opcode", opcode)
    length = insn_length(opcode)
    if offset + length > len(code):
        raise isa.DecodeError(pc, "truncated", opcode)
    next_pc = pc + length
    pos = offset + 1
    fields = [opcode]
    for kind in spec.layout:
        width = _FIELD_WIDTH[kind]
        if kind == "r" or kind == "c":
            value = code[pos]
            if kind == "r" and value >= 16:
                raise isa.DecodeError(pc, "bad-register", opcode)
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


# --- operand model -------------------------------------------------------


@dataclass
class _Mem:
    base: str
    index: Optional[str] = None
    scale: int = 1
    disp: int | str = 0  # int or unresolved label


_MEM_RE = re.compile(r"^\[(.+)\]$")
_SCALED_RE = re.compile(r"^([a-z0-9]+)\*([1248])$")


def _parse_int(tok: str) -> Optional[int]:
    tok = tok.strip()
    if len(tok) >= 3 and tok.startswith("'") and tok.endswith("'"):
        body = tok[1:-1]
        unescaped = body.encode().decode("unicode_escape")
        if len(unescaped) != 1:
            return None
        return ord(unescaped)
    try:
        return int(tok, 0)
    except ValueError:
        return None


def _parse_mem(body: str, lineno: int) -> _Mem:
    """Parse the inside of ``[...]``: base [+ idx*scale] [+/- disp]."""
    # Whitespace is insignificant inside brackets; normalise "a - b" to
    # "a + -b" so we can split on '+'.
    body = body.replace(" ", "").replace("\t", "")
    body = body.replace("-", "+-")
    parts = [p.strip() for p in body.split("+") if p.strip()]
    mem = _Mem(base="")
    for part in parts:
        scaled = _SCALED_RE.match(part)
        if scaled and scaled.group(1) in REG_INDEX:
            if mem.index is not None:
                raise AssemblyError(f"line {lineno}: two index registers")
            mem.index = scaled.group(1)
            mem.scale = int(scaled.group(2))
        elif part in REG_INDEX:
            if not mem.base:
                mem.base = part
            elif mem.index is None:
                mem.index = part
                mem.scale = 1
            else:
                raise AssemblyError(f"line {lineno}: three registers in address")
        else:
            value = _parse_int(part)
            if value is None:
                if part.startswith("-"):
                    raise AssemblyError(f"line {lineno}: bad displacement {part!r}")
                if mem.disp != 0:
                    raise AssemblyError(f"line {lineno}: two displacements")
                mem.disp = part  # label, resolved in pass 2
            else:
                mem.disp = (mem.disp if isinstance(mem.disp, int) else 0) + value
    if not mem.base:
        raise AssemblyError(f"line {lineno}: memory operand needs a base register")
    return mem


def _split_operands(rest: str) -> list[str]:
    """Split on commas not inside brackets or quotes."""
    out, depth, quote, cur = [], 0, False, []
    for ch in rest:
        if ch == '"':
            quote = not quote
        elif ch == "[" and not quote:
            depth += 1
        elif ch == "]" and not quote:
            depth -= 1
        if ch == "," and depth == 0 and not quote:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


# --- the assembler -------------------------------------------------------

_ALIASES = {"jz": "je", "jnz": "jne", "movq": "mov"}

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1


class _Item:
    """One assembled item: an instruction or a data blob."""

    __slots__ = ("kind", "opcode", "operands", "length", "lineno", "blob")

    def __init__(self, kind, lineno, opcode=None, operands=None, length=0, blob=b""):
        self.kind = kind  # "insn" | "blob"
        self.opcode = opcode
        self.operands = operands or []
        self.length = length or len(blob)
        self.lineno = lineno
        self.blob = blob


def assemble(
    source: str,
    text_base: int = CODE_BASE,
    data_base: int = DATA_BASE,
) -> Program:
    """Assemble *source* into a :class:`Program`.

    Raises :class:`AssemblyError` with a line number on any syntax,
    range, or unknown-symbol problem.
    """
    sections: dict[str, list[_Item]] = {"text": [], "data": []}
    label_at: list[tuple[str, str, int]] = []  # (label, section, item index)
    current = "text"

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        while True:
            match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
            if not match:
                break
            label_at.append((match.group(1), current, len(sections[current])))
            line = match.group(2).strip()
        if not line:
            continue
        if line.startswith("."):
            directive = line.split(None, 1)
            name = directive[0]
            rest = directive[1] if len(directive) > 1 else ""
            if name == ".text":
                current = "text"
            elif name == ".data":
                current = "data"
            else:
                sections[current].append(_directive(name, rest, lineno))
            continue
        sections[current].append(_instruction(line, lineno))

    # Pass 1: lay out addresses.
    symbols: dict[str, int] = {}
    offsets = {"text": [], "data": []}
    bases = {"text": text_base, "data": data_base}
    for section in ("text", "data"):
        pos = bases[section]
        for item in sections[section]:
            offsets[section].append(pos)
            pos += item.length
    for label, section, index in label_at:
        if label in symbols:
            raise AssemblyError(f"duplicate label {label!r}")
        if index < len(offsets[section]):
            symbols[label] = offsets[section][index]
        else:  # label at end of section
            base = bases[section]
            items = sections[section]
            symbols[label] = (
                offsets[section][-1] + items[-1].length if items else base
            )

    # Pass 2: encode.
    blobs = {}
    for section in ("text", "data"):
        out = bytearray()
        for item, addr in zip(sections[section], offsets[section]):
            if item.kind == "blob":
                out += _resolve_blob(item, symbols)
            else:
                out += _encode(item, addr, symbols)
        blobs[section] = bytes(out)

    lines = {
        addr: item.lineno
        for item, addr in zip(sections["text"], offsets["text"])
        if item.kind == "insn"
    }

    return Program(
        text=blobs["text"],
        data=blobs["data"],
        text_base=text_base,
        data_base=data_base,
        symbols=symbols,
        source=source,
        lines=lines,
    )


def _directive(name: str, rest: str, lineno: int) -> _Item:
    if name == ".quad":
        values = _split_operands(rest)
        return _Item(
            "blob", lineno, blob=b"", length=8 * len(values),
            operands=[("quads", values)],
        )
    if name == ".byte":
        values = []
        for tok in _split_operands(rest):
            val = _parse_int(tok)
            if val is None or not (0 <= val <= 255):
                raise AssemblyError(f"line {lineno}: bad byte {tok!r}")
            values.append(val)
        return _Item("blob", lineno, blob=bytes(values))
    if name == ".zero":
        n = _parse_int(rest)
        if n is None or n < 0:
            raise AssemblyError(f"line {lineno}: bad .zero size {rest!r}")
        return _Item("blob", lineno, blob=bytes(n))
    if name in (".ascii", ".asciz"):
        match = re.match(r'^"(.*)"$', rest.strip())
        if not match:
            raise AssemblyError(f"line {lineno}: {name} needs a quoted string")
        text = match.group(1).encode().decode("unicode_escape").encode("latin-1")
        if name == ".asciz":
            text += b"\x00"
        return _Item("blob", lineno, blob=text)
    raise AssemblyError(f"line {lineno}: unknown directive {name!r}")


def _resolve_blob(item: _Item, symbols: dict[str, int]) -> bytes:
    if not item.operands:
        return item.blob
    kind, values = item.operands[0]
    assert kind == "quads"
    out = bytearray()
    for tok in values:
        val = _parse_int(tok)
        if val is None:
            if tok not in symbols:
                raise AssemblyError(f"line {item.lineno}: unknown symbol {tok!r}")
            val = symbols[tok]
        out += ((val + (1 << 64)) % (1 << 64)).to_bytes(8, "little")
    return bytes(out)


def _instruction(line: str, lineno: int) -> _Item:
    parts = line.split(None, 1)
    mnemonic = _ALIASES.get(parts[0].lower(), parts[0].lower())
    rest = parts[1] if len(parts) > 1 else ""
    operands = []
    for tok in _split_operands(rest):
        mem_match = _MEM_RE.match(tok)
        if mem_match:
            operands.append(_parse_mem(mem_match.group(1).lower(), lineno))
        elif tok.lower() in REG_INDEX:
            operands.append(tok.lower())
        else:
            value = _parse_int(tok)
            operands.append(value if value is not None else ("sym", tok))
    opcode = _pick_opcode(mnemonic, operands, lineno)
    return _Item(
        "insn", lineno, opcode=opcode, operands=operands,
        length=insn_length(opcode),
    )


def _is_reg(op) -> bool:
    return isinstance(op, str)


def _is_imm(op) -> bool:
    return isinstance(op, int) or (isinstance(op, tuple) and op[0] == "sym")


_SIMPLE = {
    "ret": isa.RET, "syscall": isa.SYSCALL, "nop": isa.NOP, "hlt": isa.HLT,
}
_UNARY_R = {
    "push": isa.PUSH, "pop": isa.POP, "neg": isa.NEG, "not": isa.NOT,
    "inc": isa.INC, "dec": isa.DEC,
}
_BRANCH = {
    "jmp": isa.JMP, "je": isa.JE, "jne": isa.JNE, "jl": isa.JL,
    "jle": isa.JLE, "jg": isa.JG, "jge": isa.JGE, "jb": isa.JB,
    "jae": isa.JAE, "call": isa.CALL,
}
_ALU_RR_RI = {
    "add": (isa.ADDRR, isa.ADDRI), "sub": (isa.SUBRR, isa.SUBRI),
    "imul": (isa.IMULRR, isa.IMULRI), "and": (isa.ANDRR, isa.ANDRI),
    "or": (isa.ORRR, isa.ORRI), "xor": (isa.XORRR, isa.XORRI),
    "cmp": (isa.CMPRR, isa.CMPRI),
}


def _pick_opcode(mnemonic: str, operands: list, lineno: int) -> int:
    def err(msg: str):
        return AssemblyError(f"line {lineno}: {msg}")

    if mnemonic in _SIMPLE:
        if operands:
            raise err(f"{mnemonic} takes no operands")
        return _SIMPLE[mnemonic]
    if mnemonic in _UNARY_R:
        if len(operands) != 1 or not _is_reg(operands[0]):
            raise err(f"{mnemonic} needs one register operand")
        return _UNARY_R[mnemonic]
    if mnemonic in _BRANCH:
        if len(operands) != 1 or not _is_imm(operands[0]):
            raise err(f"{mnemonic} needs a label or address")
        return _BRANCH[mnemonic]
    if mnemonic in _ALU_RR_RI:
        rr, ri = _ALU_RR_RI[mnemonic]
        if len(operands) != 2 or not _is_reg(operands[0]):
            raise err(f"{mnemonic} needs reg, reg/imm")
        return rr if _is_reg(operands[1]) else ri
    if mnemonic in ("shl", "shr"):
        if len(operands) != 2 or not _is_reg(operands[0]) or not _is_imm(operands[1]):
            raise err(f"{mnemonic} needs reg, imm")
        return isa.SHLI if mnemonic == "shl" else isa.SHRI
    if mnemonic in ("udiv", "umod"):
        if len(operands) != 2 or not all(_is_reg(o) for o in operands):
            raise err(f"{mnemonic} needs reg, reg")
        return isa.UDIVRR if mnemonic == "udiv" else isa.UMODRR
    if mnemonic == "test":
        if len(operands) != 2 or not all(_is_reg(o) for o in operands):
            raise err("test needs reg, reg")
        return isa.TESTRR
    if mnemonic in ("mov", "movb"):
        if len(operands) != 2:
            raise err(f"{mnemonic} needs two operands")
        dst, src = operands
        byte = mnemonic == "movb"
        if _is_reg(dst) and isinstance(src, _Mem):
            if src.index is not None:
                return isa.LOADBX if byte else isa.LOADX
            return isa.LOADB if byte else isa.LOAD
        if isinstance(dst, _Mem) and _is_reg(src):
            if dst.index is not None:
                return isa.STOREBX if byte else isa.STOREX
            return isa.STOREB if byte else isa.STORE
        if byte:
            raise err("movb needs a memory operand")
        if _is_reg(dst) and _is_reg(src):
            return isa.MOVR
        if _is_reg(dst) and _is_imm(src):
            return isa.MOVI
        raise err("unsupported mov form")
    if mnemonic == "lea":
        if len(operands) != 2 or not _is_reg(operands[0]) \
                or not isinstance(operands[1], _Mem):
            raise err("lea needs reg, [mem]")
        return isa.LEAX if operands[1].index is not None else isa.LEA
    raise err(f"unknown mnemonic {mnemonic!r}")


def _sym_value(op, symbols: dict[str, int], lineno: int) -> int:
    if isinstance(op, int):
        return op
    if isinstance(op, tuple) and op[0] == "sym":
        name = op[1]
        if name not in symbols:
            raise AssemblyError(f"line {lineno}: unknown symbol {name!r}")
        return symbols[name]
    raise AssemblyError(f"line {lineno}: expected immediate, got {op!r}")


def _encode(item: _Item, addr: int, symbols: dict[str, int]) -> bytes:
    """Encode one instruction according to its opcode's layout."""
    opcode = item.opcode
    spec = isa.OPCODES[opcode]
    lineno = item.lineno
    out = bytearray([opcode])

    # Flatten operands into layout fields.
    fields: list[tuple[str, int]] = []
    ops = list(item.operands)

    def reg(name: str) -> int:
        return REG_INDEX[name]

    def disp_value(disp) -> int:
        if isinstance(disp, str):
            if disp not in symbols:
                raise AssemblyError(f"line {lineno}: unknown symbol {disp!r}")
            return symbols[disp]
        return disp

    if spec.layout == "ri":  # MOVI
        fields = [("r", reg(ops[0])), ("i", _sym_value(ops[1], symbols, lineno))]
    elif spec.layout == "rr":
        fields = [("r", reg(ops[0])), ("r", reg(ops[1]))]
    elif spec.layout == "rs":
        fields = [("r", reg(ops[0])), ("s", _sym_value(ops[1], symbols, lineno))]
    elif spec.layout == "r":
        fields = [("r", reg(ops[0]))]
    elif spec.layout == "t":
        target = _sym_value(ops[0], symbols, lineno)
        rel = target - (addr + item.length)
        fields = [("t", rel)]
    elif spec.layout == "rrd":  # LOAD/LOADB/LEA: dst, [base+disp]
        if opcode in (isa.STORE, isa.STOREB):
            raise AssemblyError("internal: store uses rdr")
        mem = ops[1]
        fields = [("r", reg(ops[0])), ("r", reg(mem.base)),
                  ("d", disp_value(mem.disp))]
    elif spec.layout == "rdr":  # STORE/STOREB: [base+disp], src
        mem = ops[0]
        fields = [("r", reg(mem.base)), ("d", disp_value(mem.disp)),
                  ("r", reg(ops[1]))]
    elif spec.layout == "rrrcd":  # LOADX/LEAX: dst, [base+idx*scale+disp]
        mem = ops[1]
        fields = [("r", reg(ops[0])), ("r", reg(mem.base)), ("r", reg(mem.index)),
                  ("c", mem.scale), ("d", disp_value(mem.disp))]
    elif spec.layout == "rrcdr":  # STOREX: [base+idx*scale+disp], src
        mem = ops[0]
        fields = [("r", reg(mem.base)), ("r", reg(mem.index)), ("c", mem.scale),
                  ("d", disp_value(mem.disp)), ("r", reg(ops[1]))]
    elif spec.layout == "":
        fields = []
    else:  # pragma: no cover - table and encoder kept in sync
        raise AssemblyError(f"line {lineno}: unhandled layout {spec.layout!r}")

    for kind, value in fields:
        if kind == "r":
            out.append(value)
        elif kind == "c":
            out.append(value)
        elif kind == "i":
            if not (-(1 << 63) <= value < (1 << 64)):
                raise AssemblyError(f"line {lineno}: imm64 out of range")
            out += (value & ((1 << 64) - 1)).to_bytes(8, "little")
        elif kind in ("s", "d", "t"):
            if not (_I32_MIN <= value <= _I32_MAX):
                raise AssemblyError(
                    f"line {lineno}: 32-bit field out of range ({value})"
                )
            out += (value & 0xFFFFFFFF).to_bytes(4, "little")
    if len(out) != item.length:  # pragma: no cover - encoder invariant
        raise AssemblyError(f"line {lineno}: encoding length mismatch")
    return bytes(out)
