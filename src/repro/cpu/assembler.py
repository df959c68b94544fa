"""Two-pass assembler for the simulated ISA.

Supports an AT&T-free, Intel-ish syntax::

    ; n-queens inner loop (comments with ';' or '#')
    .data
    board:  .zero 64
    msg:    .asciz "hello\\n"
    .text
    _start:
        mov   rdi, 8
        mov   rsi, board
        call  solve
        hlt
    solve:
        mov   rax, [rsi + rdi*8 - 8]
        add   rax, 1
        mov   [rsi], rax
        ret

Sections: ``.text`` assembles at *text_base* (RX), ``.data`` at
*data_base* (RW).  Directives: ``.quad``, ``.byte``, ``.zero``,
``.ascii``, ``.asciz``.  Labels may be used as immediates (``mov rax,
label``), as ``.quad`` values, as displacements (``[rsi + label]``) and
as branch/call targets.  Immediates are integers as Python writes them
(``-8``, ``0x1F``) or character literals (``'A'``, ``'\\n'``).
Mnemonics and register names are case-insensitive, inside brackets
too; labels are case-sensitive everywhere.

Each line is lexed once.  Its comment starts at the first ``;`` or
``#`` outside a double- or single-quoted span (a backslash escapes the
next character in one).  Then come any ``label:`` prefixes, then a
directive or a mnemonic with its operands, split at the commas outside
brackets and quotes.  The opcode is one dict lookup keyed on the
mnemonic and the operand kinds; a miss is an error, explained by
:func:`_no_opcode`.  Every item is laid out as it is read,
and packed with its opcode's :data:`repro.cpu.isa.ENCODINGS` entry at
once; an item that names a label is packed after the last line, when
every label is known.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from repro.cpu import isa
from repro.cpu.interpreter import CodeCache
from repro.cpu.registers import REG_INDEX
from repro.mem.layout import CODE_BASE, DATA_BASE


class AssemblyError(Exception):
    """Syntax or range error in assembly source (includes line number)."""


@dataclass
class Program:
    """An assembled guest binary."""

    text: bytes
    data: bytes
    text_base: int
    data_base: int
    symbols: dict[str, int] = field(default_factory=dict)
    source: str = ""
    #: pc of each .text instruction -> 1-based source line (static
    #: analyzers cite these; empty for hand-built programs).
    lines: dict[int, int] = field(default_factory=dict)
    #: The interpreter's decode cache and compiled blocks for this
    #: program, shared by every space loaded from it.
    code: CodeCache = field(default_factory=CodeCache, init=False,
                            repr=False, compare=False)

    @property
    def entry(self) -> int:
        """Entry point: the ``_start`` symbol, else the top of .text."""
        return self.symbols.get("_start", self.text_base)


# --- lexing ----------------------------------------------------------------

#: A quoted span: a backslash escapes the next character, and a quote
#: left open runs to the end of the line.
_QUOTED = r""""(?:[^"\\]|\\.)*"?|'(?:[^'\\]|\\.)*'?"""
#: A line up to its comment.
_CODE = re.compile(rf"""(?:[^;#"']+|{_QUOTED})*""")
#: What operand splitting looks at: commas, brackets and quoted spans.
_DELIMITER = re.compile(rf"[,\[\]]|{_QUOTED}")
_LABEL = re.compile(r"([A-Za-z_.$][\w.$]*):\s*")
_SCALED_RE = re.compile(r"^([A-Za-z0-9]+)\*([1248])$")
_STRING = re.compile(r'^"(.*)"$')


def _split_operands(rest: str) -> list[str]:
    """Split on commas not inside brackets or quotes."""
    out = []
    depth = start = 0
    for match in _DELIMITER.finditer(rest):
        token = match.group()
        if token == ",":
            if not depth:
                out.append(rest[start : match.start()].strip())
                start = match.end()
        elif token == "[":
            depth += 1
        elif token == "]" and depth:
            depth -= 1
    tail = rest[start:].strip()
    if tail:
        out.append(tail)
    return out


def _parse_int(tok: str) -> Optional[int]:
    """The value of an integer or character literal, else None."""
    tok = tok.strip()
    if len(tok) >= 3 and tok[0] == "'" and tok[-1] == "'":
        unescaped = tok[1:-1].encode().decode("unicode_escape")
        return ord(unescaped) if len(unescaped) == 1 else None
    # int() reads nothing that starts otherwise; a label skips its raise.
    if tok[:1].isdecimal() or tok[:1] in ("+", "-"):
        try:
            return int(tok, 0)
        except ValueError:
            pass
    return None


class _Mem(NamedTuple):
    """A memory operand ``[base + index*scale + disp]``; a label
    displacement stays a name until pass 2."""

    base: str
    index: Optional[str]
    scale: int
    disp: Union[int, str]


def _parse_mem(body: str, lineno: int) -> _Mem:
    """Parse the inside of ``[...]``: base [+ idx*scale] [+/- disp]."""
    # Whitespace is insignificant inside brackets; normalise "a - b" to
    # "a + -b" so we can split on '+'.
    body = body.replace(" ", "").replace("\t", "").replace("-", "+-")
    base: Optional[str] = None
    index: Optional[str] = None
    scale = 1
    disp: Union[int, str] = 0
    for part in body.split("+"):
        part = part.strip()
        if not part:
            continue
        scaled = _SCALED_RE.match(part) if "*" in part else None
        if scaled and scaled.group(1).lower() in REG_INDEX:
            if index is not None:
                raise AssemblyError(f"line {lineno}: two index registers")
            index = scaled.group(1).lower()
            scale = int(scaled.group(2))
        elif part.lower() in REG_INDEX:
            if base is None:
                base = part.lower()
            elif index is None:
                index = part.lower()
                scale = 1
            else:
                raise AssemblyError(f"line {lineno}: three registers in address")
        else:
            value = _parse_int(part)
            if value is None:
                if part.startswith("-"):
                    raise AssemblyError(f"line {lineno}: bad displacement {part!r}")
                if disp != 0:
                    raise AssemblyError(f"line {lineno}: two displacements")
                disp = part  # label, resolved in pass 2
            else:
                disp = (disp if isinstance(disp, int) else 0) + value
    if base is None:
        raise AssemblyError(f"line {lineno}: memory operand needs a base register")
    return _Mem(base, index, scale, disp)


def _operands(rest: str, lineno: int) -> tuple[
        str, list[int], list[tuple[int, str]], Optional[_Mem]]:
    """Lex an instruction's operands into ``(kinds, fields, labels, mem)``.

    *kinds* has one character per operand: ``r`` register, ``i``
    immediate or label, ``m`` memory, ``x`` indexed memory.  *fields*
    holds their encoded fields in order, so that an opcode's layout
    reads them as they stand.  A field that names a label holds 0, and
    *labels* lists its position and the name.  *mem* is the last memory
    operand, if any.
    """
    kinds = ""
    fields: list[int] = []
    labels: list[tuple[int, str]] = []
    mem: Optional[_Mem] = None
    for tok in _split_operands(rest):
        reg = REG_INDEX.get(tok.lower())
        if reg is not None:
            kinds += "r"
            fields.append(reg)
            continue
        if len(tok) >= 3 and tok[0] == "[" and tok[-1] == "]":
            mem = _parse_mem(tok[1:-1], lineno)
            fields.append(REG_INDEX[mem.base])
            if mem.index is None:
                kinds += "m"
            else:
                kinds += "x"
                fields += (REG_INDEX[mem.index], mem.scale)
            value: Union[int, str] = mem.disp
        else:
            kinds += "i"
            parsed = _parse_int(tok)
            value = tok if parsed is None else parsed
        if isinstance(value, str):
            labels.append((len(fields), value))
            value = 0
        fields.append(value)
    return kinds, fields, labels, mem


# --- picking the opcode --------------------------------------------------

_ALIASES = {"jz": "je", "jnz": "jne", "movq": "mov"}

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1
_MASK64 = (1 << 64) - 1

_NO_OPERANDS = {"ret", "syscall", "nop", "hlt"}
_ONE_REGISTER = {"push", "pop", "neg", "not", "inc", "dec"}
_BRANCHES = {"jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jae", "call"}
_ALU = {"add", "sub", "imul", "and", "or", "xor", "cmp"}


def _operand_kinds(layout: str) -> str:
    """The operand kinds an opcode's layout encodes: a base and a disp
    (``rd``) are one memory operand, and with an index and a scale
    (``rrcd``) one indexed memory operand."""
    return (layout.replace("rrcd", "x").replace("rd", "m")
            .replace("s", "i").replace("t", "i"))


#: (mnemonic, operand kinds) -> opcode, for every form the ISA encodes.
_OPCODE_OF = {
    (spec.name, _operand_kinds(spec.layout)): op
    for op, spec in isa.OPCODES.items()
}
_OPCODE_OF.update({
    (alias, kinds): op
    for (name, kinds), op in list(_OPCODE_OF.items())
    for alias, target in _ALIASES.items() if target == name
})


def _no_opcode(mnemonic: str, kinds: str, lineno: int) -> None:
    """Raise the error that explains why no opcode encodes *mnemonic*
    over operands of *kinds*.  Return only for an ALU operation over
    memory: it is laid out as reg, imm, and fails in pass 2."""
    if mnemonic in _NO_OPERANDS:
        msg = f"{mnemonic} takes no operands"
    elif mnemonic in _ONE_REGISTER:
        msg = f"{mnemonic} needs one register operand"
    elif mnemonic in _BRANCHES:
        msg = f"{mnemonic} needs a label or address"
    elif mnemonic in _ALU:
        if len(kinds) == 2 and kinds[0] == "r":
            return
        msg = f"{mnemonic} needs reg, reg/imm"
    elif mnemonic in ("shl", "shr"):
        msg = f"{mnemonic} needs reg, imm"
    elif mnemonic in ("udiv", "umod", "test"):
        msg = f"{mnemonic} needs reg, reg"
    elif mnemonic in ("mov", "movb"):
        if len(kinds) != 2:
            msg = f"{mnemonic} needs two operands"
        elif mnemonic == "movb":
            msg = "movb needs a memory operand"
        else:
            msg = "unsupported mov form"
    elif mnemonic == "lea":
        msg = "lea needs reg, [mem]"
    else:
        msg = f"unknown mnemonic {mnemonic!r}"
    raise AssemblyError(f"line {lineno}: {msg}")


# --- encoding ------------------------------------------------------------


def _symbol(name: str, symbols: dict[str, int], lineno: int) -> int:
    if name not in symbols:
        raise AssemblyError(f"line {lineno}: unknown symbol {name!r}")
    return symbols[name]


def _pack(opcode: int, values: list[int], addr: int, lineno: int) -> bytes:
    """Encode one instruction at *addr* from its fields in layout order."""
    size, pack, _, _, relative = isa.ENCODINGS[opcode]
    if relative:
        values = [values[0] - (addr + size)]
    elif opcode == isa.MOVI:
        reg, imm = values
        if not -(1 << 63) <= imm < (1 << 64):
            raise AssemblyError(f"line {lineno}: imm64 out of range")
        values = [reg, imm & _MASK64]
    try:
        return pack(opcode, *values)
    except struct.error:
        # Register and scale bytes always fit: the 32-bit field did not.
        wide = next(v for v in values if not _I32_MIN <= v <= _I32_MAX)
        raise AssemblyError(
            f"line {lineno}: 32-bit field out of range ({wide})"
        ) from None


def _resolve(opcode: int, fields: list[int], labels: list[tuple[int, str]],
             addr: int, lineno: int, symbols: dict[str, int]) -> bytes:
    """Pass 2 of an instruction: fill in the labels its fields name."""
    values = list(fields)
    for k, name in labels:
        values[k] = _symbol(name, symbols, lineno)
    return _pack(opcode, values, addr, lineno)


def _not_immediate(mem: Optional[_Mem], lineno: int,
                   symbols: dict[str, int]) -> bytes:
    """Pass 2 of an ALU operation over memory: it is laid out as reg,
    imm, and its memory operand is not an immediate."""
    raise AssemblyError(f"line {lineno}: expected immediate, got {mem!r}")


def _quads(tokens: list[str], lineno: int, symbols: dict[str, int]) -> bytes:
    """Pass 2 of a ``.quad``: each value modulo 2**64."""
    out = bytearray()
    for tok in tokens:
        value = _parse_int(tok)
        if value is None:
            value = _symbol(tok, symbols, lineno)
        out += (value & _MASK64).to_bytes(8, "little")
    return bytes(out)


def _data(name: str, rest: str, lineno: int) -> bytes:
    """The bytes of a ``.byte``, ``.zero``, ``.ascii`` or ``.asciz``."""
    if name == ".byte":
        values: list[int] = []
        for tok in _split_operands(rest):
            val = _parse_int(tok)
            if val is None or not (0 <= val <= 255):
                raise AssemblyError(f"line {lineno}: bad byte {tok!r}")
            values.append(val)
        return bytes(values)
    if name == ".zero":
        n = _parse_int(rest)
        if n is None or n < 0:
            raise AssemblyError(f"line {lineno}: bad .zero size {rest!r}")
        return bytes(n)
    if name in (".ascii", ".asciz"):
        match = _STRING.match(rest.strip())
        if not match:
            raise AssemblyError(f"line {lineno}: {name} needs a quoted string")
        text = match.group(1).encode().decode("unicode_escape").encode("latin-1")
        if name == ".asciz":
            text += b"\x00"
        return text
    raise AssemblyError(f"line {lineno}: unknown directive {name!r}")


class _Section:
    """One section's bytes as they are laid out: packed chunks, and the
    items that wait for pass 2 to learn a label."""

    __slots__ = ("pc", "chunks", "fixups")

    def __init__(self, base: int) -> None:
        self.pc = base
        self.chunks: list[bytes] = []
        self.fixups: list[tuple[int, Callable[[dict[str, int]], bytes]]] = []

    def put(self, blob: bytes) -> None:
        self.chunks.append(blob)
        self.pc += len(blob)

    def defer(self, size: int, fixup: Callable[[dict[str, int]], bytes]) -> None:
        self.fixups.append((len(self.chunks), fixup))
        self.chunks.append(b"")
        self.pc += size

    def finish(self, symbols: dict[str, int]) -> bytes:
        for k, fixup in self.fixups:
            self.chunks[k] = fixup(symbols)
        return b"".join(self.chunks)


# --- the assembler -------------------------------------------------------


def assemble(
    source: str,
    text_base: int = CODE_BASE,
    data_base: int = DATA_BASE,
) -> Program:
    """Assemble *source* into a :class:`Program`.

    Raises :class:`AssemblyError` with a line number on any syntax,
    range, or unknown-symbol problem: the first line that fails to
    parse, else the first duplicate label, else the first item that
    fails to encode, .text before .data.
    """
    text = _Section(text_base)
    data = _Section(data_base)
    section = text
    symbols: dict[str, int] = {}
    lines: dict[int, int] = {}
    duplicate: Optional[str] = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        code = _CODE.match(raw)
        assert code is not None  # the pattern matches the empty string
        line = code.group().strip()
        if ":" in line:
            while (label := _LABEL.match(line)) is not None:
                name = label.group(1)
                if name not in symbols:
                    symbols[name] = section.pc
                elif duplicate is None:
                    duplicate = name
                line = line[label.end() :]
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head[0] == ".":
            if head == ".text":
                section = text
            elif head == ".data":
                section = data
            elif head == ".quad":
                tokens = _split_operands(rest)
                section.defer(8 * len(tokens), partial(_quads, tokens, lineno))
            else:
                section.put(_data(head, rest, lineno))
            continue

        mnemonic = head.lower()
        kinds, fields, labels, mem = _operands(rest, lineno)
        opcode = _OPCODE_OF.get((mnemonic, kinds))
        addr = section.pc
        if section is text:
            lines[addr] = lineno
        if opcode is None:
            _no_opcode(_ALIASES.get(mnemonic, mnemonic), kinds, lineno)
            # An ALU operation over memory: pass 2 rejects the operand.
            section.defer(isa.insn_length(_OPCODE_OF[mnemonic, "ri"]),
                          partial(_not_immediate, mem, lineno))
            continue
        if not labels:
            try:
                section.put(_pack(opcode, fields, addr, lineno))
                continue
            except AssemblyError:
                pass  # raised again in pass 2, in item order
        section.defer(isa.insn_length(opcode),
                      partial(_resolve, opcode, fields, labels, addr, lineno))

    if duplicate is not None:
        raise AssemblyError(f"duplicate label {duplicate!r}")
    return Program(
        text=text.finish(symbols),
        data=data.finish(symbols),
        text_base=text_base,
        data_base=data_base,
        symbols=symbols,
        source=source,
        lines=lines,
    )
