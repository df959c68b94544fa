"""What every opcode does, written once.

:data:`SEMANTICS` maps each opcode of :data:`repro.cpu.isa.OPCODES` to a
Python source template over named placeholders:

* ``{0}``, ``{1}``, ... -- the operands in layout order.  A register
  operand stands for the register itself (an assignable name); every
  other operand stands for its decoded value.
* ``{sp}`` -- ``rsp``, which ``call``, ``ret``, ``push`` and ``pop`` use
  implicitly.
* ``{next}`` and ``{pc}`` -- the fall-through address and the
  instruction's own address.
* ``{zf}``, ``{sf}``, ``{cf}``, ``{of}`` -- the flags the instruction
  reads.

The templates follow three rules that the instantiations rely on:

* a register is written only by a statement ``{k} = ...``;
* a control transfer assigns ``rip``; every other instruction falls
  through to ``{next}``;
* an instruction that can fault (``faults``) does so before it writes any
  register, so a faulting instruction leaves the state it found.

Beside each template stand the flags it reads and, for each flag it
writes, the expression that computes it.  Flag expressions run after the
body, over its temporaries (``a``, ``b``, ``full``, ``res``), and yield
Python bools.  Flags outside ``writes`` keep their value.

:mod:`repro.cpu.interpreter` instantiates the table twice: once per
process as one generic handler per opcode (the cold tier), and per hot
block as one compiled function (the hot tier), which may follow jumps
and loop in place.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.cpu import isa

#: The flags, in register-file order.
FLAGS = ("zf", "sf", "cf", "of")


class Semantics(NamedTuple):
    """One opcode's meaning: a template and its declared effects."""

    body: str
    #: Flags the body reads.
    reads: frozenset[str]
    #: flag -> expression, for every flag the instruction writes.
    writes: dict[str, str]
    #: Whether the instruction can raise a page fault or #DE.
    faults: bool


def _sem(body: str, reads: str = "", writes: dict[str, str] | None = None,
         faults: bool = False) -> Semantics:
    return Semantics(body, frozenset(reads.split()), writes or {}, faults)


# Flag expressions shared by several opcodes.
_ZS = {"zf": "res == 0", "sf": "res >= SIGN"}
_LOGIC = {**_ZS, "cf": "False", "of": "False"}
_ADD = {**_ZS, "cf": "full > MASK64", "of": "~(a ^ b) & (a ^ res) & SIGN != 0"}
_SUB = {**_ZS, "cf": "a < b", "of": "(a ^ b) & (a ^ res) & SIGN != 0"}


def _alu(rr: int, ri: int, body: str, writes: dict[str, str]) -> dict[int, Semantics]:
    """The reg,reg and reg,imm32 forms of one ALU op: ``{src}`` is the
    second operand, a sign-extended immediate taken as unsigned 64-bit."""
    return {
        rr: _sem(body.replace("{src}", "{1}"), writes=writes),
        ri: _sem(body.replace("{src}", "({1} & MASK64)"), writes=writes),
    }


def _jcc(taken_if: str, reads: str) -> Semantics:
    return _sem(f"rip = {{0}} if {taken_if} else {{next}}", reads=reads)


_DIV_CHECK = "if {1} == 0: raise DivideError('division by zero at %#x' % {pc})\n"

#: opcode -> semantics, for every opcode in :data:`isa.OPCODES`.
SEMANTICS: dict[int, Semantics] = {
    isa.MOVI: _sem("{0} = {1}"),
    isa.MOVR: _sem("{0} = {1}"),
    isa.LOAD: _sem("{0} = space.read_word(({1} + {2}) & MASK64)", faults=True),
    isa.STORE: _sem("space.write_word(({0} + {1}) & MASK64, {2})", faults=True),
    isa.LOADB: _sem("{0} = space.read_byte(({1} + {2}) & MASK64)", faults=True),
    isa.STOREB: _sem("space.write_byte(({0} + {1}) & MASK64, {2})", faults=True),
    isa.LOADX: _sem("{0} = space.read_word(({1} + {2} * {3} + {4}) & MASK64)",
                    faults=True),
    isa.STOREX: _sem("space.write_word(({0} + {1} * {2} + {3}) & MASK64, {4})",
                     faults=True),
    isa.LOADBX: _sem("{0} = space.read_byte(({1} + {2} * {3} + {4}) & MASK64)",
                     faults=True),
    isa.STOREBX: _sem("space.write_byte(({0} + {1} * {2} + {3}) & MASK64, {4})",
                      faults=True),
    isa.LEA: _sem("{0} = ({1} + {2}) & MASK64"),
    isa.LEAX: _sem("{0} = ({1} + {2} * {3} + {4}) & MASK64"),
    **_alu(isa.ADDRR, isa.ADDRI,
           "a = {0}\nb = {src}\nfull = a + b\nres = full & MASK64\n{0} = res", _ADD),
    **_alu(isa.SUBRR, isa.SUBRI,
           "a = {0}\nb = {src}\nres = (a - b) & MASK64\n{0} = res", _SUB),
    **_alu(isa.CMPRR, isa.CMPRI, "a = {0}\nb = {src}\nres = (a - b) & MASK64", _SUB),
    isa.TESTRR: _sem("res = {0} & {1}", writes=_LOGIC),
    # The low 64 bits of a product do not depend on the operands' signs.
    isa.IMULRR: _sem("res = {0} * {1} & MASK64\n{0} = res", writes=_ZS),
    isa.IMULRI: _sem("res = {0} * {1} & MASK64\n{0} = res", writes=_ZS),
    **_alu(isa.ANDRR, isa.ANDRI, "res = {0} & {src}\n{0} = res", _LOGIC),
    **_alu(isa.ORRR, isa.ORRI, "res = {0} | {src}\n{0} = res", _LOGIC),
    **_alu(isa.XORRR, isa.XORRI, "res = {0} ^ {src}\n{0} = res", _LOGIC),
    isa.SHLI: _sem("res = ({0} << ({1} & 63)) & MASK64\n{0} = res", writes=_ZS),
    isa.SHRI: _sem("res = {0} >> ({1} & 63)\n{0} = res", writes=_ZS),
    isa.NEG: _sem("res = -{0} & MASK64\n{0} = res", writes={**_ZS, "cf": "res != 0"}),
    isa.NOT: _sem("{0} = {0} ^ MASK64"),
    isa.INC: _sem("res = ({0} + 1) & MASK64\n{0} = res", writes=_ZS),
    isa.DEC: _sem("res = ({0} - 1) & MASK64\n{0} = res", writes=_ZS),
    isa.UDIVRR: _sem(_DIV_CHECK + "{0} = {0} // {1}", faults=True),
    isa.UMODRR: _sem(_DIV_CHECK + "{0} = {0} % {1}", faults=True),
    isa.JMP: _sem("rip = {0}"),
    isa.JE: _jcc("{zf}", "zf"),
    isa.JNE: _jcc("not {zf}", "zf"),
    isa.JL: _jcc("{sf} != {of}", "sf of"),
    isa.JLE: _jcc("{zf} or {sf} != {of}", "zf sf of"),
    isa.JG: _jcc("not {zf} and {sf} == {of}", "zf sf of"),
    isa.JGE: _jcc("{sf} == {of}", "sf of"),
    isa.JB: _jcc("{cf}", "cf"),
    isa.JAE: _jcc("not {cf}", "cf"),
    isa.CALL: _sem("t = ({sp} - 8) & MASK64\nspace.write_word(t, {next})\n{sp} = t\n"
                   "rip = {0}", faults=True),
    isa.RET: _sem("t = {sp}\nrip = space.read_word(t)\n{sp} = (t + 8) & MASK64",
                  faults=True),
    isa.PUSH: _sem("t = ({sp} - 8) & MASK64\nspace.write_word(t, {0})\n{sp} = t",
                   faults=True),
    isa.POP: _sem("t = {sp}\n{0} = space.read_word(t)\n{sp} = (t + 8) & MASK64",
                  faults=True),
    isa.SYSCALL: _sem(""),
    isa.NOP: _sem(""),
    isa.HLT: _sem(""),
}

_ASSIGN = re.compile(r"^\{(\d+|sp)\} = ", re.MULTILINE)
_REGISTER = re.compile(r"\{(\d+|sp)\}")


def register_effects(body: str) -> tuple[frozenset[str], frozenset[str]]:
    """The register placeholders (``"0"``, ``"sp"``, ...) *body* reads and
    the ones it writes.  Every template reads a register before it writes
    it."""
    written = frozenset(_ASSIGN.findall(body))
    read = frozenset(_REGISTER.findall(_ASSIGN.sub("", body)))
    return read, written


def transfers(body: str) -> bool:
    """Whether *body* assigns ``rip`` rather than falling through."""
    return re.search(r"^rip = ", body, re.MULTILINE) is not None
