"""The one-pass assembler and the layout-table decoder against the old
code, kept in :mod:`tests.cpu.reference_assembler`.

Every guest generator must assemble to the same :class:`Program` on both
assemblers.  Random source lines must give the same program or the same
error, except on the lines where the old lexer's known defects show
(:func:`lexes_differently`): its quoting, and string escapes it handed to
Python's codec; those have their own tests in ``test_assembler.py``.  Random instruction bytes must decode to the same
tuple or fail with the same error.
"""

import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.cpu import isa
from repro.cpu.assembler import _ALIASES, _operand_kinds, assemble
from repro.cpu.registers import REG_INDEX, REG_NAMES
from repro.crashsim.harness import _plan_pruned_points, crash_asm
from repro.crashsim.model import simulate
from repro.workloads.coloring import WHEEL5_EDGES, WHEEL5_NODES, coloring_asm
from repro.workloads.crashfs import CORPUS
from repro.workloads.knapsack import random_instance, subset_sum_asm
from repro.workloads.nqueens import nqueens_asm, nqueens_randomized_asm
from repro.workloads.puzzle8 import puzzle8_asm, scramble
from repro.workloads.randprog import generate_source, make_program, opcode_program
from repro.workloads.sudoku import make_puzzle, sudoku_asm
from repro.workloads.synthetic import stdin_sum_asm, synthetic_asm

from tests.cpu import reference_assembler as reference


def outcome(assembler, source):
    """The program, or the type and message of what was raised."""
    try:
        return assembler(source)
    except Exception as err:  # the old code can raise more than AssemblyError
        return type(err).__name__, str(err)


# --- every guest generator -------------------------------------------------


def crash_sources():
    for name, plan in sorted(CORPUS.items()):
        sim = simulate(plan)
        yield f"crash:{name}", crash_asm(plan, sim)
        prune = _plan_pruned_points(plan, sim)
        if prune is not None:
            yield f"crash-pruned:{name}", crash_asm(plan, sim, prune.pruned)


def generated_sources():
    yield from crash_sources()
    for n in range(4, 10):
        yield f"nqueens:{n}", nqueens_asm(n)
    yield "nqueens:fig1", nqueens_asm(6, fig1_style=True, ballast_pages=2)
    yield "nqueens-randomized", nqueens_randomized_asm(6)
    for depth, fanout, work, pages in [(3, 2, 10, 1), (6, 4, 300, 16), (2, 3, 1, 8)]:
        yield f"synthetic:{depth},{fanout},{work},{pages}", synthetic_asm(
            depth, fanout, work, pages)
    yield "stdin-sum", stdin_sum_asm(4)
    yield "subset-sum", subset_sum_asm(*random_instance(8, seed=3))
    yield "sudoku", sudoku_asm(make_puzzle(6, seed=1))
    yield "coloring", coloring_asm(WHEEL5_NODES, WHEEL5_EDGES, 4)
    yield "puzzle8", puzzle8_asm(scramble(6, seed=2), 8)
    for seed in range(100):
        yield f"randprog:{seed}", generate_source(make_program(seed))
        yield f"opcode-program:{seed}", opcode_program(seed)


def test_pruned_crash_guests_are_covered():
    assert any(name.startswith("crash-pruned:") for name, _ in crash_sources())


GENERATED = dict(generated_sources())


@pytest.mark.parametrize("name", GENERATED)
def test_every_generator_assembles_to_the_same_program(name):
    source = GENERATED[name]
    program = assemble(source)
    assert program == reference.assemble(source)
    assert program.text and program.lines


# --- every mnemonic over every operand kinds --------------------------------

#: One operand of each kind: register, immediate, memory, indexed memory.
SAMPLE_OPERAND = {"r": "rbx", "i": "5", "m": "[rcx + 8]", "x": "[rcx + rdx*4 - 8]"}
KINDS = ["", *"rimx", *(a + b for a in "rimx" for b in "rimx"), "rrr"]


@pytest.mark.parametrize("mnemonic", sorted(
    {spec.name for spec in isa.OPCODES.values()} | _ALIASES.keys() | {"frob"}))
def test_every_operand_kinds_assemble_alike(mnemonic):
    """Each form encodes, or fails with the same error, on both."""
    for kinds in KINDS:
        source = f"{mnemonic} " + ", ".join(SAMPLE_OPERAND[kind] for kind in kinds)
        assert outcome(assemble, source) == outcome(reference.assemble, source), kinds


# --- random source lines ---------------------------------------------------


#: What the old lexer read as syntax inside a quoted span: it knew no
#: single quotes, and no escapes inside double quotes.
OLD_SYNTAX = {"'": ';#,[]"', '"': ';#"'}
#: An escape both assemblers read as one byte (octal only up to \377).
#: The old code gave any other to Python's ``unicode_escape`` codec,
#: which warned and kept it, or raised its own error, where the
#: assembler raises an ``AssemblyError``.
GOOD_ESCAPE = re.compile(
    r"""\\(?:x[0-9A-Fa-f]{2}|[0-3][0-7]{0,2}|[4-7][0-7]?(?![0-7])|[\\'"abfnrtv])""")
#: The labels and the mnemonic or directive name (group 1) of a line.
LABELS = re.compile(r"\s*(?:[A-Za-z_.$][\w.$]*:\s*)*(\S*)")
#: How both assemblers cut a string into escapes: a backslash and two
#: hex digits, one to three octal digits, or any one character.
ESCAPE = re.compile(r"\\(?:x[0-9A-Fa-f]{2}|[0-7]{1,3}|.?)", re.S)


def reads_alike_lower_cased(part: str) -> bool:
    """A part of a memory operand that means the same in lower case: a
    register, a scaled register, an integer or a part with no upper case
    (a negated register is a bad displacement, quoted as written)."""
    scaled = re.fullmatch(r"(\w+)\*[1248]", part)
    if (scaled.group(1) if scaled else part).lower() in REG_INDEX:
        return True
    try:
        int(part, 0)
    except ValueError:
        return part == part.lower()
    return True


def lexes_differently(line: str) -> bool:
    """True where the old lexer's known defects show on *line*.

    It started a comment at a ``;`` or ``#`` inside quotes, split
    operands at a comma inside single quotes or after an unmatched
    ``]``, lower-cased labels and character literals inside brackets,
    and let a bad escape in a quoted span through to Python's codec.
    ``.ascii`` and ``.asciz`` take everything from the first to the last
    quote of their operand as the string, whatever quotes lie between,
    so their escapes are read from that span.
    """
    quote = ""
    escaped = unmatched = False
    depth = 0
    end = len(line)
    for k, ch in enumerate(line):
        if quote:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
                if not GOOD_ESCAPE.match(line, k):
                    return True
                continue
            elif ch == quote:
                quote = ""
                continue
            if ch in OLD_SYNTAX[quote]:
                return True
        elif ch in "'\"":
            quote = ch
        elif ch in ";#":
            end = k
            break
        elif ch == "[":
            depth += 1
        elif ch == "]":
            unmatched = unmatched or not depth
            depth = max(depth - 1, 0)
        elif ch == "," and unmatched:
            return True
    head = LABELS.match(line[:end])
    string = re.match(r'^"(.*)"$', line[head.end():end].strip())
    if head.group(1) in (".ascii", ".asciz") and string and not all(
            GOOD_ESCAPE.match(esc.group()) for esc in ESCAPE.finditer(string.group(1))):
        return True
    # The operands split alike; the old lexer lower-cased memory operands.
    for tok in reference._split_operands(line[head.end():end]):
        if len(tok) >= 3 and tok[0] == "[" and tok[-1] == "]":
            body = tok[1:-1].replace(" ", "").replace("\t", "").replace("-", "+-")
            if not all(map(reads_alike_lower_cased, body.split("+"))):
                return True
    return False


def mixed_case(words):
    return st.tuples(words, st.integers(0, 15)).map(
        lambda t: "".join(c.upper() if t[1] >> (i % 4) & 1 else c
                          for i, c in enumerate(t[0])))


registers = mixed_case(st.sampled_from(REG_NAMES))
labels = st.sampled_from(["a", "b", "loop", "Loop", "_start", ".L1", "end", "x.y", "$t"])
integers = st.one_of(
    st.integers(-300, 300).map(str),
    st.sampled_from([2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63, 2**64 - 1,
                     2**64, -(2**63), -(2**63) - 1]).map(str),
    st.integers(0, 2**66).map(hex),
    st.integers(0, 2**40).map(lambda v: f"-{v:#x}"),
    st.integers(0, 255).map(lambda v: f"0X{v:X}"),
    st.sampled_from(["0b101", "0o17", "1_000", "+5", "010", "1abc", "-", "0x"]),
)
chars = st.sampled_from(["'A'", "'a'", "'\\n'", "'\\''", "'0'", "' '", "'ab'", "''",
                         "'\\x41'", "'\\t'", "'\"'", "'['", "']'", "';'", "','"])
immediates = st.one_of(integers, chars, labels)
displacements = st.one_of(st.integers(-(2**33), 2**33).map(str), labels, chars,
                          st.sampled_from(["0", "8", "0x10"]))


@st.composite
def memory(draw):
    parts = [draw(registers)]
    if draw(st.booleans()):
        index = draw(registers)
        parts.append(draw(st.sampled_from([index, f"{index}*1", f"{index}*2",
                                           f"{index}*4", f"{index}*8", f"{index}*3"])))
    if draw(st.booleans()):
        parts.append(draw(displacements))
    parts = draw(st.permutations(parts)) if draw(st.integers(0, 4)) == 0 else parts
    body = ""
    for k, part in enumerate(parts):
        if k:
            sign = draw(st.sampled_from([" + ", "+", " - ", "-", " +  -"]))
            body += sign
        body += part
    return "[" + draw(st.sampled_from(["", " "])) + body + "]"


malformed = st.sampled_from(["", "[]", "[ ]", "[8]", "[rax + rbx + rcx]", "[rax*2 + rbx*4]",
                             "[rax + 1 + a]", "[rax + a + 1]", "[rax + -a]", "[rax + a + b]",
                             "rax]", "[rax", "[[rax]]", "[rax, rbx]", "rax rbx", '"s"'])
operands = st.one_of(registers, immediates, memory(), malformed)

#: Layout character -> the operand strategy that encodes it.
FORM_OPERANDS = {"r": registers, "i": immediates, "m": memory(), "x": memory()}
ALIASES_OF = {"je": ["je", "jz", "JZ"], "jne": ["jne", "jnz"], "mov": ["mov", "movq", "MOV"]}


@st.composite
def well_formed_instruction(draw):
    """An instruction of some opcode, with operands of its kinds."""
    spec = isa.OPCODES[draw(st.sampled_from(sorted(isa.OPCODES)))]
    mnemonic = draw(st.sampled_from(ALIASES_OF.get(spec.name, [spec.name])))
    ops = [draw(FORM_OPERANDS[kind]) for kind in _operand_kinds(spec.layout)]
    return mnemonic + (" " + ", ".join(ops) if ops else "")


@st.composite
def free_instruction(draw):
    mnemonic = draw(mixed_case(st.sampled_from(
        sorted({spec.name for spec in isa.OPCODES.values()} | {"jz", "movq", "frob"}))))
    ops = draw(st.lists(operands, max_size=3))
    separator = draw(st.sampled_from([", ", ",", " ,", ",, "]))
    return mnemonic + draw(st.sampled_from([" ", "\t"])) + separator.join(ops)


strings = st.text(alphabet='abc;#, "\\n\'', max_size=6)
directives = st.one_of(
    st.lists(st.one_of(integers, labels, chars), max_size=4).map(
        lambda vs: ".quad " + ", ".join(vs)),
    st.lists(st.one_of(integers, chars), max_size=4).map(lambda vs: ".byte " + ", ".join(vs)),
    # Small sizes only: .zero allocates what it is asked for.
    st.sampled_from(["0", "1", "7", "0x10", "-1", "'a'", "", "a", "1abc"]).map(
        lambda v: f".zero {v}"),
    st.tuples(st.sampled_from([".ascii", ".asciz"]), strings).map(
        lambda t: f'{t[0]} "{t[1]}"'),
    st.sampled_from([".text", ".data", ".wat 5", ".asciz abc", ".ascii", ".text junk",
                     ".TEXT", ".zero 3, 4"]),
)


@st.composite
def source_line(draw):
    line = draw(st.sampled_from(["", "  ", "\t"]))
    for _ in range(draw(st.integers(0, 2))):
        line += draw(labels) + draw(st.sampled_from([":", ": ", ":\t"]))
    line += draw(st.one_of(well_formed_instruction(), well_formed_instruction(),
                           free_instruction(), directives, st.just("")))
    line += draw(st.sampled_from(["", " ; note", "# note", " ;", " # it's, [x]"]))
    return line


sources = st.lists(source_line().filter(lambda line: not lexes_differently(line)),
                   min_size=1, max_size=8).map("\n".join)


@given(source=sources)
@example(source='.data\n.quad\n.ascii ""\\"')
@settings(max_examples=400, deadline=None)
def test_random_sources_assemble_alike(source):
    # An explicit example skips the strategy's filter.
    assume(not any(map(lexes_differently, source.split("\n"))))
    assert outcome(assemble, source) == outcome(reference.assemble, source)


@given(lines=st.lists(well_formed_instruction().filter(
    lambda line: not lexes_differently(line)), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_well_formed_programs_assemble_alike(lines):
    source = "\n".join(["a:", ".data", "b: .quad a, b", ".text", "loop:",
                        *lines, "end: hlt", "Loop: ret", "_start:", ".L1:", "x.y:", "$t:"])
    assert outcome(assemble, source) == outcome(reference.assemble, source)


# --- random instruction bytes ----------------------------------------------


def decoded(decoder, code, pc, offset):
    try:
        return decoder(code, pc, offset)
    except isa.DecodeError as err:
        return err.kind, err.pc, err.opcode


@given(opcode=st.one_of(st.sampled_from(sorted(isa.OPCODES)), st.integers(0, 255)),
       operands=st.lists(st.one_of(st.integers(0, 255), st.integers(0, 17)),
                         min_size=17, max_size=17),
       pc=st.integers(0, (1 << 48) - 1),
       offset=st.integers(0, 3))
@settings(max_examples=400, deadline=None)
# One negative value in each signed field kind: disp32, imm32, rel32.
@example(isa.LOAD, [1, 2, 0, 0, 0, 0x80] + [0] * 11, 0x400000, 0)
@example(isa.LOADX, [1, 2, 3, 8, 0xF8, 0xFF, 0xFF, 0xFF] + [0] * 9, 0x400000, 1)
@example(isa.ADDRI, [3, 0xFF, 0xFF, 0xFF, 0xFF] + [0] * 12, 0x400000, 2)
@example(isa.JMP, [0xF0, 0xFF, 0xFF, 0xFF] + [0] * 13, 0x400000, 3)
def test_random_bytes_decode_alike(opcode, operands, pc, offset):
    """At every truncation length, from bytes and from a frame's bytearray."""
    whole = bytes([0x90] * offset + [opcode, *operands])
    for end in range(offset + 1, len(whole) + 1):
        for code in (whole[:end], bytearray(whole[:end])):
            assert decoded(isa.decode, code, pc, offset) == decoded(
                reference.decode, code, pc, offset)
