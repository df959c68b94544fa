"""Loop-block differential battery: guests whose hot loops compile to
looping blocks, against the opcode chain (``reference_interpreter.py``).

Each guest runs one to three loops of at least ``HOT_THRESHOLD``
iterations, closed either by a top test and a ``jmp`` back to it or by a
conditional jump back to the loop head.  Some top tests read a flag that
the previous iteration left, before the body writes it.  Bodies mix ALU
work, push/pop pairs, loads and stores through a pointer that walks one
word down per iteration, and a ``udiv``/``umod`` by a counter that
counts down.  The last loop may end the guest at a chosen iteration
k > 1: its pointer walks off the start of the mapped data, or its
divisor reaches 0; or it spins until the step budget ends it.

Every guest runs in the three modes of ``test_differential.py`` with
random step budgets that land mid-iteration, and every exit is compared
on everything ``observe`` checks.  The battery also checks the shape of
every block it compiled, and that it catches two seeded mutants of the
loop form.
"""

import random

import pytest

from repro.cpu import interpreter, isa
from repro.cpu.assembler import assemble
from repro.cpu.interpreter import HOT_THRESHOLD, Interpreter, VmExitReason
from repro.libos.loader import load_program
from repro.mem import FramePool

from tests.cpu.reference_interpreter import ReferenceInterpreter
from tests.cpu.test_differential import RESUMED, observe, precompile

PROGRAMS = 100
STEP_CAP = 7000
#: Budgets that rarely divide a pass, so that exits land mid-iteration.
BUDGETS = (1, 2, 3, 5, 7, 11, 13, 29, 61, 127, 500, 2000)
#: Registers a body computes with: not the loop counter (rcx), the
#: walking pointer (r8), the divisor (r9) or rsp.
WORK = ("rax", "rdx", "rbx", "rbp", "rsi", "rdi",
        "r10", "r11", "r12", "r13", "r14", "r15")
ALU = ("add", "sub", "imul", "and", "or", "xor", "cmp")
SHAPES = ("top", "top-flag", "bottom", "bottom-cmp")
ENDS = ("memory", "divide", "spin", "none")


def simple(rng):
    """One instruction that neither transfers control nor faults."""
    a, b = rng.choice(WORK), rng.choice(WORK)
    imm = rng.choice((0, 1, -1, 7, 0x7FFF_FFFF, -0x8000_0000,
                      rng.randint(-0x8000_0000, 0x7FFF_FFFF)))
    return rng.choice((
        f"{rng.choice(ALU)} {a}, {b}",
        f"{rng.choice(ALU)} {a}, {imm}",
        f"test {a}, {b}",
        f"{rng.choice(('shl', 'shr'))} {a}, {rng.randint(0, 63)}",
        f"{rng.choice(('neg', 'not', 'inc', 'dec'))} {a}",
        f"mov {a}, {rng.getrandbits(64)}",
        f"mov {a}, {b}",
        f"lea {a}, [{b} + {imm}]",
        f"lea {a}, [{b} + {rng.choice(WORK)}*{rng.choice((1, 2, 4, 8))} + {imm}]",
    ))


def access(rng):
    """A load or store at the walking pointer."""
    a = rng.choice(WORK)
    return rng.choice((
        f"mov {a}, [r8]", f"mov [r8], {a}",
        f"movb {a}, [r8 + {rng.randrange(8)}]", f"movb [r8 + {rng.randrange(8)}], {a}",
    ))


def body(rng, memory, divide):
    """A loop body: ALU work, a push/pop pair and, if asked, an access at
    the pointer and a division by the divisor (which then counts down),
    in random order, then the pointer's step down."""
    items = [[simple(rng)] for _ in range(rng.randint(1, 5))]
    items.append([f"push {rng.choice(WORK)}", simple(rng), f"pop {rng.choice(WORK)}"])
    if memory:
        items.append([access(rng)])
    if divide:
        items.append([f"{rng.choice(('udiv', 'umod'))} {rng.choice(WORK)}, r9", "dec r9"])
    rng.shuffle(items)
    step = rng.choice(("sub r8, 8", "lea r8, [r8 + -8]"))
    return [line for item in items for line in item] + [step]


def loop(rng, label, iterations, end):
    """One loop of *iterations* passes.  *end* says how it may end the
    guest: its pointer or divisor fails at a chosen pass k > 1, or it
    spins until the budget runs out; ``"none"`` stays in bounds."""
    memory = end == "memory" or rng.random() < 0.6
    divide = end == "divide" or rng.random() < 0.4
    k = rng.randint(2, iterations)
    # Pass i touches buf + 8 * (reach - i + 1) and divides by
    # divisor - i + 1, so pass k is the first to fault on the one chosen.
    reach = k - 2 if end == "memory" else iterations + rng.randrange(3)
    divisor = k - 1 if end == "divide" else iterations + rng.randrange(3)
    setup = [f"mov rcx, {iterations}", "mov r8, buf", f"add r8, {8 * reach}",
             f"mov r9, {divisor}"]
    pass_ = body(rng, memory, divide)
    if end == "spin":
        return [*setup, f"{label}:", *pass_, f"jmp {label}"]
    shape = rng.choice(SHAPES)
    if shape == "top":
        return [*setup, f"{label}:", "cmp rcx, 0", f"je {label}_done", *pass_,
                "dec rcx", f"jmp {label}", f"{label}_done:"]
    if shape == "top-flag":
        # The head reads the zf that the last pass's dec left.
        return [*setup, "cmp rcx, 0", f"{label}:", f"je {label}_done", *pass_,
                "dec rcx", f"jmp {label}", f"{label}_done:"]
    if shape == "bottom":
        return [*setup, f"{label}:", *pass_, rng.choice(("dec rcx", "sub rcx, 1")),
                f"jne {label}"]
    return [*setup, f"{label}:", *pass_, "dec rcx", "cmp rcx, 0", f"jg {label}"]


def loop_program(seed):
    rng = random.Random(seed)
    count = rng.randint(1, 3)
    end = ENDS[seed % len(ENDS)]
    lines = ["; loop-block guest", ".data", "buf: .zero 2048", ".text", "_start:"]
    lines += [f"mov {reg}, {rng.getrandbits(64)}" for reg in WORK]
    for n in range(count):
        iterations = rng.randint(HOT_THRESHOLD, 2 * HOT_THRESHOLD + 20)
        lines += loop(rng, f"L{n}", iterations, end if n == count - 1 else "none")
    return "\n".join([*lines, "hlt"])


def run_pair(seed, mode):
    """Run one guest on both interpreters; returns the exits seen and
    the new interpreter's code cache."""
    rng = random.Random(seed)
    source = loop_program(seed)
    flags = [rng.random() < 0.5 for _ in range(4)]
    cpus = []
    for make in (ReferenceInterpreter, Interpreter):
        program = assemble(source)
        space, regs = load_program(program, FramePool())
        regs.zf, regs.sf, regs.cf, regs.of = flags
        cpus.append(make(space, regs))
    ref, new = cpus
    if mode == "precompiled":
        precompile(program, new.code)
    seen = set()
    total = 0
    while True:
        budget = min(rng.choice(BUDGETS), STEP_CAP - total)
        want = observe(ref, ref.run(budget))
        got = observe(new, new.run(budget))
        for key in want:
            assert got[key] == want[key], (
                f"seed {seed}, mode {mode}, budget {budget}, after {total} "
                f"steps: {key} differs\n{source}"
            )
        seen.add((want["reason"], want["fault"][0]))
        total += want["steps"]
        if want["reason"] not in RESUMED or total >= STEP_CAP:
            return seen, new.code


def check_shape(code):
    """Every compiled block holds each pc once, follows a ``jmp`` only to
    a decoded pc (the next one it holds), and loops exactly when its last
    jump can return to its head."""
    for head, block in code.blocks.items():
        assert block.pcs[0] == head and len(set(block.pcs)) == block.size
        for pc, after in zip(block.pcs, block.pcs[1:]):
            d = code.decoded[pc]
            assert after == (d[1] if d[0] == isa.JMP else d[-1])
            assert d[0] == isa.JMP or d[0] not in isa.ENDS_BLOCK
        op, *fields = code.decoded[block.pcs[-1]]
        if op == isa.JMP:
            fields = fields[:1]
        elif op not in isa.CONDITIONAL_JUMPS:
            fields = []
        assert block.loop == (head in fields)


def battery(mode, seeds):
    exits = set()
    loops = 0
    for seed in seeds:
        seen, code = run_pair(seed, mode)
        check_shape(code)
        exits |= seen
        loops += sum(block.loop for block in code.blocks.values())
    return exits, loops


@pytest.mark.parametrize("mode", ["precompiled", "cold", "default"])
def test_loop_blocks_match_the_opcode_chain(mode, monkeypatch):
    if mode == "cold":
        monkeypatch.setattr(interpreter, "HOT_THRESHOLD", 1 << 62)
    exits, loops = battery(mode, range(PROGRAMS))
    assert exits >= {
        (VmExitReason.HLT, "NoneType"),
        (VmExitReason.STEP_LIMIT, "NoneType"),
        (VmExitReason.PAGE_FAULT, "NotMappedError"),
        (VmExitReason.CPU_EXCEPTION, "DivideError"),
    }
    assert (loops == 0) == (mode == "cold")


def mutate(monkeypatch, old, new):
    """Compile every loop block with *old* replaced by *new* in its source."""
    define = interpreter._define

    def mutated(params, lines, name):
        if "room" in params:
            assert any(old in line for line in lines)
            lines = [line.replace(old, new) for line in lines]
        return define(params, lines, name)

    monkeypatch.setattr(interpreter, "_define", mutated)


@pytest.mark.parametrize("mode", ["precompiled", "default"])
@pytest.mark.parametrize("old, new", [
    ("range(room // ", "range(4096 // "),       # ignores the step room
    ("fault.passes = k", "fault.passes = 0"),   # drops the completed passes
], ids=["ignores-room", "drops-passes"])
def test_battery_catches_seeded_mutants(mode, old, new, monkeypatch):
    mutate(monkeypatch, old, new)
    with pytest.raises(AssertionError, match="differs"):
        battery(mode, range(PROGRAMS))
