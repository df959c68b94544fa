"""The semantics table's declarations, checked against the opcode chain.

The block compiler drops flag work and register stores on the strength
of what each entry of ``SEMANTICS`` declares, so a wrong declaration
silently corrupts guests.  For every opcode, with random operands and
random incoming flags, the reference interpreter (the opcode chain) must
show that:

* no flag outside the declared write set changes;
* a conditional jump's outcome depends only on its declared read set;
* an opcode not declared to fault never faults.

Each random instruction also runs once on the cold tier and once as a
compiled one-instruction block, and both must leave what the chain
leaves.
"""

import random

import pytest

from repro.cpu import isa
from repro.cpu.interpreter import Interpreter, VmExitReason
from repro.cpu.registers import MASK64, FrozenRegisters, RegisterFile
from repro.cpu.semantics import FLAGS, SEMANTICS, register_effects
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.mem.layout import CODE_BASE, DATA_BASE, STACK_TOP

from tests.cpu.reference_interpreter import ReferenceInterpreter

TRIALS = 150
_FIELD_BYTES = {"r": 1, "c": 1, "i": 8, "s": 4, "d": 4, "t": 4}
_FAULTS = (VmExitReason.PAGE_FAULT, VmExitReason.CPU_EXCEPTION)


def random_insn(rng, op):
    """*op* with random operands, encoded."""
    out = bytearray([op])
    for kind in isa.OPCODES[op].layout:
        if kind == "r":
            out.append(rng.randrange(16))
        elif kind == "c":
            out.append(rng.choice((1, 2, 4, 8)))
        else:
            width = _FIELD_BYTES[kind]
            value = rng.choice((0, 1, -1, 8, rng.randrange(-4096, 4096),
                                rng.getrandbits(8 * width - 1)))
            out += value.to_bytes(width, "little", signed=True)
    return bytes(out)


def random_regs(rng):
    def value():
        return rng.choice((0, 1, 2, 63, 64, 1 << 63, MASK64, rng.getrandbits(64),
                           DATA_BASE + rng.randrange(PAGE_SIZE),
                           STACK_TOP - 8 * rng.randrange(1, 64)))

    flags = [rng.random() < 0.5 for _ in FLAGS]
    return FrozenRegisters(tuple(value() for _ in range(16)), CODE_BASE, *flags)


def execute(make, code, frozen):
    """Run the instruction *code* once from *frozen*; returns the exit,
    the registers after it and every mapped page."""
    space = AddressSpace(FramePool())
    space.map_region(CODE_BASE, PAGE_SIZE, Permission.RX, data=code)
    space.map_region(DATA_BASE, PAGE_SIZE, Permission.RW, data=bytes(range(256)) * 16)
    space.map_region(STACK_TOP - PAGE_SIZE, PAGE_SIZE, Permission.RW)
    regs = RegisterFile()
    regs.load(frozen)
    cpu = make(space, regs)
    exit_event = cpu.run(max_steps=1)
    fault = exit_event.fault
    pages = [(vpn, bytes(pte.frame.data)) for vpn, pte in space.table.items()]
    return ((exit_event.reason, exit_event.steps, type(fault), str(fault)),
            regs.frozen(), pages)


def hot(space, regs):
    cpu = Interpreter(space, regs)
    code = space.fetch(CODE_BASE, PAGE_SIZE)
    cpu.code.decoded[CODE_BASE] = isa.decode(code, CODE_BASE)
    assert cpu.code.compile(CODE_BASE).size == 1
    return cpu


def flags_of(frozen):
    return dict(zip(FLAGS, (frozen.zf, frozen.sf, frozen.cf, frozen.of)))


def with_flag_flipped(frozen, flag):
    return frozen._replace(**{flag: not getattr(frozen, flag)})


@pytest.mark.parametrize("op", sorted(isa.OPCODES), ids=lambda op: f"{op:#04x}")
def test_declarations_hold_on_the_opcode_chain(op):
    sem = SEMANTICS[op]
    rng = random.Random(op)
    for _ in range(TRIALS):
        code = random_insn(rng, op)
        before = random_regs(rng)
        want = execute(ReferenceInterpreter, code, before)
        exit_info, after, _ = want
        if not sem.faults:
            assert exit_info[0] not in _FAULTS, exit_info
        changed = {flag for flag, value in flags_of(after).items()
                   if value != flags_of(before)[flag]}
        assert changed <= sem.writes.keys(), (changed, code.hex())
        if op in isa.ENDS_BLOCK and sem.reads:
            for flag in set(FLAGS) - sem.reads:
                flipped = execute(ReferenceInterpreter, code,
                                  with_flag_flipped(before, flag))
                assert flipped[1].rip == after.rip, (flag, code.hex())
        assert execute(Interpreter, code, before) == want, code.hex()
        assert execute(hot, code, before) == want, code.hex()


def test_every_opcode_has_semantics():
    assert SEMANTICS.keys() == isa.OPCODES.keys()


@pytest.mark.parametrize("op", sorted(isa.OPCODES), ids=lambda op: f"{op:#04x}")
def test_template_matches_its_declarations(op):
    """The flags a template names are the flags it declares reading, and it
    assigns only register operands."""
    sem = SEMANTICS[op]
    layout = isa.OPCODES[op].layout
    named = {flag for flag in FLAGS if "{" + flag + "}" in sem.body}
    assert named == sem.reads
    _, writes = register_effects(sem.body)
    assert all(name == "sp" or layout[int(name)] == "r" for name in writes)
    assert sem.faults == ("space." in sem.body or "raise" in sem.body)
