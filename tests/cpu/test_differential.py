"""Instruction-level differential battery: the two-tier interpreter
against the opcode chain it replaced (``reference_interpreter.py``).

Every opcode-coverage guest (``randprog.opcode_program``) runs three
ways: with every block compiled before its first execution, on the cold
tier only, and at the default threshold.  Both interpreters get the same
random step budgets and resume after every step-limit and syscall exit.
At every exit they must agree on the registers, flags (bools on both
sides), ``rip``, steps, instructions executed, exit reason, fault type
and address, and on every mapped page.
"""

import random

import pytest

from repro.analysis.cfg import ControlFlowGraph
from repro.cpu import interpreter, isa
from repro.cpu.assembler import assemble
from repro.cpu.interpreter import Interpreter, VmExitReason
from repro.libos.loader import load_program
from repro.mem import FramePool
from repro.workloads.randprog import ENDINGS, opcode_program

from tests.cpu.reference_interpreter import ReferenceInterpreter

PROGRAMS = 200
#: Guest instructions one program may run before the battery stops it.
STEP_CAP = 2500
BUDGETS = (1, 2, 3, 5, 8, 13, 21, 60, 200, 1000)
RESUMED = (VmExitReason.STEP_LIMIT, VmExitReason.SYSCALL)


def precompile(program, code):
    """Decode every instruction the CFG reaches and compile a block at
    each one, so no head is ever entered cold."""
    for pc, insn in ControlFlowGraph(program).insns.items():
        code.decoded[pc] = (insn.opcode, *insn.fields, insn.next_pc)
    for pc in list(code.decoded):
        code.compile(pc)


def observe(cpu, exit_event):
    fault = exit_event.fault
    regs = cpu.regs.frozen()
    pages = [(vpn, pte.perms, bytes(pte.frame.data))
             for vpn, pte in cpu.space.table.items()]
    return {
        "reason": exit_event.reason,
        "steps": exit_event.steps,
        "fault": (type(fault).__name__, str(fault)),
        "regs": regs,
        # 1 == True, so compare the flags' types too: they stay bools.
        "flag_types": [type(flag) for flag in regs[2:]],
        "instructions_executed": cpu.instructions_executed,
        "pages": pages,
    }


def run_pair(seed, mode, ending=None):
    """Run one guest on both interpreters; returns what the battery saw:
    the exits (reason, fault type) and the opcodes the guest executed."""
    rng = random.Random(seed)
    source = opcode_program(seed, ending)
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
            return seen, {d[0] for d in ref._icache.values()}, new.code


@pytest.mark.parametrize("mode", ["precompiled", "cold", "default"])
def test_two_tiers_match_the_opcode_chain(mode, monkeypatch):
    if mode == "cold":
        monkeypatch.setattr(interpreter, "HOT_THRESHOLD", 1 << 62)
    exits = set()
    opcodes = set()
    blocks = 0
    for seed in range(PROGRAMS):
        seen, ran, code = run_pair(seed, mode, ENDINGS[seed % len(ENDINGS)])
        exits |= seen
        opcodes |= ran
        blocks += len(code.blocks)
    assert exits >= {
        (VmExitReason.SYSCALL, "NoneType"),
        (VmExitReason.HLT, "NoneType"),
        (VmExitReason.STEP_LIMIT, "NoneType"),
        (VmExitReason.PAGE_FAULT, "NotMappedError"),
        (VmExitReason.PAGE_FAULT, "ProtectionError"),
        (VmExitReason.CPU_EXCEPTION, "DivideError"),
        (VmExitReason.CPU_EXCEPTION, "InvalidOpcodeError"),
    }
    assert opcodes == set(isa.OPCODES)
    assert (blocks == 0) == (mode == "cold")
