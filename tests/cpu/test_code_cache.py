"""The interpreter's code cache belongs to the loaded program, and the
shape of the blocks it compiles."""

import pickle

import pytest

from repro.analysis.cfg import ControlFlowGraph
from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.cpu import interpreter
from repro.cpu.assembler import assemble
from repro.cpu.interpreter import Interpreter
from repro.workloads.nqueens import nqueens_asm
from repro.workloads.synthetic import synthetic_asm


def exits_with(status):
    return f"mov rax, 60\nmov rdi, {status}\nsyscall"


@pytest.mark.parametrize(
    "engine", [MachineEngine, ParallelMachineEngine, ReplayMachineEngine])
def test_second_program_runs_its_own_code(engine):
    """Two guests with the same addresses: the second must not run the
    first one's decoded instructions."""
    e = engine()
    assert e.run(exits_with(7)).solution_values == [(7, "")]
    assert e.run(exits_with(9)).solution_values == [(9, "")]


def test_restores_and_vcpus_share_the_programs_blocks():
    program = assemble(nqueens_asm(6))
    engine = ParallelMachineEngine(workers=2, quantum=64)
    assert len(engine.run(program).solutions) == 4
    assert {id(w.stepper.vcpu._interp.code) for w in engine.workers} \
        == {id(program.code)}
    assert program.code.blocks


def test_copied_program_starts_cold():
    program = assemble(nqueens_asm(5))
    MachineEngine().run(program)
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program
    assert copy.code is not program.code
    assert not copy.code.decoded and not copy.code.blocks


def decoded(source):
    """A program whose every instruction is decoded and none compiled."""
    program = assemble(source)
    for pc, insn in ControlFlowGraph(program).insns.items():
        program.code.decoded[pc] = (insn.opcode, *insn.fields, insn.next_pc)
    return program.code, program.symbols


CHAINED = """
_start:
    mov rcx, 100
head:
    add rax, 1
to_mid:
    jmp mid
back:
    dec rcx
to_head:
    jne head
    hlt
mid:
    add rbx, 2
to_back:
    jmp back
top:
    nop
inner:
    inc rax
to_inner:
    jmp inner
"""


def test_a_block_follows_a_jmp_to_a_decoded_pc_and_loops_at_its_head():
    code, at = decoded(CHAINED)
    block = code.compile(at["head"])
    assert block.loop
    assert block.pcs == [at[label] for label in (
        "head", "to_mid", "mid", "to_back", "back", "to_head")]
    # A jmp back into the block, not to its head, ends it.
    block = code.compile(at["top"])
    assert block.pcs == [at["top"], at["inner"], at["to_inner"]]
    assert not block.loop
    assert code.compile(at["inner"]).loop


def test_a_block_stops_at_a_jmp_to_an_undecoded_pc():
    code, at = decoded(CHAINED)
    del code.decoded[at["mid"]]
    block = code.compile(at["head"])
    assert block.pcs == [at["head"], at["to_mid"]]
    assert not block.loop


def test_hot_loops_run_in_a_handful_of_block_calls(monkeypatch):
    """Counts, not time: once its loops are hot, a non-leaf extension of
    ``synthetic_asm`` (a 300-iteration work loop and a 15-page loop) calls
    compiled blocks a handful of times; with a block per basic block it
    made about 630 calls, two per work-loop iteration."""
    calls = []
    define = interpreter._define

    def counting(params, lines, name):
        run = define(params, lines, name)
        if not name.startswith("<block"):
            return run

        def counted(*args):
            calls.append(name)
            return run(*args)
        return counted

    monkeypatch.setattr(interpreter, "_define", counting)
    entries = []
    run = Interpreter.run

    def entry(self, max_steps=None):
        before = len(calls)
        vm_exit = run(self, max_steps)
        entries.append((vm_exit.steps, len(calls) - before))
        return vm_exit

    monkeypatch.setattr(Interpreter, "run", entry)
    program = assemble(synthetic_asm(3, 4, 300, 15))
    MachineEngine().run(program)    # every head gets hot
    entries.clear()
    MachineEngine().run(program)
    loops = [calls for steps, calls in entries if steps > 2000]
    assert len(loops) == 1 + 4 + 16    # the non-leaf extensions
    assert max(loops) <= 5
