"""The interpreter's code cache belongs to the loaded program."""

import pickle

import pytest

from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.cpu.assembler import assemble
from repro.workloads.nqueens import nqueens_asm


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
