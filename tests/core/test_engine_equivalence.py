"""Differential testing: every engine explores random guests identically.

Random deterministic guests (random fan-outs, state-dependent pruning,
memory mutation between guesses) are run on every machine-guest engine
and on every snapshot substrate; all must produce the same (path, exit
code) multiset as an engine-free Python reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.workloads.randprog import make_program, reference_solutions


def engine_solutions(result):
    return sorted((s.path, s.value[0]) for s in result.solutions)


@pytest.mark.parametrize("seed", range(12))
def test_machine_matches_reference(seed):
    program = make_program(seed)
    expected = sorted(reference_solutions(program))
    result = MachineEngine().run(program.source)
    assert engine_solutions(result) == expected


@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_all_engines_agree(seed):
    program = make_program(seed)
    expected = sorted(reference_solutions(program))
    engines = [
        MachineEngine("dfs"),
        MachineEngine("bfs"),
        MachineEngine(snapshot_mode="eager"),
        MachineEngine(snapshot_mode="dirty-eager"),
        ReplayMachineEngine("dfs"),
        ParallelMachineEngine(workers=3, quantum=9),
    ]
    for engine in engines:
        result = engine.run(program.source)
        assert engine_solutions(result) == expected, type(engine).__name__


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_property_snapshot_vs_replay(seed):
    program = make_program(seed)
    snap = MachineEngine().run(program.source)
    replay = ReplayMachineEngine().run(program.source)
    assert engine_solutions(snap) == engine_solutions(replay)
    assert engine_solutions(snap) == sorted(reference_solutions(program))


@given(seed=st.integers(0, 10_000), workers=st.integers(1, 6),
       quantum=st.integers(1, 60))
@settings(max_examples=15, deadline=None)
def test_property_parallel_interleaving_safe(seed, workers, quantum):
    """Any worker count and any timeslice produce the same solutions."""
    program = make_program(seed)
    expected = sorted(reference_solutions(program))
    result = ParallelMachineEngine(workers=workers, quantum=quantum).run(
        program.source
    )
    assert engine_solutions(result) == expected


MMAP_AFTER_GUESS = """
    mov rax, 9          ; mmap(0, 4096)
    mov rdi, 0
    mov rsi, 4096
    syscall
    mov rbx, rax
    mov rax, 0x1000     ; guess(2)
    mov rdi, 2
    syscall
    mov rax, 9          ; mmap(0, 4096) in the restored space
    mov rdi, 0
    mov rsi, 4096
    syscall
    sub rbx, rax        ; exit(first - second)
    mov rdi, rbx
    mov rax, 60
    syscall
"""


@pytest.mark.parametrize("mode", ["cow", "eager", "dirty-eager"])
def test_mmap_after_guess_in_every_snapshot_mode(mode):
    """A restored space keeps its mmap cursor, whichever way it was
    forked: the second region sits one page below the first."""
    result = MachineEngine(snapshot_mode=mode).run(MMAP_AFTER_GUESS)
    assert engine_solutions(result) == [((0,), 4096), ((1,), 4096)]
