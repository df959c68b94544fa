"""The extension stepper's shared rules, checked on every engine driving it.

* A step budget that runs out exactly on a syscall exit is a kill,
  counted like any other kill.
* A path that ends while its decision prefix is still replaying is a
  replay divergence, never a solution with a truncated path.
"""

import pytest

from repro.core.cluster import ClusterConfig, ProcessParallelEngine, _SubtreeWorker
from repro.core.errors import ReplayDivergenceError
from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.core.sysno import SYS_EXIT, SYS_GUESS, SYS_READ, SYS_WRITE
from repro.cpu.assembler import assemble
from repro.libos.console import InputSource
from repro.search.shard import PrefixTask
from repro.workloads.nqueens import nqueens_asm

#: ``write(1, 0, 0)`` forever: six instructions per iteration, the fifth
#: a syscall, so budgets of 5 + 6k run out exactly on a syscall exit.
SPIN_WRITE = f"""
spin:
    mov rax, {SYS_WRITE}
    mov rdi, 1
    mov rsi, 0
    mov rdx, 0
    syscall
    jmp spin
"""

IN_PROCESS = {
    "machine": lambda budget: MachineEngine(max_steps_per_extension=budget),
    "replay": lambda budget: ReplayMachineEngine(max_steps_per_path=budget),
    "parallel": lambda budget: ParallelMachineEngine(
        workers=1, max_steps_per_extension=budget
    ),
}


@pytest.mark.parametrize("budget", range(20, 32))
@pytest.mark.parametrize("engine", sorted(IN_PROCESS))
def test_exhausted_budget_is_one_kill(engine, budget):
    result = IN_PROCESS[engine](budget).run(SPIN_WRITE)
    assert result.solutions == []
    assert result.stats.kills == 1


def test_budget_kill_on_a_syscall_exit_reports_its_reason():
    # 23 = 5 + 3 * 6: the budget runs out on the fourth write.
    result = MachineEngine(max_steps_per_extension=23).run(SPIN_WRITE)
    assert result.stats.extra["kill_reasons"] == [
        "extension step budget exhausted"
    ]


def test_process_worker_counts_the_kill():
    engine = ProcessParallelEngine(workers=1, max_steps_per_extension=23)
    result = engine.run(SPIN_WRITE)
    assert result.solutions == []
    assert result.stats.kills == 1


#: Reads one stdin byte and guesses only when it is ``g``.  Stdin is not
#: recorded (replay mode off), so re-executing the guest from its entry
#: reads the next byte and takes the other branch.
GUESS_IF_G = f"""
    .data
    buf: .zero 8
    .text
    _start:
        mov rax, {SYS_READ}
        mov rdi, 0
        mov rsi, buf
        mov rdx, 1
        syscall
        mov rbx, buf
        mov rax, [rbx + 0]
        and rax, 255
        cmp rax, 103
        jne done
        mov rax, {SYS_GUESS:#x}
        mov rdi, 2
        syscall
        mov rdi, rax
        mov rax, {SYS_EXIT}
        syscall
    done:
        mov rdi, 9
        mov rax, {SYS_EXIT}
        syscall
"""


def test_snapshot_engine_reads_the_input_once():
    result = MachineEngine(input=InputSource(b"gx")).run(GUESS_IF_G)
    assert [(s.path, s.value[0]) for s in result.solutions] == [
        ((0,), 0), ((1,), 1),
    ]


@pytest.mark.parametrize("make", [
    lambda: ReplayMachineEngine(input=InputSource(b"gx")),
    lambda: ProcessParallelEngine(workers=1, subtree_depth=0,
                                  input_script=b"gx"),
], ids=["replay", "process"])
def test_path_ending_during_replay_diverges(make):
    with pytest.raises(ReplayDivergenceError, match="path ended during "
                       "replay of a prefix of length 1"):
        make().run(GUESS_IF_G)


def test_every_load_maps_the_pools_one_zero_frame():
    """A pool's demand-zero pages share one frame however many times a
    program is loaded into it: 895 boots of one replay run, a cluster
    worker serving many tasks."""
    replay = ReplayMachineEngine()
    result = replay.run(nqueens_asm(6))
    assert result.stats.evaluations == 895
    assert (replay.pool.live_frames, replay.pool.peak_live_frames) == (1, 3)

    worker = _SubtreeWorker(assemble(nqueens_asm(6)),
                            ClusterConfig(task_step_budget=800))
    frontier, tasks = [PrefixTask()], 0
    while frontier:
        _solutions, spilled = worker.explore(frontier.pop(), None)
        frontier.extend(spilled)
        tasks += 1
    assert tasks > 50
    assert worker.pool.live_frames == 1
