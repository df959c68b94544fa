"""Tests for the multi-worker (Figure 2 multi-vCPU) engine."""

import pytest

from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.sysno import SYS_EXIT, SYS_GUESS
from repro.workloads.nqueens import (
    KNOWN_SOLUTION_COUNTS,
    boards_from_result,
    nqueens_asm,
)
from repro.workloads.synthetic import synthetic_asm

TWO_BITS = f"""
    mov rax, {SYS_GUESS:#x}
    mov rdi, 2
    syscall
    mov rbx, rax
    shl rbx, 1
    mov rax, {SYS_GUESS:#x}
    mov rdi, 2
    syscall
    add rbx, rax
    mov rdi, rbx
    mov rax, {SYS_EXIT}
    syscall
"""


class TestCorrectness:
    @pytest.mark.parametrize("workers,quantum", [(1, 50), (2, 25), (4, 50), (8, 7)])
    def test_same_solutions_as_sequential(self, workers, quantum):
        seq = MachineEngine().run(nqueens_asm(5))
        par = ParallelMachineEngine(workers=workers, quantum=quantum).run(
            nqueens_asm(5)
        )
        assert sorted(boards_from_result(par)) == sorted(boards_from_result(seq))

    def test_two_bits_all_codes(self):
        result = ParallelMachineEngine(workers=3, quantum=4).run(TWO_BITS)
        assert sorted(v[0] for v in result.solution_values) == [0, 1, 2, 3]

    def test_synthetic_path_count(self):
        result = ParallelMachineEngine(workers=4, quantum=100).run(
            synthetic_asm(3, 3, 20, 2)
        )
        assert len(result.solutions) == 27

    def test_memory_reclaimed(self):
        engine = ParallelMachineEngine(workers=4, quantum=50)
        engine.run(nqueens_asm(5))
        assert engine.pool.live_frames <= 1
        assert engine.manager.stats.live == 0

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelMachineEngine(workers=0)


class TestConcurrencyProperties:
    def test_multiple_workers_in_flight(self):
        engine = ParallelMachineEngine(workers=4, quantum=20)
        result = engine.run(nqueens_asm(6))
        assert len(result.solutions) == KNOWN_SOLUTION_COUNTS[6]
        assert result.stats.extra["peak_busy_workers"] >= 3
        assert result.stats.extra["occupancy"] > 0.5

    def test_in_flight_isolation(self):
        # Many concurrent extensions all mutate the same data address;
        # each must still exit with its own private value.
        src = f"""
        mov rbx, 0x600000
        mov rax, {SYS_GUESS:#x}
        mov rdi, 4
        syscall
        mov [rbx], rax
        mov rax, {SYS_GUESS:#x}
        mov rdi, 4
        syscall
        mov rcx, [rbx]
        imul rcx, 4
        add rcx, rax
        mov rdi, rcx
        mov rax, {SYS_EXIT}
        syscall
        """
        result = ParallelMachineEngine(workers=6, quantum=3).run(src)
        assert sorted(v[0] for v in result.solution_values) == list(range(16))

    def test_parallel_keeps_more_snapshots_live(self):
        seq = MachineEngine().run(nqueens_asm(6))
        par = ParallelMachineEngine(workers=4, quantum=25).run(nqueens_asm(6))
        assert (
            par.stats.extra["snapshots_peak_live"]
            >= seq.stats.extra["snapshots_peak_live"]
        )

    def test_max_solutions_budget(self):
        result = ParallelMachineEngine(workers=4, quantum=25,
                                       max_solutions=2).run(nqueens_asm(5))
        assert len(result.solutions) >= 2
        assert not result.exhausted

    def test_budget_stop_releases_the_dropped_frontier(self):
        engine = ParallelMachineEngine(max_solutions=1)
        result = engine.run(nqueens_asm(6))
        assert result.stop_reason == "max_solutions"
        assert engine.manager.stats.live == 0
        assert engine.pool.live_frames == 1

    def test_runaway_extension_killed(self):
        src = f"""
        mov rax, {SYS_GUESS:#x}
        mov rdi, 2
        syscall
        cmp rax, 0
        je spin
        mov rdi, 1
        mov rax, {SYS_EXIT}
        syscall
        spin: jmp spin
        """
        result = ParallelMachineEngine(
            workers=2, quantum=100, max_steps_per_extension=2_000
        ).run(src)
        assert [v[0] for v in result.solution_values] == [1]
        assert result.stats.kills == 1
