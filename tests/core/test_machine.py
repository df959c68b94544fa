"""Integration tests for the machine engine (snapshot-based backtracking)."""

import gc
import types

import pytest

from repro.core.machine import MachineEngine
from repro.core.sysno import SYS_EXIT, SYS_GUESS, SYS_GUESS_FAIL
from repro.search import BeamStrategy, DFSStrategy, SMAStarStrategy
from repro.snapshot.snapshot import Snapshot
from repro.workloads.nqueens import (
    KNOWN_SOLUTION_COUNTS,
    boards_from_result,
    is_valid_board,
    nqueens_asm,
)

COIN = f"""
    mov rax, {SYS_GUESS:#x}
    mov rdi, 2
    syscall
    mov rdi, rax
    mov rax, {SYS_EXIT}
    syscall
"""

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


class TestBasics:
    def test_coin_two_solutions(self):
        result = MachineEngine().run(COIN)
        assert [v[0] for v in result.solution_values] == [0, 1]
        assert result.exhausted

    def test_two_bits_enumeration(self):
        result = MachineEngine().run(TWO_BITS)
        assert [v[0] for v in result.solution_values] == [0, 1, 2, 3]
        assert [s.path for s in result.solutions] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_no_guess_single_path(self):
        result = MachineEngine().run(f"mov rax, {SYS_EXIT}\nmov rdi, 5\nsyscall")
        assert len(result.solutions) == 1
        assert result.solution_values[0][0] == 5
        assert result.stats.candidates == 0

    def test_all_fail(self):
        src = f"""
        mov rax, {SYS_GUESS:#x}
        mov rdi, 3
        syscall
        mov rax, {SYS_GUESS_FAIL:#x}
        syscall
        """
        result = MachineEngine().run(src)
        assert result.solutions == []
        assert result.stats.fails == 3
        assert result.exhausted

    def test_snapshots_taken_equals_candidates(self):
        result = MachineEngine().run(TWO_BITS)
        assert result.stats.extra["snapshots_taken"] == result.stats.candidates == 3

    def test_restore_per_evaluation(self):
        result = MachineEngine().run(TWO_BITS)
        # 7 evaluations total; the root one starts fresh (no restore).
        assert result.stats.extra["snapshots_restored"] == 6


class TestNQueens:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_counts_match_oeis(self, n):
        result = MachineEngine().run(nqueens_asm(n))
        assert len(result.solutions) == KNOWN_SOLUTION_COUNTS[n]

    def test_boards_valid_and_unique(self):
        result = MachineEngine().run(nqueens_asm(6))
        boards = boards_from_result(result)
        assert all(is_valid_board(b) for b in boards)
        assert len(set(boards)) == len(boards)

    def test_fig1_style_prints_via_fail(self):
        engine = MachineEngine()
        result = engine.run(nqueens_asm(4, fig1_style=True))
        assert result.solutions == []
        boards = [t.strip() for t in engine.failed_output()]
        assert sorted(boards) == ["1302", "2031"]

    def test_transcript_keeps_only_failed_paths_that_printed(self):
        # Every 6-queens path that fails prints nothing and every board
        # exits, so a find-all run keeps no transcript at all.
        engine = MachineEngine()
        result = engine.run(nqueens_asm(6))
        assert len(result.solutions) == 4
        assert result.stats.fails > 0
        assert engine.transcript == []

    def test_bfs_finds_same_solution_set(self):
        dfs = MachineEngine("dfs").run(nqueens_asm(5))
        bfs = MachineEngine("bfs").run(nqueens_asm(5))
        assert sorted(boards_from_result(dfs)) == sorted(boards_from_result(bfs))

    def test_guest_selected_strategy_wins(self):
        # The guest asks for DFS even if the engine default is BFS.
        result = MachineEngine("bfs").run(nqueens_asm(4, select_strategy=True))
        assert result.strategy == "dfs"

    def test_memory_is_reclaimed(self):
        engine = MachineEngine()
        engine.run(nqueens_asm(5))
        # After an exhaustive search only the zero frame may survive.
        assert engine.pool.live_frames <= 1
        assert engine.manager.stats.live == 0

    def test_reused_engine_keeps_one_zero_frame(self):
        # Every load maps demand-zero pages to the pool's one zero frame,
        # so a reused engine ends each run as it ended the first.
        engine = MachineEngine()
        for _ in range(3):
            result = engine.run(nqueens_asm(5))
            assert engine.pool.live_frames == 1
            assert result.stats.extra["frames_peak"] == 8


class TestIsolation:
    def test_sibling_extensions_do_not_leak_writes(self):
        # Each path writes its guess into the same data cell, then guesses
        # again; if isolation broke, the second-level read would see a
        # sibling's value instead of its own.
        src = f"""
        mov rbx, 0x600000
        mov rax, {SYS_GUESS:#x}
        mov rdi, 3
        syscall
        mov [rbx], rax            ; remember first guess in memory
        mov rax, {SYS_GUESS:#x}
        mov rdi, 3
        syscall
        mov rcx, [rbx]            ; re-read first guess
        imul rcx, 3
        add rcx, rax
        mov rdi, rcx              ; exit code = first*3 + second
        mov rax, {SYS_EXIT}
        syscall
        """
        result = MachineEngine().run(src)
        codes = sorted(v[0] for v in result.solution_values)
        assert codes == list(range(9))

    def test_console_is_per_path(self):
        src = f"""
        .data
        ch: .zero 2
        .text
        mov rax, {SYS_GUESS:#x}
        mov rdi, 2
        syscall
        add rax, 'a'
        mov rbx, ch
        movb [rbx], rax
        mov rax, 1
        mov rdi, 1
        mov rsi, ch
        mov rdx, 1
        syscall
        mov rax, {SYS_EXIT}
        mov rdi, 0
        syscall
        """
        result = MachineEngine().run(src)
        texts = [v[1] for v in result.solution_values]
        assert texts == ["a", "b"]

    def test_file_writes_contained_per_path(self):
        src = f"""
        .data
        path: .asciz "/log"
        buf:  .zero 2
        .text
        mov rax, 2            ; open("/log", O_RDWR|O_CREAT)
        mov rdi, path
        mov rsi, 66
        syscall
        mov rbx, rax
        mov rax, {SYS_GUESS:#x}
        mov rdi, 2
        syscall
        add rax, 'x'
        mov rcx, buf
        movb [rcx], rax
        mov rax, 1            ; write(fd, buf, 1)
        mov rdi, rbx
        mov rsi, buf
        mov rdx, 1
        syscall
        mov rax, 0            ; read own file back
        mov rdi, rbx
        mov rsi, buf
        mov rdx, 1
        syscall               ; (pos is at EOF; returns 0 - fine)
        mov rax, {SYS_EXIT}
        mov rdi, 0
        syscall
        """
        engine = MachineEngine()
        result = engine.run(src)
        assert len(result.solutions) == 2


def snapshots_held_by(root):
    """Every snapshot *root* refers to, directly or through containers
    and objects (not through snapshots, types, modules or functions)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Snapshot):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


class TestBudgets:
    def test_max_solutions(self):
        result = MachineEngine(max_solutions=2).run(TWO_BITS)
        assert len(result.solutions) == 2
        assert not result.exhausted
        assert result.stop_reason == "max_solutions"

    def test_max_evaluations(self):
        result = MachineEngine(max_evaluations=3).run(TWO_BITS)
        assert not result.exhausted

    def test_budget_stop_releases_the_dropped_frontier(self):
        # The extensions a budget drops unpin their snapshots, so a
        # stopped run ends like an exhausted one: no live snapshot, only
        # the zero frame; and a second run on the same engine too.
        engine = MachineEngine(max_solutions=1)
        for _ in range(2):
            result = engine.run(nqueens_asm(6))
            assert result.stop_reason == "max_solutions"
            assert result.stats.extra["frames_live"] == 1
            assert engine.manager.stats.live == 0
            assert engine.pool.live_frames == 1
            assert engine.stepper.strategy.stats.dropped > 0

    @pytest.mark.parametrize("strategy", [
        BeamStrategy(width=2), SMAStarStrategy(capacity=4), DFSStrategy()],
        ids=lambda s: s.name)
    def test_a_bounded_frontier_releases_what_it_drops(self, strategy):
        # An extension the strategy drops to make room unpins its
        # snapshot, so the run ends like DFS's: no live snapshot, only
        # the zero frame.
        engine = MachineEngine(strategy=strategy)
        engine.allow_guest_strategy = False
        engine.run(nqueens_asm(6))
        assert (strategy.stats.dropped > 0) == (strategy.name != "dfs")
        assert engine.manager.stats.live == 0
        assert engine.pool.live_frames == 1

    def test_sma_star_refers_to_no_discarded_snapshot(self):
        # The strategy whose point is a memory bound keeps nothing of
        # the extensions it dropped once their snapshots are gone.
        strategy = SMAStarStrategy(capacity=16)
        engine = MachineEngine(strategy=strategy)
        engine.allow_guest_strategy = False
        engine.run(nqueens_asm(8))
        assert strategy.stats.dropped > 0
        assert [s for s in snapshots_held_by(strategy) if not s.alive] == []

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
        result = MachineEngine(max_steps_per_extension=10_000).run(src)
        assert [v[0] for v in result.solution_values] == [1]
        assert result.stats.kills == 1

    def test_max_total_steps(self):
        result = MachineEngine(max_total_steps=10).run(nqueens_asm(6))
        assert not result.exhausted
        assert result.stop_reason == "max_total_steps"


class TestAccounting:
    def test_vm_exit_counts_present(self):
        result = MachineEngine().run(nqueens_asm(4))
        exits = result.stats.extra["vm_exit_counts"]
        assert exits["syscall"] > 0
        assert result.stats.extra["vm_exits"] > 0

    def test_guest_instruction_count_positive(self):
        result = MachineEngine().run(nqueens_asm(4))
        assert result.stats.extra["guest_instructions"] > 100

    def test_peak_live_snapshots_bounded_by_depth_dfs(self):
        # DFS + pruning keeps the live tree to one root-to-leaf path.
        result = MachineEngine("dfs").run(nqueens_asm(5))
        assert result.stats.extra["snapshots_peak_live"] <= 5 + 1
