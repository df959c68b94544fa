"""Integration tests for the symbolic explorer and both backends."""

import pytest

from repro.search import BeamStrategy, DFSStrategy, SMAStarStrategy
from repro.symex import SnapshotBackend, SWCowBackend, SymbolicExplorer
from repro.symex.expr import SymVar
from repro.symex.programs import (
    INPUT_BASE,
    branch_tree,
    div_by_zero_bug,
    password_check,
    unreachable_bug,
)

BACKENDS = ["snapshot", "swcow"]


class TestPathEnumeration:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_branch_tree_path_count(self, backend):
        src, sym = branch_tree(4)
        result = SymbolicExplorer(src, sym, backend=backend).run()
        assert result.path_count == 16
        assert result.states_forked == 15

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_paths_have_distinct_witnesses(self, backend):
        src, sym = branch_tree(3)
        result = SymbolicExplorer(src, sym, backend=backend).run()
        witnesses = {tuple(sorted(p.example.items())) for p in result.paths}
        assert len(witnesses) == 8

    def test_exit_statuses_cover_all_values(self):
        src, sym = branch_tree(3)
        result = SymbolicExplorer(src, sym).run()
        assert sorted(p.status for p in result.paths) == list(range(8))

    def test_coverage_counts_branch_sites(self):
        src, sym = branch_tree(5)
        result = SymbolicExplorer(src, sym).run()
        assert len(result.coverage) == 5


class TestPasswordCheck:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_secret_recovered(self, backend):
        src, sym = password_check(b"ab")
        result = SymbolicExplorer(src, sym, backend=backend).run()
        accepting = [p for p in result.paths if p.status == 1]
        assert len(accepting) == 1
        assert accepting[0].example == {"pw0": ord("a"), "pw1": ord("b")}

    def test_rejecting_paths_one_per_prefix(self):
        src, sym = password_check(b"abc")
        result = SymbolicExplorer(src, sym).run()
        rejecting = [p for p in result.paths if p.status == 0]
        assert len(rejecting) == 3  # wrong at byte 0, 1 or 2


class TestBugFinding:
    def test_feasible_division_bug_found(self):
        src, sym = div_by_zero_bug()
        result = SymbolicExplorer(src, sym).run()
        assert len(result.bugs) == 1
        assert result.bugs[0].kind == "possible-divide-by-zero"
        assert result.bugs[0].example == {"x": 7}

    def test_unreachable_bug_not_reported(self):
        src, sym = unreachable_bug()
        result = SymbolicExplorer(src, sym).run()
        assert result.bugs == []
        assert result.infeasible_pruned >= 1


class TestBackendContrast:
    def test_snapshot_fork_is_constant_work(self):
        src, sym = branch_tree(5)
        small = SymbolicExplorer(src, sym, backend="snapshot").run()
        big = SymbolicExplorer(
            src, sym, backend="snapshot", ballast=64 * 4096
        ).run()
        # Fork work does not grow with state size.
        assert big.extra["fork_work"] == small.extra["fork_work"]

    def test_swcow_fork_grows_with_state(self):
        src, sym = branch_tree(5)
        small = SymbolicExplorer(src, sym, backend="swcow").run()
        big = SymbolicExplorer(src, sym, backend="swcow", ballast=64 * 4096).run()
        assert big.extra["fork_work"] > small.extra["fork_work"]

    def test_swcow_pays_per_write_instrumentation(self):
        src, sym = branch_tree(5, writes_per_level=3)
        sw = SymbolicExplorer(src, sym, backend="swcow").run()
        snap = SymbolicExplorer(src, sym, backend="snapshot").run()
        assert sw.extra["instrumented_writes"] > 0
        assert snap.extra["instrumented_writes"] == 0

    def test_both_backends_agree_on_results(self):
        src, sym = branch_tree(4, writes_per_level=2)
        a = SymbolicExplorer(src, sym, backend="snapshot").run()
        b = SymbolicExplorer(src, sym, backend="swcow").run()
        assert sorted(p.status for p in a.paths) == sorted(p.status for p in b.paths)


class TestBudgetsAndStrategies:
    def test_max_states_truncates(self):
        src, sym = branch_tree(8)
        result = SymbolicExplorer(src, sym, max_states=10).run()
        assert result.extra["states_evaluated"] <= 10
        assert result.path_count < 256

    def test_bfs_strategy(self):
        src, sym = branch_tree(3)
        result = SymbolicExplorer(src, sym, strategy="bfs").run()
        assert result.path_count == 8

    def test_coverage_strategy(self):
        src, sym = branch_tree(3)
        result = SymbolicExplorer(src, sym, strategy="coverage").run()
        assert result.path_count == 8

    def test_kill_on_symbolic_pointer_without_concretizer(self):
        src = """
        mov r8, 0x600000
        movb r9, [r8]
        mov rax, [r9]     ; symbolic address
        hlt
        """
        sym = [(INPUT_BASE, 1, SymVar("x", domain=4))]
        result = SymbolicExplorer(src, sym, concretize=False).run()
        assert result.kills == 1
        assert result.paths == []

    def test_symbolic_pointer_concretized(self):
        # [0x600000 + x] with x unconstrained: concretization binds x=0
        # and the load proceeds against the mapped data page.
        src = """
        mov r8, 0x600000
        movb r9, [r8]      ; r9 = symbolic x
        add r9, 0x600100
        movb rax, [r9]     ; symbolic address into mapped memory
        mov rdi, rax
        mov rax, 60
        syscall
        """
        sym = [(INPUT_BASE, 1, SymVar("x", domain=4))]
        explorer = SymbolicExplorer(src, sym, concretize=True)
        result = explorer.run()
        assert result.kills == 0
        assert len(result.paths) == 1
        assert explorer.machine.concretizations == 1
        # The binding constraint shows up in the path's witness.
        assert result.paths[0].example == {"x": 0}


class TestMemoryReclamation:
    def test_snapshot_backend_releases_frames(self):
        src, sym = branch_tree(5)
        backend = SnapshotBackend()
        SymbolicExplorer(src, sym, backend=backend).run()
        # All states released: only the shared zero frame may remain.
        assert backend.pool.live_frames <= 1

    @pytest.mark.parametrize("strategy", [
        BeamStrategy(width=1), SMAStarStrategy(capacity=2), DFSStrategy()],
        ids=lambda s: s.name)
    def test_a_bounded_frontier_releases_what_it_drops(self, strategy):
        # A state the strategy drops to make room is released like any
        # other, so the run ends like DFS's: only the zero frame.
        backend = SnapshotBackend()
        SymbolicExplorer(*branch_tree(4), backend=backend,
                         strategy=strategy).run()
        assert (strategy.stats.dropped > 0) == (strategy.name != "dfs")
        assert backend.pool.live_frames == 1

    def test_swcow_backend_releases_pages(self):
        src, sym = branch_tree(5)
        backend = SWCowBackend()
        SymbolicExplorer(src, sym, backend=backend).run()
        assert backend.footprint_pages() == 0
