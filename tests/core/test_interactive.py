"""Tests for the externally-controlled search session (§3.1)."""

import pytest

from repro.core.interactive import InteractiveSearch
from repro.core.sysno import SYS_EXIT, SYS_GUESS, SYS_GUESS_FAIL
from repro.workloads.nqueens import KNOWN_SOLUTION_COUNTS, nqueens_asm

COIN = f"""
    mov rax, {SYS_GUESS:#x}
    mov rdi, 2
    syscall
    mov rdi, rax
    mov rax, {SYS_EXIT}
    syscall
"""


class TestInteractiveSearch:
    def test_boot_exposes_root_extensions(self):
        search = InteractiveSearch(COIN)
        pending = search.pending()
        assert [p.number for p in pending] == [0, 1]
        assert all(p.path == () for p in pending)

    def test_run_selected_extension_only(self):
        search = InteractiveSearch(COIN)
        right = search.pending()[1]
        outcome = search.run(right.seq)
        assert outcome.outcome == "exit"
        assert outcome.solution.value[0] == 1
        # The sibling is still pending: the external entity decides.
        assert [p.number for p in search.pending()] == [0]

    def test_guess_outcome_reports_created(self):
        src = f"""
        mov rax, {SYS_GUESS:#x}
        mov rdi, 2
        syscall
        mov rax, {SYS_GUESS:#x}
        mov rdi, 3
        syscall
        mov rdi, rax
        mov rax, {SYS_EXIT}
        syscall
        """
        search = InteractiveSearch(src)
        outcome = search.run(search.pending()[0].seq)
        assert outcome.outcome == "guess"
        assert len(outcome.created) == 3
        assert all(p.depth == 1 for p in outcome.created)

    def test_external_order_is_respected(self):
        search = InteractiveSearch(COIN)
        order = []
        for pending in (search.pending()[1], search.pending()[0]):
            outcome = search.run(pending.seq)
            order.append(outcome.solution.value[0])
        assert order == [1, 0]

    def test_run_all_completes_search(self):
        search = InteractiveSearch(nqueens_asm(4))
        solutions = search.run_all()
        assert len(solutions) == KNOWN_SOLUTION_COUNTS[4]

    def test_guest_strategy_call_does_not_take_over(self):
        # nqueens_asm calls sys_guess_strategy(DFS); the session must
        # remain externally controlled.
        search = InteractiveSearch(nqueens_asm(4, select_strategy=True))
        assert len(search.pending()) == 4

    def test_fail_outcome(self):
        src = f"""
        mov rax, {SYS_GUESS:#x}
        mov rdi, 1
        syscall
        mov rax, {SYS_GUESS_FAIL:#x}
        syscall
        """
        search = InteractiveSearch(src)
        outcome = search.run(search.pending()[0].seq)
        assert outcome.outcome == "fail"
        assert outcome.solution is None

    def test_close_releases_everything(self):
        search = InteractiveSearch(nqueens_asm(4))
        search.run(search.pending()[0].seq)
        search.close()
        assert search._engine.manager.stats.live == 0
        assert search._engine.pool.live_frames <= 1

    def test_closed_session_rejects_run(self):
        search = InteractiveSearch(COIN)
        seq = search.pending()[0].seq
        search.close()
        with pytest.raises(RuntimeError, match="closed"):
            search.run(seq)

    def test_context_manager(self):
        with InteractiveSearch(COIN) as search:
            search.run_all()
        assert search._closed

    def test_hints_visible_to_external_entity(self):
        src = f"""
        .data
        hints: .quad 9, 1
        .text
        mov rax, 0x1003
        mov rdi, 2
        mov rsi, hints
        syscall
        mov rdi, rax
        mov rax, {SYS_EXIT}
        syscall
        """
        search = InteractiveSearch(src)
        assert [p.hint for p in search.pending()] == [9.0, 1.0]

    def test_unevaluated_candidates_stay_restorable(self):
        # Leave a branch unexplored for a while, then come back to it.
        search = InteractiveSearch(nqueens_asm(4))
        first = search.pending()[0]
        # Explore everything EXCEPT extension 0's subtree.
        while True:
            others = [p for p in search.pending() if p.seq != first.seq]
            if not others:
                break
            search.run(others[-1].seq)
        count_before = len(search.solutions)
        outcome = search.run(first.seq)
        assert outcome.outcome in ("guess", "fail", "exit")
        search.run_all()
        assert len(search.solutions) == KNOWN_SOLUTION_COUNTS[4]
