"""Differential agreement across the four machine-guest engines.

The same assembly guest explored by :class:`MachineEngine` (sequential
snapshots), :class:`ParallelMachineEngine` (time-sliced simulated
concurrency), :class:`ReplayMachineEngine` (no snapshots: every
extension re-executes from the entry) and :class:`ProcessParallelEngine`
(real worker processes with replay rehydration) must produce the
identical solution *set* — discovery order is allowed to differ, which
is why comparisons sort.

Workloads cover distinct search shapes: n-queens (uniform fan-out),
sudoku (constrained fan-out seeded by givens), graph coloring (dense
symmetric solutions) and subset-sum (binary fan-out, bound pruning).
"""

import pytest

from repro.core.cluster import ProcessParallelEngine
from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.workloads.coloring import (
    WHEEL5_EDGES,
    WHEEL5_NODES,
    coloring_asm,
    is_proper_coloring,
)
from repro.workloads.knapsack import random_instance, subset_sum_asm
from repro.workloads.nqueens import is_valid_board, nqueens_asm
from repro.workloads.sudoku import is_valid_solution, make_puzzle, sudoku_asm

SUDOKU_GRID = make_puzzle(blanks=11, seed=0)  # 2 completions
SUBSET_VALUES, SUBSET_TARGET = random_instance(9, seed=2)

WORKLOADS = {
    "nqueens": nqueens_asm(5),
    "sudoku": sudoku_asm(SUDOKU_GRID),
    "coloring": coloring_asm(WHEEL5_NODES, WHEEL5_EDGES, 4),
    "subset_sum": subset_sum_asm(SUBSET_VALUES, SUBSET_TARGET),
}

VALIDATORS = {
    "nqueens": is_valid_board,
    "sudoku": is_valid_solution,
    "coloring": lambda text: is_proper_coloring(
        tuple(int(c) for c in text), WHEEL5_EDGES
    ),
    "subset_sum": lambda text: sum(
        v for v, bit in zip(SUBSET_VALUES, text) if bit == "1"
    ) == SUBSET_TARGET,
}


def solution_set(result):
    return sorted((s.path, s.value) for s in result.solutions)


def make_engines(order):
    return [
        MachineEngine(strategy=order),
        ParallelMachineEngine(workers=3, quantum=40, strategy=order),
        ReplayMachineEngine(strategy=order),
        ProcessParallelEngine(workers=2, strategy=order, task_step_budget=2000),
    ]


@pytest.fixture(scope="module")
def reference():
    """Sequential DFS results, the baseline every engine must match."""
    return {
        name: MachineEngine().run(source) for name, source in WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_engines_agree(workload, order, reference):
    expected = solution_set(reference[workload])
    assert expected, f"workload {workload} should have solutions"
    for engine in make_engines(order):
        result = engine.run(WORKLOADS[workload])
        label = f"{type(engine).__name__}/{order}"
        assert result.exhausted and result.stop_reason is None, label
        assert solution_set(result) == expected, label


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_solutions_are_actually_valid(workload, reference):
    validate = VALIDATORS[workload]
    boards = [value[1].strip() for value in reference[workload].solution_values]
    assert boards
    assert all(validate(board) for board in boards)


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_max_solutions_consistent(order, reference):
    """Early stop yields exactly k solutions from the full set, with the
    same stop_reason bookkeeping, on every engine."""
    full = {s.value for s in reference["nqueens"].solutions}
    for engine_cls, kwargs in [
        (MachineEngine, {"strategy": order}),
        (ParallelMachineEngine, {"workers": 3, "quantum": 40,
                                 "strategy": order}),
        (ReplayMachineEngine, {"strategy": order}),
        (ProcessParallelEngine, {"workers": 2, "strategy": order,
                                 "task_step_budget": 2000}),
    ]:
        engine = engine_cls(max_solutions=2, **kwargs)
        result = engine.run(WORKLOADS["nqueens"])
        label = f"{engine_cls.__name__}/{order}"
        assert len(result.solutions) == 2, label
        assert not result.exhausted, label
        assert result.stop_reason == "max_solutions", label
        assert {s.value for s in result.solutions} <= full, label


def test_sudoku_has_multiple_solutions(reference):
    """The differential grid is under-constrained on purpose: a single
    solution would make order-insensitivity trivially true."""
    assert len(reference["sudoku"].solutions) > 1
