"""The multi-path incremental solver service (§3.2).

"One could use lightweight snapshots directly to create a multi-path
incremental SAT/SMT solver service, built using a single-path incremental
solver.  In this case, the service waits for client requests consisting
of an opaque reference to a previously solved problem p and an
incremental constraint q, and returns to the client the solution to p∧q
together with an opaque reference to that new problem."

This module implements exactly that interface.  The "snapshot" of solver
state is a solver clone (learned clauses, activities, phases preserved);
each reference is a node in a tree of solved problems, and clients may
branch any node any number of times — siblings never observe each
other's constraints, mirroring snapshot immutability.

For the E5/E8 experiments the service also supports a *from-scratch*
mode (``incremental=False``) that rebuilds the solver per request, which
is the baseline the paper's claim is measured against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolverResult


@dataclass
class SolveOutcome:
    """What the service returns for one request."""

    ref: int
    sat: Optional[bool]
    model: dict[int, bool] = field(default_factory=dict)
    #: Conflicts the underlying solver spent on *this* request only.
    conflicts: int = 0
    #: Learned clauses inherited from the parent reference (the reused
    #: intermediate state §2 highlights).
    inherited_learned: int = 0


class _Node:
    """One solved problem in the service's tree."""

    __slots__ = ("ref", "parent", "solver", "clauses", "alive")

    def __init__(self, ref: int, parent: Optional["_Node"], solver: Solver,
                 clauses: list):
        self.ref = ref
        self.parent = parent
        self.solver = solver
        self.clauses = clauses  # this node's own increment
        self.alive = True


class IncrementalSolverService:
    """A solver service keyed by opaque problem references.

    Parameters
    ----------
    incremental:
        ``True`` (default): branch requests clone the parent solver and
        add only the increment — learned state is inherited.
        ``False``: every request replays the full clause stack into a
        fresh solver (the from-scratch baseline).
    """

    def __init__(self, incremental: bool = True):
        self.incremental = incremental
        self._refs = itertools.count(1)
        self._nodes: dict[int, _Node] = {}
        #: Total conflicts across all requests (the E5 cost metric).
        self.total_conflicts = 0
        self.requests = 0

    # ------------------------------------------------------------------

    def solve(self, cnf: CNF) -> SolveOutcome:
        """Solve a fresh problem p; returns its opaque reference."""
        return self._solve_increment(None, cnf.clauses, cnf.num_vars)

    def extend(self, ref: int, clauses: Iterable[Iterable[int]]) -> SolveOutcome:
        """Solve p∧q where p is the problem behind *ref* and q is
        *clauses*; returns a new reference for the conjunction."""
        node = self._nodes.get(ref)
        if node is None or not node.alive:
            raise KeyError(f"unknown or released problem reference {ref}")
        return self._solve_increment(node, [tuple(c) for c in clauses], 0)

    def release(self, ref: int) -> None:
        """Drop a reference (its descendants stay valid)."""
        node = self._nodes.get(ref)
        if node is not None:
            node.alive = False
            node.solver = None  # type: ignore[assignment]

    # ------------------------------------------------------------------

    def _solve_increment(self, parent: Optional[_Node], clauses, num_vars) -> SolveOutcome:
        self.requests += 1
        if self.incremental:
            solver = parent.solver.clone() if parent is not None else Solver()
            inherited = len(solver.learned)
        else:
            solver = Solver()
            inherited = 0
            for ancestor_clauses in self._stack(parent):
                for clause in ancestor_clauses:
                    solver.add_clause(clause)
        if num_vars:
            solver._grow_to(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        before = solver.stats.conflicts
        result: SolverResult = solver.solve()
        spent = solver.stats.conflicts - before
        self.total_conflicts += spent
        ref = next(self._refs)
        node = _Node(ref, parent, solver, list(clauses))
        self._nodes[ref] = node
        return SolveOutcome(
            ref=ref,
            sat=result.sat,
            model=result.model,
            conflicts=spent,
            inherited_learned=inherited,
        )

    def _stack(self, node: Optional[_Node]) -> list[list]:
        """Clause increments from the root down to *node* inclusive."""
        out: list[list] = []
        while node is not None:
            out.append(node.clauses)
            node = node.parent
        out.reverse()
        return out
