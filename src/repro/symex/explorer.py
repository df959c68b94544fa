"""The multi-path explorer (the S2E role in §3.2).

Partial candidates are symbolic machine states; the evaluation of an
extension runs the state "until it terminates or reaches the next
symbolic branch", at which point two extensions are created for the
branch-taken and branch-not-taken constraints — the exact mapping §3.2
spells out.  Scheduling uses the same strategy objects as the
backtracking engines (DFS by default, coverage-optimized available).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cpu.assembler import Program, assemble
from repro.mem.layout import DEFAULT_STACK_PAGES, PAGE_SIZE, STACK_TOP
from repro.search import Extension, Strategy, get_strategy
from repro.symex.backends import SnapshotBackend, SWCowBackend, SymState
from repro.symex.expr import Expr, SymVar, negate
from repro.symex.machine import (
    Bug,
    Exited,
    Forked,
    Killed,
    OutOfFuel,
    SymMachine,
)
from repro.symex.solver import PathConstraints, is_satisfiable, solve_assignment


@dataclass
class PathRecord:
    """One completed execution path."""

    status: Union[int, str]
    constraints: PathConstraints
    #: A concrete witness input driving execution down this path.
    example: Optional[dict[str, int]] = None


@dataclass
class BugRecord:
    """One bug found during exploration."""

    kind: str
    pc: int
    example: Optional[dict[str, int]] = None


@dataclass
class ExploreResult:
    """Outcome of a symbolic exploration run."""

    paths: list[PathRecord]
    bugs: list[BugRecord]
    states_forked: int
    infeasible_pruned: int
    kills: int
    coverage: set[int]
    backend: str
    extra: dict = field(default_factory=dict)

    @property
    def path_count(self) -> int:
        return len(self.paths)


class SymbolicExplorer:
    """Explore every feasible path of a guest binary.

    Parameters
    ----------
    program:
        Assembly source or an assembled :class:`Program`.
    symbolic:
        The symbolic inputs: a list of ``(address, size, SymVar)``
        triples planted into guest memory before execution.
    backend:
        ``"snapshot"`` (lightweight snapshots) or ``"swcow"`` (S2E-style
        software COW), or a backend instance.
    strategy:
        Scheduling strategy for pending states (default DFS).
    ballast:
        Extra zero-filled guest memory in bytes, touched by nothing —
        used by E4 to scale state size independently of path count.
    """

    def __init__(
        self,
        program: Union[str, Program],
        symbolic: list[tuple[int, int, SymVar]],
        backend: Union[str, object] = "snapshot",
        strategy: Union[str, Strategy] = "dfs",
        max_states: int = 10_000,
        max_steps_per_state: int = 200_000,
        ballast: int = 0,
        data_pages: int = 16,
        stack_pages: int = DEFAULT_STACK_PAGES,
        concretize: bool = True,
    ):
        self.program = assemble(program) if isinstance(program, str) else program
        self.symbolic = symbolic
        if isinstance(backend, str):
            backend = SnapshotBackend() if backend == "snapshot" else SWCowBackend()
        self.backend = backend
        if isinstance(strategy, Strategy):
            self._strategy = strategy
        else:
            self._strategy = get_strategy(strategy)
        self.max_states = max_states
        self.max_steps_per_state = max_steps_per_state
        self.ballast = ballast
        self.data_pages = data_pages
        self.stack_pages = stack_pages
        self.machine = SymMachine(
            self.program, self.backend,
            concretizer=self._concretize if concretize else None,
        )

    def _concretize(self, state, expr) -> Optional[int]:
        """KLEE-style concretization: bind a symbolic value (usually an
        address) to one feasible concrete value on this path.

        Sound but incomplete: other feasible values of the expression are
        not explored (the standard engineering trade-off for symbolic
        pointers).  Unconstrained inputs default to 0.
        """
        model = solve_assignment(state.constraints)
        if model is None:
            return None
        assignment = {name: 0 for name in expr.vars()}
        assignment.update(model)
        value = expr.evaluate(assignment)
        from repro.symex.expr import compare

        state.constraints = state.constraints.extend(
            compare("eq", expr, value)
        )
        return value

    # ------------------------------------------------------------------

    def _initial_state(self) -> SymState:
        mem = self.backend.new_memory()
        program = self.program
        self.backend.map_region(
            mem, program.text_base, max(len(program.text), 1),
            data=program.text or b"\x00",
        )
        data_size = max(
            (len(program.data) + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1),
            self.data_pages * PAGE_SIZE,
        )
        self.backend.map_region(mem, program.data_base, data_size,
                                data=program.data or None)
        stack_size = self.stack_pages * PAGE_SIZE
        self.backend.map_region(mem, STACK_TOP - stack_size, stack_size)
        if self.ballast:
            ballast_base = 0x2000_0000
            size = (self.ballast + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            self.backend.map_region(mem, ballast_base, size)
        regs: list = [0] * 16
        regs[4] = STACK_TOP  # rsp
        overlay = {}
        for addr, size, var in self.symbolic:
            overlay[(addr, size)] = var
        return SymState(
            regs, self.program.entry, None, overlay, PathConstraints(), mem
        )

    def run(self) -> ExploreResult:
        """Explore until the frontier empties or ``max_states`` is hit."""
        paths: list[PathRecord] = []
        bugs: list[BugRecord] = []
        coverage: set[int] = set()
        forked = 0
        pruned = 0
        kills = 0
        evaluated = 0

        pending: list[SymState] = [self._initial_state()]
        self._strategy.drain()

        while pending or len(self._strategy):
            if evaluated >= self.max_states:
                break
            if pending:
                state = pending.pop()
            else:
                ext = self._strategy.next()
                if ext is None:
                    break
                state = ext.candidate
            evaluated += 1
            event = self.machine.run(state, max_steps=self.max_steps_per_state)

            if isinstance(event, Forked):
                coverage.add(event.branch_pc)
                forked += 1
                taken_c = state.constraints.extend(event.condition)
                fall_c = state.constraints.extend(negate(event.condition))
                feasible = []
                if is_satisfiable(taken_c):
                    feasible.append((event.taken_rip, taken_c))
                else:
                    pruned += 1
                if is_satisfiable(fall_c):
                    feasible.append((event.fallthrough_rip, fall_c))
                else:
                    pruned += 1
                if not feasible:
                    self.backend.release(state)
                    continue
                children = self.backend.fork(state, n=len(feasible))
                exts = []
                for child, (rip, constraints) in zip(children, feasible):
                    child.rip = rip
                    child.constraints = constraints
                    child.flags = None
                    exts.append(
                        Extension(child, number=len(exts), depth=child.depth)
                    )
                for dropped in self._strategy.add(exts):
                    self.backend.release(dropped.candidate)
            elif isinstance(event, Exited):
                example = solve_assignment(state.constraints)
                if isinstance(event.status, int):
                    status: Union[int, str] = event.status
                elif example is not None:
                    # Concretize the symbolic exit status under the
                    # path's witness input (unconstrained inputs get 0).
                    assignment = {name: 0 for name in event.status.vars()}
                    assignment.update(example)
                    status = event.status.evaluate(assignment)
                else:
                    status = "symbolic"
                paths.append(
                    PathRecord(
                        status=status,
                        constraints=state.constraints,
                        example=example,
                    )
                )
                self.backend.release(state)
            elif isinstance(event, Bug):
                constraints = state.constraints
                if event.condition is not None:
                    constraints = constraints.extend(event.condition)
                example = solve_assignment(constraints)
                if example is not None or event.condition is None:
                    bugs.append(BugRecord(event.kind, event.pc, example))
                self.backend.release(state)
            elif isinstance(event, (Killed, OutOfFuel)):
                kills += 1
                self.backend.release(state)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled event {event!r}")

        # Release anything still pending (budget stop).
        while True:
            ext = self._strategy.next()
            if ext is None:
                break
            self.backend.release(ext.candidate)

        stats = self.backend.stats
        return ExploreResult(
            paths=paths,
            bugs=bugs,
            states_forked=forked,
            infeasible_pruned=pruned,
            kills=kills,
            coverage=coverage,
            backend=self.backend.name,
            extra={
                "fork_work": stats.fork_work,
                "instrumented_writes": stats.instrumented_writes,
                "pages_copied": stats.pages_copied,
                "footprint_pages": self.backend.footprint_pages(),
                "states_evaluated": evaluated,
                "instructions": self.machine.instructions,
            },
        )
