"""Externally-controlled exploration (§3.1's last strategy class).

"In addition, we can support externally controlled search strategies
where an external entity can generate new extension steps for any given
partial candidates, and schedule their execution."

:class:`InteractiveSearch` hands exactly that control to the caller: it
exposes the pending extension steps of the search graph and evaluates
only the ones the caller selects, in the caller's order.  Candidates the
caller never schedules stay live (their snapshots pinned) until the
session is closed — the engine mechanism is identical to the autonomous
engines; only the policy moved outside the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.machine import MachineEngine
from repro.core.result import SearchStats, Solution
from repro.cpu.assembler import Program, assemble
from repro.interpose.policy import InterpositionPolicy
from repro.libos.files import HostFS
from repro.search import ExternalStrategy


@dataclass(frozen=True)
class PendingExtension:
    """A schedulable extension step, as shown to the external entity."""

    seq: int
    path: tuple[int, ...]  # path of the parent partial candidate
    number: int
    depth: int
    hint: Optional[float]


@dataclass(frozen=True)
class StepOutcome:
    """What happened when a selected extension ran."""

    outcome: str  # "guess" | "exit" | "fail" | "kill"
    #: Extensions newly created by this evaluation (empty unless "guess").
    created: tuple[PendingExtension, ...] = ()
    #: The solution produced (only for "exit").
    solution: Optional[Solution] = None


class InteractiveSearch:
    """Step-driven system-level backtracking for machine guests.

    >>> from repro.core.sysno import SYS_GUESS, SYS_EXIT
    >>> src = f'''
    ...     mov rax, {SYS_GUESS:#x}
    ...     mov rdi, 2
    ...     syscall
    ...     mov rdi, rax
    ...     mov rax, {SYS_EXIT}
    ...     syscall
    ... '''
    >>> search = InteractiveSearch(src)
    >>> [p.number for p in search.pending()]
    [0, 1]
    >>> search.run(search.pending()[1].seq).solution.value[0]
    1
    """

    def __init__(
        self,
        guest: Union[str, Program],
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_extension: int = 5_000_000,
    ):
        self._external = ExternalStrategy()
        self._engine = MachineEngine(
            strategy=self._external,
            policy=policy,
            hostfs=hostfs,
            max_steps_per_extension=max_steps_per_extension,
        )
        self._stats = SearchStats()
        self.solutions: list[Solution] = []
        self._closed = False
        stepper = self._stepper = self._engine.stepper
        # The external entity owns scheduling; guests may still call
        # sys_guess_strategy (it succeeds) but it does not take over.
        stepper.allow_guest_strategy = False
        stepper.stats = self._stats
        stepper.solutions = self.solutions
        # Boot: run the root path to its first boundary.
        program = guest if isinstance(guest, Program) else assemble(guest)
        stepper.step(stepper.boot(program))

    # ------------------------------------------------------------------

    def pending(self) -> list[PendingExtension]:
        """The unevaluated extension steps, oldest first."""
        views = []
        for seq in sorted(self._external.pending):
            ext = self._external.pending[seq]
            views.append(
                PendingExtension(
                    seq=seq, path=ext.candidate.path, number=ext.number,
                    depth=ext.depth, hint=ext.hint,
                )
            )
        return views

    def run(self, seq: int) -> StepOutcome:
        """Evaluate the pending extension with sequence number *seq*.

        Raises :class:`~repro.core.errors.InputExhaustedError` when
        *seq* names no pending extension (already evaluated, or never
        existed); the session stays usable afterwards.
        """
        if self._closed:
            raise RuntimeError("search session is closed")
        before = {p.seq for p in self.pending()}
        before_solutions = len(self.solutions)
        self._external.select(seq)
        ext = self._external.next()
        assert ext is not None
        outcome = self._stepper.step(self._stepper.resume(ext))
        created = tuple(
            p for p in self.pending() if p.seq not in before and p.seq != seq
        )
        solution = (
            self.solutions[-1] if len(self.solutions) > before_solutions else None
        )
        return StepOutcome(outcome=outcome, created=created, solution=solution)

    def run_all(self, depth_first: bool = True) -> list[Solution]:
        """Drive the rest of the search automatically (for convenience)."""
        while True:
            pending = self.pending()
            if not pending:
                break
            choice = pending[-1] if depth_first else pending[0]
            self.run(choice.seq)
        return self.solutions

    @property
    def stats(self) -> SearchStats:
        return self._stats

    def close(self) -> None:
        """Discard every live snapshot and end the session."""
        if self._closed:
            return
        self._closed = True
        # Unpin by draining: each parked extension holds one pin.
        for seq in sorted(self._external.pending):
            self._stepper.tree.unpin(self._external.pending[seq].candidate)
        self._external.pending.clear()
        self._external.drain()

    def __enter__(self) -> "InteractiveSearch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
