"""Search results and exploration statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional



@dataclass(frozen=True)
class Solution:
    """One completed path through the search space.

    Attributes
    ----------
    value:
        What the guest produced: the return value for Python guests, the
        (exit_code, stdout) pair for machine guests.
    path:
        The sequence of guess outcomes that leads to this solution — the
        "single path to solution" the guest appeared to execute.
    depth:
        Number of guesses along the path.
    """

    value: Any
    path: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.path)


class SearchStats:
    """Counters describing one exploration run.

    A plain record of ints that engines increment directly; an engine
    copies it into its registry as ``search.*`` with
    :func:`~repro.obs.registry.record_into` when a run ends.

    Fields:

    * ``candidates`` — partial candidates created (snapshots taken /
      choice points found).
    * ``evaluations`` — candidate extension steps evaluated.
    * ``fails`` — extension steps that ended in ``sys_guess_fail``.
    * ``completions`` — extension steps that produced a solution.
    * ``replayed_decisions`` — for the replay engine: guesses answered
      from recorded prefixes (pure re-execution overhead; the machine
      engine keeps this at 0).
    * ``kills`` — extension steps terminated by the libOS (runaway step
      budgets, unhandled faults) rather than by the guest itself.
    * ``peak_frontier`` — peak unevaluated extensions in the frontier.
    * ``extra`` — engine-specific extras dict (VM exits, pages copied…).
    """

    FIELDS = (
        "candidates", "evaluations", "fails", "completions",
        "replayed_decisions", "kills", "peak_frontier",
    )
    GAUGES = {"peak_frontier": "peak_frontier"}
    __slots__ = FIELDS + ("extra",)

    def __init__(
        self,
        candidates: int = 0,
        evaluations: int = 0,
        fails: int = 0,
        completions: int = 0,
        replayed_decisions: int = 0,
        kills: int = 0,
        peak_frontier: int = 0,
        extra: Optional[dict] = None,
    ):
        self.candidates = candidates
        self.evaluations = evaluations
        self.fails = fails
        self.completions = completions
        self.replayed_decisions = replayed_decisions
        self.kills = kills
        self.peak_frontier = peak_frontier
        self.extra: dict = extra if extra is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchStats(candidates={self.candidates}, "
            f"evaluations={self.evaluations}, fails={self.fails}, "
            f"completions={self.completions}, "
            f"peak_frontier={self.peak_frontier})"
        )


@dataclass
class SearchResult:
    """The outcome of exploring a guest program's search space."""

    solutions: list[Solution]
    stats: SearchStats
    strategy: str
    #: True if the frontier emptied; False if a budget stopped the search.
    exhausted: bool
    #: Why the search stopped early, if it did.
    stop_reason: Optional[str] = None

    @property
    def solution_values(self) -> list[Any]:
        """Just the guest-produced values, in discovery order."""
        return [s.value for s in self.solutions]

    @property
    def first(self) -> Optional[Solution]:
        """The first solution found, or None."""
        return self.solutions[0] if self.solutions else None

    def __bool__(self) -> bool:
        return bool(self.solutions)

    def summary(self) -> str:
        """One-line human-readable description."""
        s = self.stats
        return (
            f"{len(self.solutions)} solution(s) via {self.strategy}: "
            f"{s.candidates} candidates, {s.evaluations} evaluations, "
            f"{s.fails} fails"
            + ("" if self.exhausted else f" (stopped: {self.stop_reason})")
        )
