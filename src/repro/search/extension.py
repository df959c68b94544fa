"""Candidate extension steps: the edges of the search graph.

An unevaluated extension is "simply a reference to their parent partial
candidate and the extension number" (§4).  We add the optional heuristic
hint that "search strategies that rely on goal-distance heuristics such as
A* and SM-A* require" (§3.1), plus a sequence number so strategies can
break ties deterministically.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_seq = itertools.count()


class Extension:
    """A deferred computation: evaluate extension *number* of *candidate*.

    Attributes
    ----------
    candidate:
        The parent partial candidate.  Opaque to strategies — the engines
        pass snapshots (machine engine) or decision-path nodes (replay
        engine).
    number:
        The value ``sys_guess`` will return when this extension runs.
    hint:
        Optional goal-distance estimate for informed strategies (the
        extended-guess API of §3.1).  Lower means closer to a goal.
    depth:
        Depth of the parent candidate in the search tree (the ``g`` cost
        for A*).
    seq:
        Global creation order; used as a deterministic tie-breaker.

    One is built per extension, so it is a slotted record with a plain
    constructor; nothing writes its fields after construction.
    """

    __slots__ = ("candidate", "number", "hint", "depth", "seq")

    def __init__(self, candidate: Any, number: int,
                 hint: Optional[float] = None, depth: int = 0):
        self.candidate = candidate
        self.number = number
        self.hint = hint
        self.depth = depth
        self.seq = next(_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Extension(number={self.number}, hint={self.hint}, "
                f"depth={self.depth}, seq={self.seq})")

    def f_cost(self) -> float:
        """A* evaluation: path cost so far plus heuristic estimate."""
        h = self.hint if self.hint is not None else 0.0
        return self.depth + h
