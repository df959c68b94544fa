"""The search strategies the paper names: DFS, BFS, A*, SM-A*, plus the
externally-controlled and coverage-optimized strategies of §3.1/§3.2.

Strategies are pure scheduling policy.  The engine hands them batches of
unevaluated extensions (one batch per ``sys_guess``) and asks for the next
extension to evaluate; strategies never see register files or address
spaces.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.search.extension import Extension


class StrategyStats:
    """Frontier accounting for one search run (a plain record of ints)."""

    __slots__ = ("added", "popped", "dropped", "peak_frontier")

    def __init__(
        self,
        added: int = 0,
        popped: int = 0,
        dropped: int = 0,
        peak_frontier: int = 0,
    ):
        self.added = added
        self.popped = popped
        self.dropped = dropped
        self.peak_frontier = peak_frontier

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StrategyStats(added={self.added}, popped={self.popped}, "
            f"dropped={self.dropped}, peak_frontier={self.peak_frontier})"
        )


class Strategy(ABC):
    """Scheduling policy over unevaluated candidate extension steps."""

    #: Short registry name (e.g. ``"dfs"``); set by subclasses.
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = StrategyStats()

    @abstractmethod
    def _push(self, ext: Extension) -> Optional[Extension]:
        """Insert one extension into the frontier; return the extension a
        bounded frontier dropped to make room, if any."""

    @abstractmethod
    def _pop(self) -> Optional[Extension]:
        """Remove and return the next extension, or None if empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of unevaluated extensions in the frontier."""

    def add(self, extensions: Iterable[Extension]) -> list[Extension]:
        """Enqueue a batch of sibling extensions (one ``sys_guess``).

        Returns the extensions a bounded frontier dropped on the way
        (``[]`` for the unbounded strategies), so the caller can release
        what they hold, as with :meth:`drain`."""
        stats = self.stats
        dropped = []
        for ext in extensions:
            gone = self._push(ext)
            stats.added += 1
            if gone is not None:
                dropped.append(gone)
        stats.dropped += len(dropped)
        stats.peak_frontier = max(stats.peak_frontier, len(self))
        return dropped

    def next(self) -> Optional[Extension]:
        """Dequeue the extension to evaluate next (None = search done)."""
        ext = self._pop()
        if ext is not None:
            self.stats.popped += 1
        return ext

    def drain(self) -> list[Extension]:
        """Drop all pending extensions (used when a search is cut short)
        and return them, so the caller can release what they hold."""
        dropped = []
        while (ext := self._pop()) is not None:
            dropped.append(ext)
        self.stats.dropped += len(dropped)
        return dropped


class DFSStrategy(Strategy):
    """Depth-first search: LIFO, lowest extension number first.

    This is the strategy Figure 1 selects; it makes system-level
    backtracking behave like Prolog's chronological backtracking.
    """

    name = "dfs"

    def __init__(self) -> None:
        super().__init__()
        self._stack: list[Extension] = []

    def add(self, extensions: Iterable[Extension]) -> list[Extension]:
        # Push siblings in reverse so extension 0 pops first.
        batch = list(extensions)
        return super().add(reversed(batch))

    def _push(self, ext: Extension) -> None:
        self._stack.append(ext)

    def _pop(self) -> Optional[Extension]:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)


class BFSStrategy(Strategy):
    """Breadth-first search: FIFO over extensions."""

    name = "bfs"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[Extension] = deque()

    def _push(self, ext: Extension) -> None:
        self._queue.append(ext)

    def _pop(self) -> Optional[Extension]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class BestFirstStrategy(Strategy):
    """Greedy best-first: lowest heuristic hint first (ignores depth)."""

    name = "best"

    def __init__(self, key: Optional[Callable[[Extension], float]] = None):
        super().__init__()
        self._key = key if key is not None else _hint_or_zero
        self._heap: list[tuple[float, int, Extension]] = []

    def _push(self, ext: Extension) -> None:
        heapq.heappush(self._heap, (self._key(ext), ext.seq, ext))

    def _pop(self) -> Optional[Extension]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class AStarStrategy(BestFirstStrategy):
    """A*: order by f = g + h, where g is candidate depth and h the
    goal-distance hint passed through the extended guess call (§3.1).

    With an admissible h and unit edge costs this finds minimum-depth
    solutions while expanding no more candidates than BFS.
    """

    name = "astar"

    def __init__(self) -> None:
        super().__init__(key=Extension.f_cost)


class SMAStarStrategy(Strategy):
    """Simplified memory-bounded A* (SM-A*).

    Keeps at most *capacity* extensions in the frontier, ordered by f.
    When full, the worst extension is dropped for good and handed back
    to the caller, which releases its snapshot.  This simplification
    leaves out SMA*'s backed-up f-values and the regeneration of dropped
    work they allow, but keeps the property the paper needs from it:
    best-first search under a hard frontier-memory bound.
    """

    name = "sma"

    def __init__(self, capacity: int = 1024):
        super().__init__()
        if capacity < 2:
            raise ValueError("SM-A* needs capacity >= 2")
        self.capacity = capacity
        self._heap: list[tuple[float, int, Extension]] = []

    def _push(self, ext: Extension) -> Optional[Extension]:
        heapq.heappush(self._heap, (ext.f_cost(), ext.seq, ext))
        if len(self._heap) <= self.capacity:
            return None
        worst_idx = max(range(len(self._heap)), key=lambda i: self._heap[i][0])
        dropped = self._heap.pop(worst_idx)[2]
        heapq.heapify(self._heap)
        return dropped

    def _pop(self) -> Optional[Extension]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class BeamStrategy(Strategy):
    """Beam search: best-first limited to the *width* best extensions at
    each depth; deeper extensions always outrank shallower ones so the
    beam advances level by level.

    Incomplete by design (pruned extensions are dropped for good), which
    is the point: a cheap, bounded-frontier policy for workloads where
    hints are informative and exhaustiveness is not required.
    """

    name = "beam"

    def __init__(self, width: int = 8):
        super().__init__()
        if width < 1:
            raise ValueError("beam width must be >= 1")
        self.width = width
        self._by_depth: dict[int, list[tuple[float, int, Extension]]] = {}

    def _push(self, ext: Extension) -> Optional[Extension]:
        bucket = self._by_depth.setdefault(ext.depth, [])
        heapq.heappush(bucket, (-_hint_or_zero(ext), ext.seq, ext))
        if len(bucket) > self.width:
            return heapq.heappop(bucket)[2]  # the worst (largest hint)
        return None

    def _pop(self) -> Optional[Extension]:
        if not self._by_depth:
            return None
        deepest = max(self._by_depth)
        bucket = self._by_depth[deepest]
        best_index = min(range(len(bucket)), key=lambda i: (-bucket[i][0],
                                                            bucket[i][1]))
        _neg_hint, _seq, ext = bucket.pop(best_index)
        heapq.heapify(bucket)
        if not bucket:
            del self._by_depth[deepest]
        return ext

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_depth.values())


class RandomStrategy(Strategy):
    """Uniform random exploration (a cheap baseline; also useful for
    randomized restarts in solver workloads).  Deterministic under *seed*.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        super().__init__()
        self._rng = random.Random(seed)
        self._items: list[Extension] = []

    def _push(self, ext: Extension) -> None:
        self._items.append(ext)

    def _pop(self) -> Optional[Extension]:
        if not self._items:
            return None
        idx = self._rng.randrange(len(self._items))
        self._items[idx], self._items[-1] = self._items[-1], self._items[idx]
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)


class CoverageStrategy(Strategy):
    """Coverage-optimized exploration (the S2E-style strategy of §3.2).

    Prefers extensions whose parent candidate reports program locations
    not seen before.  The engine supplies a ``coverage_key`` callable
    mapping an extension to a hashable location (e.g. the guest PC at the
    fork point); unseen locations sort first, then FIFO within class.
    """

    name = "coverage"

    def __init__(self, coverage_key: Optional[Callable[[Extension], Any]] = None):
        super().__init__()
        self._key = coverage_key if coverage_key is not None else _candidate_key
        self._seen: set = set()
        self._heap: list[tuple[int, int, Extension]] = []

    def _push(self, ext: Extension) -> None:
        loc = self._key(ext)
        novel = 0 if loc not in self._seen else 1
        heapq.heappush(self._heap, (novel, ext.seq, ext))

    def _pop(self) -> Optional[Extension]:
        if not self._heap:
            return None
        ext = heapq.heappop(self._heap)[2]
        self._seen.add(self._key(ext))
        return ext

    def __len__(self) -> int:
        return len(self._heap)


class ExternalStrategy(Strategy):
    """Externally controlled strategy (§3.1): an outside entity decides
    which extension runs next by calling :meth:`select`.

    Extensions added by the engine park in ``pending`` until the external
    controller moves them to the run queue.  This models the multi-path
    solver *service* of §3.2, where clients name the partial candidate to
    extend.
    """

    name = "external"

    def __init__(self) -> None:
        super().__init__()
        self.pending: dict[int, Extension] = {}
        self._run_queue: deque[Extension] = deque()

    def _push(self, ext: Extension) -> None:
        self.pending[ext.seq] = ext

    def select(self, seq: int) -> None:
        """Schedule the pending extension with sequence number *seq*.

        Raises :class:`~repro.core.errors.InputExhaustedError` when no
        extension with that sequence number is pending — it was already
        scheduled, or never existed.  (The controller fed a selection
        the search cannot consume; the session stays usable.)
        """
        try:
            ext = self.pending.pop(seq)
        except KeyError:
            from repro.core.errors import InputExhaustedError

            raise InputExhaustedError(
                f"no pending extension with sequence number {seq}: it "
                "was already scheduled or never existed; pending "
                f"sequence numbers are {sorted(self.pending)}"
            ) from None
        self._run_queue.append(ext)

    def select_all(self) -> None:
        """Schedule everything currently pending, FIFO."""
        for seq in sorted(self.pending):
            self.select(seq)

    def _pop(self) -> Optional[Extension]:
        return self._run_queue.popleft() if self._run_queue else None

    def __len__(self) -> int:
        return len(self._run_queue) + len(self.pending)


def _hint_or_zero(ext: Extension) -> float:
    return ext.hint if ext.hint is not None else 0.0


def _candidate_key(ext: Extension) -> Any:
    return id(ext.candidate)


_REGISTRY: dict[str, Callable[..., Strategy]] = {
    "dfs": DFSStrategy,
    "bfs": BFSStrategy,
    "best": BestFirstStrategy,
    "astar": AStarStrategy,
    "sma": SMAStarStrategy,
    "beam": BeamStrategy,
    "random": RandomStrategy,
    "coverage": CoverageStrategy,
    "external": ExternalStrategy,
}


def get_strategy(name: str, **kwargs: Any) -> Strategy:
    """Instantiate a strategy by registry name.

    >>> get_strategy("dfs").name
    'dfs'
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)
