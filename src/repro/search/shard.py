"""Frontier serialization and sharding for distributed exploration.

A snapshot-backed frontier cannot leave its process: address spaces and
page tables are not meaningfully picklable, and shipping them would be
exactly the page-table-copy cost lightweight snapshots exist to avoid.
What *does* travel is the decision prefix — the sequence of guess
outcomes that reaches a candidate — because a deterministic guest can be
rehydrated anywhere by replaying that prefix from the program start.

:class:`PrefixTask` is that wire format: one unexplored subtree root,
small enough that thousands of them cost less than a single page table.
:class:`TaskFrontier` is the coordinator-side scheduling structure that
shards them into worker-sized batches under a DFS (LIFO) or BFS (FIFO)
discipline.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional


class PrefixTask(NamedTuple):
    """One serializable unit of exploration work: a subtree root.

    Attributes
    ----------
    prefix:
        The guess outcomes that reach the subtree root from the program
        start (the paper's "reference to the parent partial candidate
        and the extension number", flattened into a replayable path).
    fanouts:
        ``fanouts[i]`` is the fan-out of the guess answered by
        ``prefix[i]``; replays verify these to detect nondeterministic
        guests.
    hint:
        Optional goal-distance hint attached when the task was spilled
        (carried for informed frontier orderings; DFS/BFS ignore it).
    attempt:
        How many times this task has been dispatched before (bumped by
        the coordinator when a worker crash or timeout loses it).
    span:
        The trace context: the root span id of the cluster run this
        task belongs to.  Together with the decision prefix it lets a
        worker's trace events be causally linked back to the run and the
        subtree that produced them, across the process boundary.  Spilled
        children inherit their parent task's span.
    fence:
        The monotonic fencing token of the dispatch this copy of the
        task travelled under (see :mod:`repro.core.lease`): 0 before
        first dispatch, stamped by the coordinator's lease table at
        grant time.  A result whose fence does not match the live lease
        is stale and discarded — the mechanism that keeps solution
        multisets exact when frames are lost, duplicated or delayed.
    """

    prefix: tuple[int, ...] = ()
    fanouts: tuple[int, ...] = ()
    hint: Optional[float] = None
    attempt: int = 0
    span: Optional[int] = None
    fence: int = 0

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def retried(self) -> "PrefixTask":
        """The same task, one dispatch attempt later."""
        return self._replace(attempt=self.attempt + 1)

    def key(self) -> tuple[int, ...]:
        """Identity of the subtree (stable across retries)."""
        return self.prefix

    def to_record(self) -> dict:
        """JSON-safe journal representation (see :mod:`repro.core.journal`).

        Tuples become lists (JSON has no tuples); :meth:`from_record`
        restores them, so ``from_record(to_record(t)) == t`` exactly —
        the round-trip the journal's recovery path depends on.
        """
        record = {
            "prefix": list(self.prefix),
            "fanouts": list(self.fanouts),
            "hint": self.hint,
            "attempt": self.attempt,
            "span": self.span,
        }
        if self.fence:
            record["fence"] = self.fence
        return record

    @classmethod
    def from_record(cls, record: dict) -> "PrefixTask":
        """Rebuild a task from its :meth:`to_record` journal form."""
        return cls(
            prefix=tuple(record["prefix"]),
            fanouts=tuple(record["fanouts"]),
            hint=record.get("hint"),
            attempt=record.get("attempt", 0),
            span=record.get("span"),
            fence=record.get("fence", 0),
        )


#: Frontier disciplines a :class:`TaskFrontier` understands, and the
#: worker-local strategy each one maps to.
SHARD_ORDERS = ("dfs", "bfs")


class TaskFrontier:
    """The coordinator's frontier of unexplored subtree roots.

    Scheduling discipline mirrors the single-process strategies: ``dfs``
    pops the most recently spilled task first (depth-first over
    subtrees), ``bfs`` the oldest (frontier-parallel level order).
    Either way the *set* of explored subtrees is identical — order only
    shapes memory footprint and time-to-first-solution.
    """

    def __init__(self, order: str = "dfs"):
        if order not in SHARD_ORDERS:
            raise ValueError(
                f"unknown shard order {order!r}; choose from {SHARD_ORDERS}"
            )
        self.order = order
        self._tasks: deque[PrefixTask] = deque()
        #: High-water mark of queued tasks (the coordinator's analogue of
        #: a strategy's peak_frontier).
        self.peak = 0

    def push(self, task: PrefixTask) -> None:
        self._tasks.append(task)
        if len(self._tasks) > self.peak:
            self.peak = len(self._tasks)

    def extend(self, tasks: Iterable[PrefixTask]) -> None:
        for task in tasks:
            self.push(task)

    def pop(self) -> Optional[PrefixTask]:
        if not self._tasks:
            return None
        return self._tasks.pop() if self.order == "dfs" else self._tasks.popleft()

    def take_batch(self, limit: int) -> list[PrefixTask]:
        """Shard off up to *limit* tasks for one worker dispatch."""
        batch: list[PrefixTask] = []
        while len(batch) < limit:
            task = self.pop()
            if task is None:
                break
            batch.append(task)
        return batch

    def __len__(self) -> int:
        return len(self._tasks)

    def __bool__(self) -> bool:
        return bool(self._tasks)


def spill_extension(prefix: tuple[int, ...], fanouts: tuple[int, ...],
                    n: int, hints: Optional[tuple[float, ...]],
                    span: Optional[int] = None) -> list[PrefixTask]:
    """Turn one choice point into its child tasks.

    A guess with fan-out *n* reached via *prefix* becomes *n* sibling
    subtree roots — the unit the coordinator shards across workers.
    The children inherit *span* so their trace events stay linked to the
    run that spawned them.
    """
    child_fanouts = fanouts + (n,)
    return [
        PrefixTask(
            prefix=prefix + (i,),
            fanouts=child_fanouts,
            hint=hints[i] if hints is not None else None,
            span=span,
        )
        for i in range(n)
    ]
