"""Lease-based task ownership with monotonic fencing tokens.

On a single host, "the worker died" is a fact: the coordinator holds the
process handle and the pipe EOF is authoritative.  Over a network it is
only ever a *suspicion* — a partitioned worker looks exactly like a dead
one, keeps computing, and may deliver its result after the coordinator
has re-dispatched the task elsewhere.  Without extra machinery that
late result double-counts solutions and breaks the engine's exact
work-conservation invariant.

The classic fix (Chubby/GFS lineage) is leases plus fencing:

* every dispatched task carries a **fencing token** drawn from one
  strictly monotonic counter; the :class:`LeaseTable` remembers which
  token is the *live* one per task key;
* a worker's leases end when the coordinator revokes them: the worker
  was declared down or stalled, or its results were lost (the tasks are
  requeued and their next grants get higher tokens);
* a result is accepted only if its token matches the live lease
  (:meth:`settle` returns the lease it consumed).  Anything else —
  revoked lease, earlier grant, duplicated delivery, already-settled
  key — is **stale** and the engine discards it wholesale: no registry
  merge, no solutions, no spills, no journal ``complete``.  The
  re-execution elsewhere is the only accounting of that subtree, so the
  solution multiset and step counts match the sequential run exactly
  even when frames are lost, duplicated or delayed.

The table is also the coordinator's one record of each worker's
progress: which tasks the worker owes, in grant order, and when it last
made **progress**: a grant, any task result it delivers (a stale one
too: the worker has moved on through its batch), or a heartbeat that
shows its steps grew.  Every per-worker decision reads it: busy or idle,
the stall timeout (the one clock rule for lost work), the answer to a
steal from a worker that still owes leases, and the suspect of a
failure (the first lease owed, which is the task the worker was
running, since workers run a batch in grant order and report per task).

The table is pure bookkeeping over an injected clock (deterministic
tests); it never talks to workers or timers itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.search.shard import PrefixTask


@dataclass
class Lease:
    """One live grant: *task*, stamped with *fence*, owed by *wid*."""

    key: tuple
    fence: int
    wid: int
    task: PrefixTask


class LeaseTable:
    """Ownership registry: one live lease per task key, fenced, and each
    worker's leases in grant order with the time of its last progress.

    Parameters
    ----------
    start_fence:
        First token to hand out; a resumed coordinator seeds this past
        the journal's highest recorded fence so tokens stay monotonic
        across coordinator lifetimes.
    clock:
        Monotonic time source (injected for deterministic tests).
    """

    def __init__(self, start_fence: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if start_fence < 1:
            raise ValueError("start_fence must be >= 1")
        self._clock = clock
        self._next_fence = start_fence
        self._live: dict[tuple, Lease] = {}
        #: wid -> its live leases by key, in grant order.
        self._owed: dict[int, dict[tuple, Lease]] = {}
        #: wid -> clock reading of its last progress.
        self._progress: dict[int, float] = {}

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    @property
    def next_fence(self) -> int:
        return self._next_fence

    def holder(self, key: tuple) -> Optional[int]:
        lease = self._live.get(tuple(key))
        return lease.wid if lease is not None else None

    def owned_by(self, wid: int) -> list[Lease]:
        """*wid*'s live leases in grant order."""
        return list(self._owed.get(wid, {}).values())

    def busy(self, wid: int) -> bool:
        """Whether *wid* owes any task."""
        return wid in self._owed

    def quiet(self, wid: int) -> float:
        """Seconds since *wid* last made progress (0 for a worker the
        table holds no record of)."""
        now = self._clock()
        return now - self._progress.get(wid, now)

    # -- transitions ---------------------------------------------------

    def progress(self, wid: int) -> None:
        """Record progress by *wid*: its quiet time starts over."""
        self._progress[wid] = self._clock()

    def grant(self, task: PrefixTask, wid: int) -> Lease:
        """Lease *task* to *wid* under a fresh fencing token.

        Returns the lease; ``lease.task`` is the task with its ``fence``
        field stamped — that copy is what travels to the worker and what
        the journal records.  Granting a key that is already live
        supersedes the old lease (its token is fenced off) and puts the
        new one last in *wid*'s grant order.  A grant is progress.
        """
        fence = self._next_fence
        self._next_fence += 1
        lease = Lease(key=task.key(), fence=fence, wid=wid,
                      task=task._replace(fence=fence))
        self._drop(lease.key)
        self._live[lease.key] = lease
        self._owed.setdefault(wid, {})[lease.key] = lease
        self.progress(wid)
        return lease

    def settle(self, key: tuple, fence: int, wid: int) -> Optional[Lease]:
        """Account a result *wid* delivered for (*key*, *fence*).

        Any result is progress for *wid*.  Returns the lease the result
        consumed, or ``None`` when it is stale; once consumed, any later
        settle of the same key is stale by construction (no live lease),
        so a duplicated result delivery can never double-count.
        """
        self.progress(wid)
        key = tuple(key)
        lease = self._live.get(key)
        if lease is None or lease.fence != fence:
            return None
        self._drop(key)
        return lease

    def revoke_worker(self, wid: int) -> list[Lease]:
        """Drop every lease *wid* owes, returned in grant order (worker
        declared down or its results lost)."""
        owed = self._owed.pop(wid, {})
        for key in owed:
            del self._live[key]
        self._progress.pop(wid, None)
        return list(owed.values())

    def drain(self) -> list[Lease]:
        """Pop every live lease (coordinator shutdown/degrade path)."""
        leases = list(self._live.values())
        self._live.clear()
        self._owed.clear()
        self._progress.clear()
        return leases

    def _drop(self, key: tuple) -> None:
        lease = self._live.pop(key, None)
        if lease is not None:
            owed = self._owed[lease.wid]
            del owed[key]
            if not owed:
                del self._owed[lease.wid]
