"""Pin counting and pruning over the snapshot tree (the search graph).

The libOS "manages the internal structures of the search graph" (§4): the
partial candidates are snapshots, the unevaluated extensions are edges.
The tree itself is the snapshots' own ``parent``/``children`` links, and
each snapshot carries its pin count, so :class:`SnapshotTree` keeps no
state: it counts pending work on a snapshot and discards the snapshot
once nothing needs it any more.
"""

from __future__ import annotations

from repro.obs import events
from repro.obs.trace import TRACER
from repro.snapshot.snapshot import Snapshot, SnapshotManager


class SnapshotTree:
    """Pin-based pruning of one manager's snapshots."""

    __slots__ = ("manager",)

    def __init__(self, manager: SnapshotManager):
        self.manager = manager

    def pin(self, snap: Snapshot, count: int = 1) -> None:
        """Record *count* pending uses of *snap* (unevaluated extensions)."""
        snap.pins += count

    def unpin(self, snap: Snapshot) -> None:
        """Release one pending use; prunes the snapshot when exhausted.

        A snapshot with zero pins and zero live children holds no future
        value for the search and is discarded, recursively unpinning its
        parent.  This keeps the live tree limited to the *frontier* plus
        its ancestors with remaining work — the pruning DESIGN.md §5 calls
        out.
        """
        remaining = snap.pins - 1
        if remaining > 0:
            snap.pins = remaining
            return
        snap.pins = 0
        manager = self.manager
        while (
            snap is not None
            and snap.alive
            and not snap.children
            and not snap.pins
        ):
            parent = snap.parent
            if TRACER.enabled:
                TRACER.emit(events.SNAPSHOT_PRUNE, sid=snap.sid, depth=snap.depth)
            manager.discard(snap)
            manager.stats.pruned += 1
            snap = parent  # type: ignore[assignment]
