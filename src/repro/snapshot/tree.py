"""Snapshot-tree bookkeeping (the vertices of the search graph).

The libOS "manages the internal structures of the search graph" (§4): the
partial candidates are snapshots, the unevaluated extensions are edges.
:class:`SnapshotTree` tracks the tree shape, supports pruning of exhausted
interior snapshots, and reports structural statistics used by the E2/E6
footprint experiments.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.obs import events
from repro.obs.trace import TRACER
from repro.snapshot.snapshot import Snapshot, SnapshotManager


class SnapshotTree:
    """The tree of live partial candidates for one search session."""

    def __init__(self, manager: SnapshotManager):
        self.manager = manager
        self.root: Optional[Snapshot] = None
        self._by_id: dict[int, Snapshot] = {}
        #: Reference counts of *pending work*: how many unevaluated
        #: extensions (or running evaluations) still need each snapshot.
        self._pins: dict[int, int] = {}

    # ------------------------------------------------------------------

    def add(self, snap: Snapshot) -> None:
        """Register a snapshot; the first one becomes the root."""
        if snap.sid in self._by_id:
            raise ValueError(f"snapshot {snap.sid} already in tree")
        self._by_id[snap.sid] = snap
        if self.root is None and snap.parent is None:
            self.root = snap

    def get(self, sid: int) -> Snapshot:
        """Look up a snapshot by id (KeyError if unknown)."""
        return self._by_id[sid]

    def __contains__(self, snap: Snapshot) -> bool:
        return snap.sid in self._by_id

    def __len__(self) -> int:
        return sum(1 for s in self._by_id.values() if s.alive)

    def walk(self) -> Iterator[Snapshot]:
        """Yield live snapshots in depth-first preorder from the root."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.alive:
                yield node
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # Pin-based pruning
    # ------------------------------------------------------------------

    def pin(self, snap: Snapshot, count: int = 1) -> None:
        """Record *count* pending uses of *snap* (unevaluated extensions)."""
        self._pins[snap.sid] = self._pins.get(snap.sid, 0) + count

    def unpin(self, snap: Snapshot) -> None:
        """Release one pending use; prunes the snapshot when exhausted.

        A snapshot with zero pins and zero live children holds no future
        value for the search and is discarded, recursively unpinning its
        parent.  This keeps the live tree limited to the *frontier* plus
        its ancestors with remaining work — the pruning DESIGN.md §5 calls
        out.
        """
        sid = snap.sid
        remaining = self._pins.get(sid, 0) - 1
        if remaining > 0:
            self._pins[sid] = remaining
            return
        self._pins.pop(sid, None)
        self._maybe_prune(snap)

    def _maybe_prune(self, snap: Snapshot) -> None:
        while (
            snap is not None
            and snap.alive
            and not snap.children
            and self._pins.get(snap.sid, 0) == 0
        ):
            parent = snap.parent
            if TRACER.enabled:
                TRACER.emit(events.SNAPSHOT_PRUNE, sid=snap.sid, depth=snap.depth)
            self.manager.discard(snap)
            self.manager.stats.pruned += 1
            del self._by_id[snap.sid]
            if snap is self.root:
                self.root = None
            snap = parent  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def live_count(self) -> int:
        return len(self)

    def max_depth(self) -> int:
        """Depth of the deepest live snapshot (root = 0; -1 if empty)."""
        return max((s.depth for s in self.walk()), default=-1)

    def total_private_pages(self) -> int:
        """Sum of unshared pages across live snapshots (delta encoding
        effectiveness: low numbers mean the tree shares well)."""
        return sum(s.private_pages() for s in self.walk())

    def apply(self, fn: Callable[[Snapshot], None]) -> None:
        """Apply *fn* to every live snapshot."""
        for snap in list(self.walk()):
            fn(snap)

    def to_dot(self, label: Optional[Callable[[Snapshot], str]] = None) -> str:
        """Render the live tree in Graphviz DOT format.

        *label* maps a snapshot to its node caption (default: sid, depth,
        recorded path metadata if the engine attached one).
        """

        def default_label(snap: Snapshot) -> str:
            path = snap.meta.get("path")
            suffix = f"\\npath={path}" if path is not None else ""
            return f"s{snap.sid} d{snap.depth}{suffix}"

        label = label or default_label
        lines = ["digraph snapshots {", "  node [shape=box];"]
        for snap in self.walk():
            pins = self._pins.get(snap.sid, 0)
            style = ' style="filled" fillcolor="lightyellow"' if pins else ""
            lines.append(f'  n{snap.sid} [label="{label(snap)}"{style}];')
            if snap.parent is not None and snap.parent.alive:
                lines.append(f"  n{snap.parent.sid} -> n{snap.sid};")
        lines.append("}")
        return "\n".join(lines)
