"""Snapshot objects and the snapshot manager.

A :class:`Snapshot` owns a *frozen* logical copy of an address space (plus
register file and file-table copies).  Nothing ever writes through a
snapshot's address space, so its immutability is a protocol invariant on
top of the page-level copy-on-write machinery: executing extensions write
through their own forked space, and the first write to any shared page
copies it away from the snapshot.

Cost model (matching §4 of the paper):

* ``take``    -- O(1): page-table root sharing + register copy; the
  running space's translations written since its last fork are
  downgraded to read-only, and the snapshot keeps a copy of them.
* ``restore`` -- O(1): fork the snapshot's space (one copy of its
  read-only translations, so loads and fetches start warm), copy
  registers, fork the file table (shared until its first write).
  Subsequent writes pay per-page COW faults.
* ``discard`` -- O(private pages): releases only the frames the snapshot
  does not share with its relatives.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.core.errors import SnapshotDiscardedError
from repro.mem.addrspace import AddressSpace
from repro.mem.frames import FramePool
from repro.obs import events
from repro.obs.trace import TRACER

_snapshot_ids = itertools.count(1)


class SnapshotStats:
    """Lifecycle counters for a :class:`SnapshotManager`.

    A plain record of ints (``taken``, ``restored``, ``discarded``,
    ``live``, ``peak_live``, and ``pruned`` — discards made by
    :class:`~repro.snapshot.tree.SnapshotTree` pin-exhaustion pruning).
    Engines copy it into their registry as ``snapshot.*`` with
    :func:`~repro.obs.registry.record_into`, where ``live`` is a gauge
    whose peak is ``peak_live``.
    """

    FIELDS = ("taken", "restored", "discarded", "live", "peak_live", "pruned")
    GAUGES = {"live": "peak_live", "peak_live": "peak_live"}
    __slots__ = FIELDS

    def __init__(
        self,
        taken: int = 0,
        restored: int = 0,
        discarded: int = 0,
        live: int = 0,
        peak_live: int = 0,
        pruned: int = 0,
    ):
        self.taken = taken
        self.restored = restored
        self.discarded = discarded
        self.live = live
        self.peak_live = peak_live
        self.pruned = pruned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotStats(taken={self.taken}, restored={self.restored}, "
            f"discarded={self.discarded}, live={self.live}, "
            f"peak_live={self.peak_live}, pruned={self.pruned})"
        )


class Snapshot:
    """One lightweight immutable execution snapshot (a partial candidate).

    Attributes
    ----------
    sid:
        Unique snapshot id (monotonically increasing).
    regs:
        An immutable register-file value (opaque to this layer; the CPU
        package supplies frozen register tuples, the pure-Python engine
        may store any picklable value or None).
    space:
        The frozen :class:`AddressSpace`.  Never written through.
    files:
        An immutable file-table value (opaque; forked via ``fork_cow`` if
        it provides one).
    parent:
        The parent snapshot, or None for a root.
    meta:
        Free-form metadata (e.g. the guess fan-out recorded at creation).
    """

    __slots__ = (
        "sid",
        "regs",
        "space",
        "files",
        "parent",
        "children",
        "depth",
        "meta",
        "alive",
    )

    def __init__(
        self,
        regs: Any,
        space: AddressSpace,
        files: Any = None,
        parent: Optional["Snapshot"] = None,
    ):
        self.sid = next(_snapshot_ids)
        self.regs = regs
        self.space = space
        self.files = files
        self.parent = parent
        self.children: list[Snapshot] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self.meta: dict = {}
        self.alive = True
        if parent is not None:
            parent.children.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"Snapshot(sid={self.sid}, depth={self.depth}, {state})"

    def private_pages(self) -> int:
        """Pages whose frame no other space or snapshot references."""
        return self.space.resident_private_pages()

    def delta_pages(self, other: "Snapshot") -> int:
        """Pages whose physical frame differs from *other*'s mapping.

        The paper's §3.1 notes the parent relationship "can be leveraged
        to encode the state in a space-efficient manner"; this measures
        that encoding directly: a child's cost over its parent is its
        delta, not its size.
        """
        other_frames = {vpn: pte.frame for vpn, pte in other.space.table.items()}
        delta = 0
        for vpn, pte in self.space.table.items():
            if other_frames.get(vpn) is not pte.frame:
                delta += 1
        delta += sum(1 for vpn in other_frames
                     if not self.space.table.is_mapped(vpn))
        return delta

    def ancestry(self) -> list["Snapshot"]:
        """Return the path from the root snapshot down to this one."""
        path: list[Snapshot] = []
        node: Optional[Snapshot] = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path


class SnapshotManager:
    """Creates, restores and discards snapshots over a shared frame pool.

    One manager corresponds to one backtracking session: all snapshots it
    creates share the session's physical frame pool, so page sharing and
    footprint accounting are global across the snapshot tree.
    """

    def __init__(self, pool: Optional[FramePool] = None):
        self.pool = pool if pool is not None else FramePool()
        self.stats = SnapshotStats()

    # ------------------------------------------------------------------

    def take(
        self,
        space: AddressSpace,
        regs: Any = None,
        files: Any = None,
        parent: Optional[Snapshot] = None,
    ) -> Snapshot:
        """Snapshot the current execution state.

        *space* remains the mutable, running address space; the snapshot
        receives an O(1) copy-on-write fork of it.  If *files* provides a
        ``fork_cow`` method it is forked the same way, otherwise it is
        stored as-is (callers pass immutable values).
        """
        if space.pool is not self.pool:
            raise ValueError("address space does not belong to this manager's pool")
        frozen_space = space.fork_cow()
        frozen_files = files.fork_cow() if hasattr(files, "fork_cow") else files
        snap = Snapshot(regs, frozen_space, frozen_files, parent)
        self._note_take(snap)
        return snap

    def _note_take(self, snap: Snapshot) -> None:
        """Account one successful take (shared with the baselines)."""
        self.stats.taken += 1
        self.stats.live += 1
        self.stats.peak_live = max(self.stats.peak_live, self.stats.live)
        if TRACER.enabled:
            TRACER.emit(
                events.SNAPSHOT_TAKE,
                sid=snap.sid,
                parent=snap.parent.sid if snap.parent is not None else None,
                live=self.stats.live,
                depth=snap.depth,
            )

    def restore(self, snap: Snapshot) -> tuple[Any, AddressSpace, Any]:
        """Materialise a fresh mutable execution state from *snap*.

        Returns ``(regs, space, files)``: the register value (immutable —
        callers copy into their own mutable register file), a mutable COW
        fork of the snapshot's address space, and a fork of its file
        table.  The snapshot itself is untouched and may be restored any
        number of times.
        """
        if not snap.alive:
            raise SnapshotDiscardedError(snap.sid, "restore")
        space = snap.space.fork_cow()
        files = (
            snap.files.fork_cow() if hasattr(snap.files, "fork_cow") else snap.files
        )
        self._note_restore(snap, space)
        return snap.regs, space, files

    def _note_restore(self, snap: Snapshot, space: AddressSpace) -> None:
        """Account one successful restore (shared with the baselines).

        The restore event records the fresh space's asid: later
        ``mem.cow_fault`` events carry the same asid, which is how a
        trace report attributes COW work back to the restore that
        incurred it.
        """
        self.stats.restored += 1
        if TRACER.enabled:
            TRACER.emit(
                events.SNAPSHOT_RESTORE, sid=snap.sid, asid=space.asid
            )

    def discard(self, snap: Snapshot) -> None:
        """Release *snap*'s resources.

        Only pages not shared with relatives are actually freed (the
        refcounted page table takes care of that).  Children keep working:
        they hold their own references to every frame they share.

        Discarding an already-discarded snapshot raises
        :class:`repro.core.errors.SnapshotDiscardedError`: a double
        discard means the caller's liveness bookkeeping is wrong, and
        silently ignoring it is how use-after-free bugs hide.  Callers
        that legitimately race lifecycle decisions check ``snap.alive``
        first (as :class:`repro.snapshot.tree.SnapshotTree` does).
        """
        if not snap.alive:
            raise SnapshotDiscardedError(snap.sid, "discard")
        private = snap.space.resident_private_pages() if TRACER.enabled else 0
        snap.alive = False
        snap.space.free()
        if hasattr(snap.files, "free"):
            snap.files.free()
        if snap.parent is not None and snap in snap.parent.children:
            snap.parent.children.remove(snap)
        self.stats.discarded += 1
        self.stats.live -= 1
        if TRACER.enabled:
            TRACER.emit(
                events.SNAPSHOT_DISCARD,
                sid=snap.sid,
                private_pages=private,
                live=self.stats.live,
            )

    def discard_subtree(self, snap: Snapshot) -> int:
        """Discard *snap* and every live descendant; returns the count."""
        count = 0
        stack = [snap]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.alive:
                self.discard(node)
                count += 1
        return count

    # ------------------------------------------------------------------

    @property
    def live_snapshots(self) -> int:
        return self.stats.live
