"""Snapshots -- the partial candidates of a search -- and their manager.

A :class:`Snapshot` is one partial candidate (§4): a *frozen* logical copy
of an address space plus register file and file table, and the facts of
the guess that took it -- the decision path that reached it, the fan-out
of every guess on that path, the console output so far, and how many
unevaluated extensions still need it.  Nothing ever writes through a
snapshot's address space, so its immutability is a protocol invariant on
top of the page-level copy-on-write machinery: executing extensions
write through their own forked space, and the first write to any shared
page copies it away from the snapshot.

Cost model (matching §4 of the paper):

* ``take``    -- O(1): the snapshot's space is a fork of the running one,
  a header over the same page table and translation cache (the running
  space's translations written since its last fork are downgraded to
  read-only first); register copy; file-table fork (shared until its
  first write).
* ``restore`` -- O(1) and copies nothing: a header over the snapshot's
  page table and translation cache, so loads and fetches start warm,
  and the snapshot's own file table, lent.  The restored space's first
  change clones the table (O(1), root sharing) and copies the cache;
  subsequent writes pay per-page COW faults.
* ``discard`` -- O(private pages): releases only the frames the snapshot
  does not share with its relatives (none while a restored space still
  holds its table).
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
    """One lightweight immutable execution snapshot: a partial candidate.

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
    parent / children / depth:
        The snapshot tree: the parent (None for a root), the live
        snapshots taken with this one as parent, and the distance from
        the root.
    path:
        The guess outcomes that led from the program start to this guess.
    fanouts:
        The fan-out of every guess on ``path``, this one's included, so
        any unevaluated extension can be turned back into a replayable
        prefix task: local snapshot state is always rebuildable.
    console:
        The console at the guess; each extension reads it in place and
        forks it at its first write.
    pins:
        Pending uses -- unevaluated extensions and running evaluations --
        counted by :class:`~repro.snapshot.tree.SnapshotTree`.
    """

    __slots__ = (
        "sid",
        "regs",
        "space",
        "files",
        "parent",
        "children",
        "depth",
        "alive",
        "path",
        "fanouts",
        "console",
        "pins",
    )

    def __init__(
        self,
        regs: Any,
        space: AddressSpace,
        files: Any = None,
        parent: Optional["Snapshot"] = None,
        path: tuple[int, ...] = (),
        fanouts: tuple[int, ...] = (),
        console: Any = None,
    ):
        self.sid = next(_snapshot_ids)
        self.regs = regs
        self.space = space
        self.files = files
        self.parent = parent
        self.children: list[Snapshot] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self.alive = True
        self.path = path
        self.fanouts = fanouts
        self.console = console
        self.pins = 0
        if parent is not None:
            parent.children.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"Snapshot(sid={self.sid}, depth={self.depth}, {state})"


class SnapshotManager:
    """Creates, restores and discards snapshots over a shared frame pool.

    One manager corresponds to one backtracking session: all snapshots it
    creates share the session's physical frame pool, so page sharing and
    footprint accounting are global across the snapshot tree.
    """

    def __init__(self, pool: Optional[FramePool] = None):
        self.pool = pool if pool is not None else FramePool()
        self.stats = SnapshotStats()

    def _copy(self, space: AddressSpace) -> AddressSpace:
        """The copy of *space* that take and restore make: an O(1)
        copy-on-write fork (the eager baseline overrides this alone)."""
        return space.fork_cow()

    # ------------------------------------------------------------------

    def take(
        self,
        space: AddressSpace,
        regs: Any = None,
        files: Any = None,
        parent: Optional[Snapshot] = None,
        *,
        path: tuple[int, ...] = (),
        fanouts: tuple[int, ...] = (),
        console: Any = None,
    ) -> Snapshot:
        """Snapshot the current execution state.

        *space* remains the mutable, running address space; the snapshot
        receives an O(1) copy-on-write fork of it.  If *files* provides a
        ``fork_cow`` method it is forked the same way, otherwise it is
        stored as-is (callers pass immutable values).  *path*, *fanouts*
        and *console* record the guess (see :class:`Snapshot`).
        """
        if space.pool is not self.pool:
            raise ValueError("address space does not belong to this manager's pool")
        snap = Snapshot(
            regs,
            self._copy(space),
            files.fork_cow() if hasattr(files, "fork_cow") else files,
            parent,
            path,
            fanouts,
            console,
        )
        stats = self.stats
        stats.taken += 1
        stats.live += 1
        stats.peak_live = max(stats.peak_live, stats.live)
        if TRACER.enabled:
            TRACER.emit(
                events.SNAPSHOT_TAKE,
                sid=snap.sid,
                parent=parent.sid if parent is not None else None,
                live=stats.live,
                depth=snap.depth,
            )
        return snap

    def restore(self, snap: Snapshot) -> tuple[Any, AddressSpace, Any]:
        """Materialise a fresh mutable execution state from *snap*.

        Returns ``(regs, space, files)``: the register value (immutable —
        callers copy into their own mutable register file), a mutable COW
        fork of the snapshot's address space, and the snapshot's own file
        table, lent: the caller reads it in place, forks it before its
        first change (:class:`repro.libos.libos.ExecState` does both) and
        never frees it, and the snapshot must outlive the loan.  The
        snapshot itself is untouched and may be restored any number of
        times.

        The restore event records the fresh space's asid: later
        ``mem.cow_fault`` events carry the same asid, which is how a
        trace report attributes COW work back to the restore that
        incurred it.
        """
        if not snap.alive:
            raise SnapshotDiscardedError(snap.sid, "restore")
        space = self._copy(snap.space)
        self.stats.restored += 1
        if TRACER.enabled:
            TRACER.emit(events.SNAPSHOT_RESTORE, sid=snap.sid, asid=space.asid)
        return snap.regs, space, snap.files

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
