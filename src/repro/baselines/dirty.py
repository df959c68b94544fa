"""Dirty-set-eager snapshotting (the DESIGN.md §5 granularity ablation).

Two ways to preserve a snapshot's immutability against an extension's
writes:

* **fault-per-page COW** (the default :class:`SnapshotManager`): restore
  shares everything; the extension's first write to each page takes a
  fault and copies it — pay only for what is *actually* rewritten;
* **eager copy of the dirty set** (this manager): the snapshot records
  which pages its creator had dirtied since the previous snapshot point
  (its working set); every restore pre-copies exactly those pages into
  the child, predicting that the child will rewrite them.

For loop-shaped guests that rewrite the same working set every step the
prediction is perfect — the same pages get copied, just up front, with
no fault handling.  For search guests whose extensions mostly fail
before writing much, the prediction overcopies.  The X2 ablation
benchmark quantifies both regimes.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mem.addrspace import AddressSpace
from repro.mem.layout import PAGE_SIZE
from repro.snapshot.snapshot import Snapshot, SnapshotManager


class DirtyEagerSnapshotManager(SnapshotManager):
    """Snapshot manager that pre-copies the recorded dirty set on restore."""

    def __init__(self, pool=None):
        super().__init__(pool)
        #: Pages privatised eagerly at restore time (vs on a later fault).
        self.eager_copies = 0
        #: Snapshot id -> the working set its creator had dirtied.
        self.dirty: dict[int, frozenset[int]] = {}

    def take(
        self,
        space: AddressSpace,
        regs: Any = None,
        files: Any = None,
        parent: Optional[Snapshot] = None,
        **guess: Any,
    ) -> Snapshot:
        snap = super().take(space, regs=regs, files=files, parent=parent,
                            **guess)
        # Record the creator's working set; children will likely rewrite
        # exactly these pages.
        self.dirty[snap.sid] = frozenset(space.dirty_vpns)
        space.dirty_vpns.clear()
        return snap

    def restore(self, snap: Snapshot) -> tuple[Any, AddressSpace, Any]:
        regs, space, files = super().restore(snap)
        # The restored space holds the snapshot's table until it changes
        # it: privatising behind the space takes its own table first.
        table = space.own_table()
        for vpn in self.dirty[snap.sid]:
            pte = table.lookup(vpn)
            if pte is None:
                continue
            before = pte.frame
            fresh = table.make_private(vpn)
            if fresh.frame is not before:
                # Privatised behind the translation cache: drop the
                # restored entry, which still names the shared frame.
                space.tlb.pop(vpn, None)
                self.eager_copies += 1
                space.faults.pages_copied += 1
                space.faults.bytes_copied += PAGE_SIZE
                space.dirty_vpns.add(vpn)
        return regs, space, files

    def discard(self, snap: Snapshot) -> None:
        super().discard(snap)
        del self.dirty[snap.sid]
