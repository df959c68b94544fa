"""The naive-fork baseline: eager full copies instead of COW sharing.

§3 dismisses plain ``fork`` for backtracking partly because of "the
large performance overheads of this naive approach".  This manager is a
drop-in replacement for :class:`SnapshotManager` whose take/restore do
an **eager physical copy of every mapped page**, so the E2 experiment
can run the identical engine and guest on both substrates and compare
pages copied, frame footprint, and wall-clock.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.errors import SnapshotDiscardedError
from repro.mem.addrspace import AddressSpace
from repro.snapshot.snapshot import Snapshot, SnapshotManager


class EagerSnapshotManager(SnapshotManager):
    """SnapshotManager with fork-like eager-copy semantics."""

    def take(
        self,
        space: AddressSpace,
        regs: Any = None,
        files: Any = None,
        parent: Optional[Snapshot] = None,
    ) -> Snapshot:
        if space.pool is not self.pool:
            raise ValueError("address space does not belong to this manager's pool")
        frozen_space = space.fork_eager()
        frozen_files = files.fork_cow() if hasattr(files, "fork_cow") else files
        snap = Snapshot(regs, frozen_space, frozen_files, parent)
        self._note_take(snap)
        return snap

    def restore(self, snap: Snapshot) -> tuple[Any, AddressSpace, Any]:
        if not snap.alive:
            raise SnapshotDiscardedError(snap.sid, "restore")
        space = snap.space.fork_eager()
        files = (
            snap.files.fork_cow() if hasattr(snap.files, "fork_cow") else snap.files
        )
        self._note_restore(snap, space)
        return snap.regs, space, files
