"""The naive-fork baseline: eager full copies instead of COW sharing.

§3 dismisses plain ``fork`` for backtracking partly because of "the
large performance overheads of this naive approach".  This manager is a
drop-in replacement for :class:`SnapshotManager` whose take/restore do
an **eager physical copy of every mapped page**, so the E2 experiment
can run the identical engine and guest on both substrates and compare
pages copied, frame footprint, and wall-clock.
"""

from __future__ import annotations

from repro.mem.addrspace import AddressSpace
from repro.snapshot.snapshot import SnapshotManager


class EagerSnapshotManager(SnapshotManager):
    """SnapshotManager with fork-like eager-copy semantics."""

    def _copy(self, space: AddressSpace) -> AddressSpace:
        return space.fork_eager()
