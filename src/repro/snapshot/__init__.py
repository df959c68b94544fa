"""Lightweight immutable execution snapshots.

The paper's central abstraction: a snapshot is the combination of an
immutable register file, an immutable logical copy of an entire address
space, and immutable logical copies of open files (§3.1).  Snapshots form
a tree (each has an immutable relationship with its parent) and are
designed to be taken and restored at very high frequency.

* :class:`Snapshot` -- one immutable partial candidate: the frozen state
  plus the guess's path, fan-outs, console and pin count.
* :class:`SnapshotManager` -- takes, restores and discards snapshots
  against a shared frame pool, with full accounting.
* :class:`SnapshotTree` -- pin counting and pruning over the snapshots'
  own parent/children links.
"""

from repro.snapshot.snapshot import Snapshot, SnapshotManager, SnapshotStats
from repro.snapshot.tree import SnapshotTree

__all__ = ["Snapshot", "SnapshotManager", "SnapshotStats", "SnapshotTree"]
