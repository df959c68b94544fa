"""Unit tests for SnapshotTree bookkeeping and pruning."""

import pytest

from repro.mem import AddressSpace, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager, SnapshotTree

BASE = 0x40_0000


@pytest.fixture
def mgr():
    return SnapshotManager()


@pytest.fixture
def space(mgr):
    s = AddressSpace(mgr.pool)
    s.map_region(BASE, 4 * PAGE_SIZE, Permission.RW)
    return s


def build_chain(mgr, space, depth):
    snaps = []
    parent = None
    for _ in range(depth):
        snap = mgr.take(space, parent=parent)
        snaps.append(snap)
        parent = snap
    return snaps


class TestStructure:
    """The tree is the snapshots' own parent/children links."""

    def test_first_parentless_snapshot_is_root(self, mgr, space):
        root = mgr.take(space)
        child = mgr.take(space, parent=root)
        assert root.parent is None and root.depth == 0
        assert child.parent is root and root.children == [child]

    def test_walk_preorder(self, mgr, space):
        root = mgr.take(space)
        a = mgr.take(space, parent=root)
        b = mgr.take(space, parent=root)
        aa = mgr.take(space, parent=a)
        order, stack = [], [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(node.children))
        assert order == [root, a, aa, b]

    def test_max_depth(self, mgr, space):
        snaps = build_chain(mgr, space, 5)
        assert [s.depth for s in snaps] == [0, 1, 2, 3, 4]


class TestPinning:
    def test_unpin_to_zero_prunes_leaf(self, mgr, space):
        tree = SnapshotTree(mgr)
        snap = mgr.take(space)
        tree.pin(snap, 2)
        tree.unpin(snap)
        assert snap.alive
        tree.unpin(snap)
        assert not snap.alive
        assert mgr.stats.live == 0

    def test_prune_cascades_to_parent(self, mgr, space):
        tree = SnapshotTree(mgr)
        parent = mgr.take(space)
        tree.pin(parent, 1)
        child = mgr.take(space, parent=parent)
        tree.pin(child, 1)
        # Parent's only pending work was creating the child.
        tree.unpin(parent)
        assert parent.alive  # still has a live child
        tree.unpin(child)
        assert not child.alive
        assert not parent.alive  # cascaded

    def test_pinned_parent_survives_child_pruning(self, mgr, space):
        tree = SnapshotTree(mgr)
        parent = mgr.take(space)
        tree.pin(parent, 2)
        child = mgr.take(space, parent=parent)
        tree.pin(child, 1)
        tree.unpin(child)
        assert not child.alive
        assert parent.alive
        tree.unpin(parent)
        tree.unpin(parent)
        assert not parent.alive

    def test_pruning_frees_frames(self, mgr, space):
        tree = SnapshotTree(mgr)
        space.write(BASE, b"x")
        snap = mgr.take(space)
        tree.pin(snap, 1)
        space.write(BASE, b"y")  # snapshot's page becomes private
        live = mgr.pool.live_frames
        tree.unpin(snap)
        assert mgr.pool.live_frames == live - 1

    def test_pins_live_on_the_snapshot(self, mgr, space):
        tree = SnapshotTree(mgr)
        snap = mgr.take(space)
        assert snap.pins == 0
        tree.pin(snap, 3)
        tree.unpin(snap)
        assert snap.pins == 2
        # The tree keeps no state: another one over the manager agrees.
        other = SnapshotTree(mgr)
        other.unpin(snap)
        other.unpin(snap)
        assert snap.pins == 0 and not snap.alive

    def test_unpin_never_goes_negative(self, mgr, space):
        tree = SnapshotTree(mgr)
        parent = mgr.take(space)
        child = mgr.take(space, parent=parent)
        tree.unpin(parent)  # nothing pinned it; its live child keeps it
        assert parent.pins == 0 and parent.alive
        tree.unpin(child)
        assert child.pins == 0
        assert not child.alive and not parent.alive
        assert mgr.stats.pruned == 2

    def test_prune_cascade_waits_for_every_child(self, mgr, space):
        tree = SnapshotTree(mgr)
        root = mgr.take(space)
        tree.pin(root, 2)
        a = mgr.take(space, parent=root)
        b = mgr.take(space, parent=root)
        tree.pin(a, 1)
        tree.pin(b, 1)
        tree.unpin(root)
        tree.unpin(root)
        tree.unpin(a)
        assert not a.alive and root.alive and root.children == [b]
        tree.unpin(b)
        assert not b.alive and not root.alive
        assert mgr.stats.live == 0 and mgr.stats.pruned == 3
