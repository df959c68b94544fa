"""Unit tests for Snapshot and SnapshotManager."""

import pytest

from repro.core.errors import SnapshotDiscardedError
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager

BASE = 0x40_0000


@pytest.fixture
def mgr():
    return SnapshotManager()


@pytest.fixture
def space(mgr):
    s = AddressSpace(mgr.pool)
    s.map_region(BASE, 8 * PAGE_SIZE, Permission.RW)
    return s


class TestTake:
    def test_take_returns_live_snapshot(self, mgr, space):
        snap = mgr.take(space, regs={"rip": 1})
        assert snap.alive
        assert snap.regs == {"rip": 1}

    def test_take_is_frame_free(self, mgr, space):
        space.write(BASE, b"x" * PAGE_SIZE)
        live = mgr.pool.live_frames
        mgr.take(space)
        assert mgr.pool.live_frames == live

    def test_take_links_parent(self, mgr, space):
        parent = mgr.take(space)
        child = mgr.take(space, parent=parent)
        assert child.parent is parent
        assert child in parent.children
        assert child.depth == parent.depth + 1

    def test_take_records_the_guess(self, mgr, space):
        bare = mgr.take(space)
        assert (bare.path, bare.fanouts, bare.console, bare.pins) == ((), (), None, 0)
        console = object()
        snap = mgr.take(space, parent=bare, path=(1, 0), fanouts=(2, 3, 4),
                        console=console)
        assert snap.path == (1, 0) and snap.fanouts == (2, 3, 4)
        assert snap.console is console and snap.pins == 0

    def test_foreign_pool_rejected(self, mgr):
        other = AddressSpace(FramePool())
        with pytest.raises(ValueError, match="pool"):
            mgr.take(other)

    def test_stats(self, mgr, space):
        mgr.take(space)
        mgr.take(space)
        assert mgr.stats.taken == 2
        assert mgr.stats.live == 2
        assert mgr.stats.peak_live == 2


class TestImmutability:
    def test_later_writes_invisible_to_snapshot(self, mgr, space):
        space.write(BASE, b"before")
        snap = mgr.take(space)
        space.write(BASE, b"AFTER!")
        assert snap.space.read(BASE, 6) == b"before"

    def test_restore_write_invisible_to_snapshot(self, mgr, space):
        space.write(BASE, b"before")
        snap = mgr.take(space)
        _, restored, _ = mgr.restore(snap)
        restored.write(BASE, b"child!")
        assert snap.space.read(BASE, 6) == b"before"

    def test_sibling_restores_isolated(self, mgr, space):
        snap = mgr.take(space)
        _, a, _ = mgr.restore(snap)
        _, b, _ = mgr.restore(snap)
        a.write(BASE, b"AAAA")
        b.write(BASE, b"BBBB")
        assert a.read(BASE, 4) == b"AAAA"
        assert b.read(BASE, 4) == b"BBBB"


class TestRestore:
    def test_restore_returns_regs_and_fork(self, mgr, space):
        space.write(BASE, b"state")
        snap = mgr.take(space, regs=(1, 2, 3), files="F")
        regs, restored, files = mgr.restore(snap)
        assert regs == (1, 2, 3)
        assert files == "F"
        assert restored.read(BASE, 5) == b"state"

    def test_restore_many_times(self, mgr, space):
        space.write(BASE, b"v0")
        snap = mgr.take(space)
        for _ in range(10):
            _, r, _ = mgr.restore(snap)
            assert r.read(BASE, 2) == b"v0"
        assert mgr.stats.restored == 10

    def test_restore_discarded_raises(self, mgr, space):
        snap = mgr.take(space)
        mgr.discard(snap)
        with pytest.raises(ValueError, match="discarded"):
            mgr.restore(snap)

    def test_restore_discarded_raises_typed_error(self, mgr, space):
        snap = mgr.take(space)
        mgr.discard(snap)
        with pytest.raises(SnapshotDiscardedError) as excinfo:
            mgr.restore(snap)
        assert excinfo.value.sid == snap.sid
        assert excinfo.value.operation == "restore"

    def test_restore_is_frame_free_until_write(self, mgr, space):
        space.write(BASE, b"x" * (4 * PAGE_SIZE))
        snap = mgr.take(space)
        live = mgr.pool.live_frames
        _, restored, _ = mgr.restore(snap)
        assert mgr.pool.live_frames == live
        restored.write(BASE, b"y")
        assert mgr.pool.live_frames == live + 1


class TestDiscard:
    def test_discard_frees_private_frames(self, mgr, space):
        snap = mgr.take(space)
        _, r, _ = mgr.restore(snap)
        r.write(BASE, b"dirty" * 100)
        child = mgr.take(r, parent=snap)
        live = mgr.pool.live_frames
        mgr.discard(child)
        # Child shared everything with r; nothing private to free.
        assert mgr.pool.live_frames == live
        r.free()

    def test_double_discard_raises_typed_error(self, mgr, space):
        snap = mgr.take(space)
        mgr.discard(snap)
        with pytest.raises(SnapshotDiscardedError) as excinfo:
            mgr.discard(snap)
        assert excinfo.value.sid == snap.sid
        assert excinfo.value.operation == "discard"
        # The failed discard must not corrupt the lifecycle counters.
        assert mgr.stats.discarded == 1
        assert mgr.stats.live == 0

    def test_double_discard_error_is_a_value_error(self, mgr, space):
        # Compatibility: pre-typed-error callers caught ValueError.
        snap = mgr.take(space)
        mgr.discard(snap)
        with pytest.raises(ValueError, match="discarded"):
            mgr.discard(snap)

    def test_discard_detaches_from_parent(self, mgr, space):
        parent = mgr.take(space)
        child = mgr.take(space, parent=parent)
        mgr.discard(child)
        assert child not in parent.children

    def test_children_survive_parent_discard(self, mgr, space):
        space.write(BASE, b"keep")
        parent = mgr.take(space)
        child = mgr.take(space, parent=parent)
        mgr.discard(parent)
        assert child.space.read(BASE, 4) == b"keep"


class TestAncestry:
    """What a snapshot shares with its relatives."""

    def test_private_pages_counts_unshared(self, mgr, space):
        space.write(BASE, b"x")
        snap = mgr.take(space)
        # The snapshot shares its single dirty page with `space`.
        assert snap.space.resident_private_pages() == 0
        space.write(BASE, b"y")  # space privatises; snapshot's copy now exclusive
        assert snap.space.resident_private_pages() == 1
