"""Tests for hand-coded, eager-fork and checkpoint baselines."""

import pytest

from repro.baselines import (
    Checkpointer,
    EagerSnapshotManager,
    handcoded_nqueens_boards,
    handcoded_nqueens_count,
)
from repro.baselines.handcoded import handcoded_search
from repro.core.machine import MachineEngine
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.workloads.nqueens import (
    KNOWN_SOLUTION_COUNTS,
    boards_from_result,
    nqueens_asm,
)
from tests.mem.test_properties import assert_translations_match

BASE = 0x40_0000


class TestHandcoded:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_counts(self, n):
        assert handcoded_nqueens_count(n) == KNOWN_SOLUTION_COUNTS[n]

    def test_boards_match_machine_engine(self):
        result = MachineEngine().run(nqueens_asm(6))
        assert sorted(handcoded_nqueens_boards(6)) == sorted(
            boards_from_result(result)
        )

    def test_generic_search(self):
        # 3-digit strings with no repeated adjacent digit, base 3.
        count = handcoded_search(
            fanout=lambda prefix: 3,
            check=lambda p: len(p) < 2 or p[-1] != p[-2],
            depth=3,
        )
        assert count == 3 * 2 * 2

    def test_generic_search_collects_solutions(self):
        seen = []
        handcoded_search(lambda p: 2, lambda p: True, 2, on_solution=seen.append)
        assert sorted(seen) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestEagerManager:
    def test_take_copies_all_frames(self):
        mgr = EagerSnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 8 * PAGE_SIZE, Permission.RW, eager=True)
        live = mgr.pool.live_frames
        mgr.take(space)
        assert mgr.pool.live_frames == live + 8

    def test_restore_copies_again(self):
        mgr = EagerSnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 4 * PAGE_SIZE, Permission.RW, eager=True)
        snap = mgr.take(space)
        live = mgr.pool.live_frames
        _, restored, _ = mgr.restore(snap)
        assert mgr.pool.live_frames == live + 4
        restored.write(BASE, b"x")
        assert snap.space.read(BASE, 1) == b"\x00"

    def test_engine_parity_with_cow(self):
        cow = MachineEngine(snapshot_mode="cow").run(nqueens_asm(4))
        eager = MachineEngine(snapshot_mode="eager").run(nqueens_asm(4))
        assert sorted(boards_from_result(cow)) == sorted(boards_from_result(eager))

    def test_eager_copies_dominate_cow(self):
        cow = MachineEngine(snapshot_mode="cow").run(nqueens_asm(5))
        eager = MachineEngine(snapshot_mode="eager").run(nqueens_asm(5))
        assert (
            eager.stats.extra["frames_copied"]
            > 10 * cow.stats.extra["frames_copied"]
        )
        assert (
            eager.stats.extra["frames_peak"] > cow.stats.extra["frames_peak"]
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="snapshot_mode"):
            MachineEngine(snapshot_mode="magic")


class TestDirtyEagerManager:
    def test_engine_parity_with_cow(self):
        cow = MachineEngine(snapshot_mode="cow").run(nqueens_asm(4))
        dirty = MachineEngine(snapshot_mode="dirty-eager").run(nqueens_asm(4))
        assert sorted(boards_from_result(cow)) == sorted(
            boards_from_result(dirty)
        )

    def test_restore_precopies_recorded_dirty_set(self):
        from repro.baselines.dirty import DirtyEagerSnapshotManager

        mgr = DirtyEagerSnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 8 * PAGE_SIZE, Permission.RW)
        space.write(BASE, b"dirty")
        space.write(BASE + 3 * PAGE_SIZE, b"dirty")
        snap = mgr.take(space)
        assert mgr.dirty[snap.sid] == {BASE >> 12, (BASE >> 12) + 3}
        assert space.dirty_vpns == set()
        before = mgr.eager_copies
        _, child, _ = mgr.restore(snap)
        assert mgr.eager_copies == before + 2
        # The pre-copied pages are immediately writable without faults.
        faults_before = child.faults.cow_faults
        child.write(BASE, b"x")
        assert child.faults.cow_faults == faults_before

    def test_restore_counts_precopied_bytes(self):
        from repro.baselines.dirty import DirtyEagerSnapshotManager

        mgr = DirtyEagerSnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 4 * PAGE_SIZE, Permission.RW)
        space.write(BASE, b"dirty")
        space.write(BASE + 2 * PAGE_SIZE, b"dirty")
        _, child, _ = mgr.restore(mgr.take(space))
        assert child.faults.pages_copied == 2
        assert child.faults.bytes_copied == 2 * PAGE_SIZE

    def test_restore_drops_translations_of_precopied_pages(self):
        from repro.baselines.dirty import DirtyEagerSnapshotManager

        mgr = DirtyEagerSnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 4 * PAGE_SIZE, Permission.RW)
        for page in range(4):
            space.write(BASE + page * PAGE_SIZE, b"dirty")
            assert space.read(BASE + page * PAGE_SIZE, 5) == b"dirty"
        _, child, _ = mgr.restore(mgr.take(space))
        # The restore kept the snapshot's translations; the pages it
        # privatised must not be served from the snapshot's frames.
        assert_translations_match(child)
        child.write_byte(BASE, ord("D"))
        assert child.read(BASE, 5) == b"Dirty"

    def test_snapshot_still_immutable(self):
        from repro.baselines.dirty import DirtyEagerSnapshotManager

        mgr = DirtyEagerSnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 2 * PAGE_SIZE, Permission.RW)
        space.write(BASE, b"orig")
        snap = mgr.take(space)
        _, child, _ = mgr.restore(snap)
        child.write(BASE, b"DIFF")
        assert snap.space.read(BASE, 4) == b"orig"

    def test_dirty_tracking_in_addrspace(self):
        pool = FramePool()
        space = AddressSpace(pool)
        space.map_region(BASE, 4 * PAGE_SIZE, Permission.RW)
        space.write(BASE + PAGE_SIZE, b"x")
        space.write(BASE + PAGE_SIZE + 1, b"y")  # same page: one entry
        assert space.dirty_vpns == {(BASE >> 12) + 1}


class TestCheckpointer:
    def make_space(self, pool):
        space = AddressSpace(pool)
        space.map_region(BASE, 2 * PAGE_SIZE, Permission.RX, data=b"CODE")
        space.map_region(0x60_0000, 2 * PAGE_SIZE, Permission.RW, data=b"DATA")
        return space

    def test_roundtrip_preserves_content_and_perms(self):
        pool = FramePool()
        ck = Checkpointer()
        space = self.make_space(pool)
        restored = ck.restore(ck.checkpoint(space), pool)
        assert restored.read(BASE, 4) == b"CODE"
        assert restored.read(0x60_0000, 4) == b"DATA"
        assert restored.table.lookup(BASE >> 12).perms == Permission.RX
        assert space.content_equal(restored)

    def test_blob_size_proportional_to_image(self):
        pool = FramePool()
        ck = Checkpointer()
        space = self.make_space(pool)
        blob = ck.checkpoint(space)
        assert len(blob) >= 4 * PAGE_SIZE

    def test_restore_is_independent_copy(self):
        pool = FramePool()
        ck = Checkpointer()
        space = self.make_space(pool)
        restored = ck.restore(ck.checkpoint(space), pool)
        restored.write(0x60_0000, b"diff")
        assert space.read(0x60_0000, 4) == b"DATA"

    def test_bad_blob_rejected(self):
        ck = Checkpointer()
        with pytest.raises(ValueError):
            ck.restore(b"nope", FramePool())

    def test_truncated_blob_rejected(self):
        pool = FramePool()
        ck = Checkpointer()
        blob = ck.checkpoint(self.make_space(pool))
        with pytest.raises(Exception):
            ck.restore(blob[:-10], FramePool())

    def test_stats(self):
        pool = FramePool()
        ck = Checkpointer()
        blob = ck.checkpoint(self.make_space(pool))
        ck.restore(blob, pool)
        assert ck.stats.checkpoints == 1
        assert ck.stats.restores == 1
        assert ck.stats.bytes_serialized == len(blob)
