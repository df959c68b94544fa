"""Stateful property test for pin counting and pruning.

Random interleavings of take (under a live parent or none), pin, unpin,
restore-write-free and discard run against a small reference model of
the snapshot tree.  Restored spaces can also be kept across later steps,
written and snapshotted again, the way the symbolic-execution backend
takes, restores n times and discards: a restored space holds its
snapshot's page table until its first change, so ``unpin`` and
``discard`` can prune a snapshot whose table a kept space still holds.
After every step:

* a snapshot is live exactly when it was taken and not discarded;
* the tree discards a snapshot exactly when its pins reach zero while it
  has no live child, and the discard cascades up to its parent;
* pins never go negative, and ``stats.pruned`` counts the model's prunes;
* no live snapshot's ``children`` holds a discarded snapshot -- the shape
  of Silhouette's NOVA bug 8 (SNIPPETS.md: traversing snapshots fails
  after a snapshot is removed);
* every live snapshot maps the frames it mapped at its take and reads
  the bytes it held then, whatever its restored spaces wrote; every kept
  space reads its own writes and no sibling's; and no live snapshot or
  kept space maps a freed frame.

Teardown frees the kept spaces and unpins everything; then nothing is
live and the pool holds only the base space's frames.  The machine also
runs over the dirty-eager manager, whose restore privatises pages
behind the restored space.  Two seeded mutants of ``unpin`` -- a prune
that ignores live children and an unpin that does not cascade -- must
make the machine fail.
"""

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.baselines.dirty import DirtyEagerSnapshotManager
from repro.mem import AddressSpace, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager, SnapshotTree

BASE = 0x40_0000
PAGES = 4
SIZE = PAGES * PAGE_SIZE
#: At most this many restored spaces are kept at once.
KEPT = 6


def frames_of(space):
    """The frames *space*'s page table maps, by page."""
    return [(vpn, pte.frame) for vpn, pte in space.table.items()]


class PinModel:
    """What the tree must have done: liveness, pins and prunes."""

    def __init__(self):
        self.parent = {}   # sid -> parent sid or None
        self.pins = {}     # sid -> pin count
        self.live = set()  # sids taken and not discarded
        self.prunes = 0

    def take(self, sid, parent):
        self.parent[sid] = parent
        self.pins[sid] = 0
        self.live.add(sid)

    def live_children(self, sid):
        return {c for c in self.live if self.parent[c] == sid}

    def unpin(self, sid):
        self.pins[sid] = max(self.pins[sid] - 1, 0)
        while (sid is not None and sid in self.live
               and not self.pins[sid] and not self.live_children(sid)):
            self.live.discard(sid)
            self.prunes += 1
            sid = self.parent[sid]


class PinPruneMachine(RuleBasedStateMachine):
    tree_class = SnapshotTree
    manager_class = SnapshotManager

    @initialize()
    def setup(self):
        self.manager = self.manager_class()
        self.tree = self.tree_class(self.manager)
        self.base = AddressSpace(self.manager.pool)
        self.base.map_region(BASE, SIZE, Permission.RW)
        self.base.write(BASE, b"base")
        self.base_frames = self.manager.pool.live_frames
        self.snaps = []
        self.model = PinModel()
        #: sid -> (the bytes, the frames) the snapshot held at its take.
        self.taken = {}
        #: Restored spaces kept across steps, with their byte models.
        self.kept = []

    def _take(self, space, parent=None):
        image = (space.read(BASE, SIZE), frames_of(space))
        snap = self.manager.take(space, parent=parent)
        self.taken[snap.sid] = image
        self.snaps.append(snap)
        self.model.take(snap.sid, parent.sid if parent is not None else None)
        return snap

    def _live(self, idx):
        live = [s for s in self.snaps if s.alive]
        return live[idx % len(live)] if live else None

    @rule(idx=st.integers(0, 63), under_parent=st.booleans(),
          page=st.integers(0, PAGES - 1))
    def take(self, idx, under_parent, page):
        """Under a parent, as the stepper does: restore it, run (write
        one page), take, free the running state."""
        if len(self.snaps) >= 12:
            return
        parent = self._live(idx) if under_parent else None
        if parent is None:
            self._take(self.base)
        else:
            _regs, space, _files = self.manager.restore(parent)
            space.write(BASE + page * PAGE_SIZE, bytes([len(self.snaps)]))
            self._take(space, parent)
            space.free()

    @rule(idx=st.integers(0, 63), count=st.integers(1, 3))
    def pin(self, idx, count):
        snap = self._live(idx)
        if snap is not None:
            self.tree.pin(snap, count)
            self.model.pins[snap.sid] += count

    @rule(idx=st.integers(0, 63))
    def unpin(self, idx):
        snap = self._live(idx)
        if snap is not None:
            self.tree.unpin(snap)
            self.model.unpin(snap.sid)

    @rule(idx=st.integers(0, 63), page=st.integers(0, PAGES - 1))
    def restore_write_free(self, idx, page):
        snap = self._live(idx)
        if snap is not None:
            _regs, space, _files = self.manager.restore(snap)
            space.write(BASE + page * PAGE_SIZE, b"written")
            space.free()

    @rule(idx=st.integers(0, 63))
    def restore_and_keep(self, idx):
        snap = self._live(idx)
        if snap is not None and len(self.kept) < KEPT:
            _regs, space, _files = self.manager.restore(snap)
            self.kept.append((space, bytearray(self.taken[snap.sid][0])))

    @rule(idx=st.integers(0, 63), offset=st.integers(0, SIZE - 1),
          data=st.binary(min_size=1, max_size=64))
    def write_kept(self, idx, offset, data):
        if self.kept:
            space, model = self.kept[idx % len(self.kept)]
            data = data[: SIZE - offset]
            space.write(BASE + offset, data)
            model[offset : offset + len(data)] = data

    @rule(idx=st.integers(0, 63))
    def take_from_kept(self, idx):
        """The caller keeps its space: it may write on after the take."""
        if self.kept and len(self.snaps) < 12:
            self._take(self.kept[idx % len(self.kept)][0])

    @rule(idx=st.integers(0, 63))
    def free_kept(self, idx):
        if self.kept:
            space, _model = self.kept.pop(idx % len(self.kept))
            space.free()

    @rule(idx=st.integers(0, 63))
    def discard(self, idx):
        snap = self._live(idx)
        if snap is not None:
            self.manager.discard(snap)
            self.model.live.discard(snap.sid)

    @invariant()
    def tree_matches_the_model(self):
        model = self.model
        for snap in self.snaps:
            assert snap.alive == (snap.sid in model.live), snap
            assert snap.pins >= 0
            if snap.alive:
                assert snap.pins == model.pins[snap.sid]
                assert all(child.alive for child in snap.children)
                assert {c.sid for c in snap.children} == model.live_children(snap.sid)
        stats = self.manager.stats
        assert stats.pruned == model.prunes
        assert stats.live == len(model.live)

    @invariant()
    def snapshots_keep_what_they_took(self):
        for snap in self.snaps:
            if snap.alive:
                data, frames = self.taken[snap.sid]
                assert frames_of(snap.space) == frames, "a snapshot's table changed"
                assert snap.space.read(BASE, SIZE) == data

    @invariant()
    def kept_spaces_read_their_own_writes(self):
        for space, model in self.kept:
            assert space.read(BASE, SIZE) == model

    @invariant()
    def no_live_space_maps_a_freed_frame(self):
        live = [s.space for s in self.snaps if s.alive]
        for space in live + [space for space, _model in self.kept]:
            assert all(frame.refcount > 0 for _vpn, frame in frames_of(space))

    def teardown(self):
        if not hasattr(self, "snaps"):
            return
        for space, _model in self.kept:
            space.free()
        # Children were taken after their parents: unpin newest first.
        for snap in reversed(self.snaps):
            while snap.alive:
                self.tree.unpin(snap)
        assert self.manager.stats.live == 0
        assert self.manager.pool.live_frames == self.base_frames
        self.base.free()


PinPruneMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestPinPrune = PinPruneMachine.TestCase


class DirtyEagerPinPruneMachine(PinPruneMachine):
    manager_class = DirtyEagerSnapshotManager


DirtyEagerPinPruneMachine.TestCase.settings = PinPruneMachine.TestCase.settings
TestDirtyEagerPinPrune = DirtyEagerPinPruneMachine.TestCase


# -- seeded mutants: the machine must catch each -------------------------


class PruneIgnoringChildren(SnapshotTree):
    """Mutant: prunes a snapshot whose children are still live."""

    def unpin(self, snap):
        snap.pins = max(snap.pins - 1, 0)
        while snap is not None and snap.alive and not snap.pins:
            parent = snap.parent
            self.manager.discard(snap)
            self.manager.stats.pruned += 1
            snap = parent


class UnpinWithoutCascade(SnapshotTree):
    """Mutant: prunes the unpinned snapshot but never its parent."""

    def unpin(self, snap):
        snap.pins = max(snap.pins - 1, 0)
        if snap.alive and not snap.children and not snap.pins:
            self.manager.discard(snap)
            self.manager.stats.pruned += 1


@pytest.mark.parametrize("mutant", [PruneIgnoringChildren, UnpinWithoutCascade])
def test_the_machine_catches_a_seeded_mutant(mutant):
    machine = type("Mutant", (PinPruneMachine,), {"tree_class": mutant})
    with pytest.raises(AssertionError):
        # No shrinking: finding the failure is the point, not its minimum.
        run_state_machine_as_test(machine, settings=settings(
            max_examples=200, stateful_step_count=50, deadline=None,
            database=None, derandomize=True, phases=[Phase.generate],
        ))
