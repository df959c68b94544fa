"""Stateful property test for pin counting and pruning.

Random interleavings of take (under a live parent or none), pin, unpin,
restore-write-free and discard run against a small reference model of
the snapshot tree.  After every step:

* a snapshot is live exactly when it was taken and not discarded;
* the tree discards a snapshot exactly when its pins reach zero while it
  has no live child, and the discard cascades up to its parent;
* pins never go negative, and ``stats.pruned`` counts the model's prunes;
* no live snapshot's ``children`` holds a discarded snapshot -- the shape
  of Silhouette's NOVA bug 8 (SNIPPETS.md: traversing snapshots fails
  after a snapshot is removed).

Teardown unpins everything; then nothing is live and the pool holds only
the base space's frames.  Two seeded mutants of ``unpin`` -- a prune that
ignores live children and an unpin that does not cascade -- must make
the machine fail.
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

from repro.mem import AddressSpace, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager, SnapshotTree

BASE = 0x40_0000
PAGES = 4


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

    @initialize()
    def setup(self):
        self.manager = SnapshotManager()
        self.tree = self.tree_class(self.manager)
        self.base = AddressSpace(self.manager.pool)
        self.base.map_region(BASE, PAGES * PAGE_SIZE, Permission.RW)
        self.base.write(BASE, b"base")
        self.base_frames = self.manager.pool.live_frames
        self.snaps = []
        self.model = PinModel()

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
            snap = self.manager.take(self.base)
        else:
            _regs, space, _files = self.manager.restore(parent)
            space.write(BASE + page * PAGE_SIZE, bytes([len(self.snaps)]))
            snap = self.manager.take(space, parent=parent)
            space.free()
        self.snaps.append(snap)
        self.model.take(snap.sid, parent.sid if parent is not None else None)

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

    def teardown(self):
        if not hasattr(self, "snaps"):
            return
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
            max_examples=200, stateful_step_count=30, deadline=None,
            database=None, derandomize=True, phases=[Phase.generate],
        ))
