"""Property-based tests: COW address spaces behave like independent
byte-array copies, and frame accounting never leaks.

The model: every logical address space (original or fork) is simulated by
a plain ``bytearray``.  After any interleaving of writes and forks, every
space must read back exactly its own model's bytes — i.e. copy-on-write is
observationally equivalent to eager copying.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission

BASE = 0x40_0000
REGION_PAGES = 8
REGION_SIZE = REGION_PAGES * PAGE_SIZE


class CowEquivalence(RuleBasedStateMachine):
    """Random writes/forks/frees over a family of spaces vs byte models."""

    def __init__(self):
        super().__init__()
        self.pool = FramePool()
        self.spaces = []
        self.models = []

    @initialize()
    def setup(self):
        space = AddressSpace(self.pool)
        space.map_region(BASE, REGION_SIZE, Permission.RW)
        self.spaces = [space]
        self.models = [bytearray(REGION_SIZE)]

    @rule(
        idx=st.integers(min_value=0, max_value=63),
        offset=st.integers(min_value=0, max_value=REGION_SIZE - 1),
        data=st.binary(min_size=1, max_size=300),
    )
    def write(self, idx, offset, data):
        i = idx % len(self.spaces)
        if self.spaces[i] is None:
            return
        data = data[: REGION_SIZE - offset]
        self.spaces[i].write(BASE + offset, data)
        self.models[i][offset : offset + len(data)] = data

    @rule(idx=st.integers(min_value=0, max_value=63))
    def fork(self, idx):
        if len(self.spaces) >= 12:
            return
        i = idx % len(self.spaces)
        if self.spaces[i] is None:
            return
        self.spaces.append(self.spaces[i].fork_cow())
        self.models.append(bytearray(self.models[i]))

    @rule(idx=st.integers(min_value=0, max_value=63))
    def free(self, idx):
        i = idx % len(self.spaces)
        live = [s for s in self.spaces if s is not None]
        if self.spaces[i] is None or len(live) <= 1:
            return
        self.spaces[i].free()
        self.spaces[i] = None
        self.models[i] = None

    @invariant()
    def reads_match_models(self):
        for space, model in zip(self.spaces, self.models):
            if space is None:
                continue
            # Check a few whole pages rather than the full region per step.
            for page in (0, REGION_PAGES // 2, REGION_PAGES - 1):
                off = page * PAGE_SIZE
                assert space.read(BASE + off, PAGE_SIZE) == bytes(
                    model[off : off + PAGE_SIZE]
                )

    @invariant()
    def frame_accounting_sane(self):
        live = self.pool.live_frames
        # Upper bound: one zero frame + one private frame per page per space.
        spaces = sum(1 for s in self.spaces if s is not None)
        assert 0 <= live <= 1 + spaces * REGION_PAGES

    def teardown(self):
        for space in self.spaces:
            if space is not None:
                space.free()
        # Only the shared demand-zero frame may remain.
        assert self.pool.live_frames <= 1


CowEquivalence.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestCowEquivalence = CowEquivalence.TestCase


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=REGION_SIZE - 9),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_u64_roundtrip_many(writes):
    pool = FramePool()
    space = AddressSpace(pool)
    space.map_region(BASE, REGION_SIZE, Permission.RW)
    expected = {}
    for offset, value in writes:
        space.write_u64(BASE + offset, value)
        expected[offset] = value
    # Later overlapping writes win; only check non-overlapped survivors.
    for offset, value in writes:
        if all(o == offset or abs(o - offset) >= 8 for o in expected):
            assert space.read_u64(BASE + offset) == expected[offset]


@given(n_forks=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_sibling_isolation(n_forks, seed):
    """Each sibling fork writes its own tag; no sibling sees another's."""
    import random

    rng = random.Random(seed)
    pool = FramePool()
    parent = AddressSpace(pool)
    parent.map_region(BASE, REGION_SIZE, Permission.RW)
    parent.write(BASE, b"\x00" * 64)
    kids = [parent.fork_cow() for _ in range(n_forks)]
    offsets = [rng.randrange(REGION_SIZE - 1) for _ in kids]
    for i, (kid, off) in enumerate(zip(kids, offsets)):
        kid.write_u8(BASE + off, i + 1)
    for i, (kid, off) in enumerate(zip(kids, offsets)):
        assert kid.read_u8(BASE + off) == i + 1
        assert parent.read_u8(BASE + off) == 0
