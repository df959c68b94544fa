"""Property-based tests: COW address spaces behave like independent
byte-array copies, and frame accounting never leaks.

The model: every logical address space (original or fork) is simulated by
a plain ``bytearray``.  After any interleaving of writes and forks, every
space must read back exactly its own model's bytes — i.e. copy-on-write is
observationally equivalent to eager copying.  Every cached translation
must also agree with the page table, since forks keep them.  A fork
shares its parent's page table and translation cache until its first
change, so spaces that share a table must share its cache, a writable
translation may sit only in a cache its space holds alone, and no live
space may read a table that was freed.  Two seeded mutants -- a write
fault that skips the unshare, and a free that releases a table another
space still shares -- must make the machine fail.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission, ProtectionError
from repro.mem.layout import LEVELS
from repro.mem.pagetable import _index_at

BASE = 0x40_0000
REGION_PAGES = 8
REGION_SIZE = REGION_PAGES * PAGE_SIZE


def path_nodes(table, vpn):
    """The radix nodes from *table*'s root down to *vpn*'s leaf node."""
    node = table._root
    nodes = [node]
    for level in range(LEVELS - 1, 0, -1):
        node = node.entries[_index_at(vpn, level)]
        nodes.append(node)
    return nodes


def assert_translations_match(space):
    """Every cached translation names the frame and permission bits the
    page table maps, and a writable one is exclusively owned: its frame
    and every node on its path have refcount 1."""
    for vpn, (frame, perms, writable) in space.tlb.items():
        pte = space.table.lookup(vpn)
        assert pte is not None, f"stale translation of unmapped {vpn:#x}"
        assert pte.frame is frame, f"translation of {vpn:#x} names another frame"
        assert pte.perms == perms, f"translation of {vpn:#x} has stale perms"
        if writable:
            assert frame.refcount == 1, f"writable {vpn:#x} maps a shared frame"
            assert [n.refcount for n in path_nodes(space.table, vpn)] == (
                [1] * LEVELS), f"writable {vpn:#x} sits under a shared node"


def assert_table_held(space):
    """A live space's page table was not freed under it."""
    assert space.table._root is not None, f"space {space.asid} holds a freed table"


def assert_sharing_sound(space, live):
    """Among the *live* spaces, those that share *space*'s page table are
    exactly those that share its translation cache, and if there are
    others, the cache holds no writable translation."""
    holders = [s for s in live if s.table is space.table]
    assert holders == [s for s in live if s.tlb is space.tlb], (
        "spaces share a page table without its cache, or the reverse")
    if len(holders) > 1:
        assert not any(w for _frame, _perms, w in space.tlb.values()), (
            f"a cache {len(holders)} spaces share holds a writable translation")


offsets = st.integers(min_value=0, max_value=REGION_SIZE - 1)
word_offsets = st.integers(min_value=0, max_value=REGION_SIZE - 8)
pages = st.integers(min_value=0, max_value=REGION_PAGES - 1)
spaces = st.integers(min_value=0, max_value=63)


class CowEquivalence(RuleBasedStateMachine):
    """Random accesses, region changes, forks and frees over a family of
    spaces vs byte models (the region is the heap, grown by ``sbrk``)."""

    def __init__(self):
        super().__init__()
        self.pool = FramePool()
        self.spaces = []
        self.models = []
        #: Per space: the region's pages currently protected read-only.
        self.readonly = []

    @initialize()
    def setup(self):
        space = AddressSpace(self.pool)
        space.set_brk_base(BASE)
        space.sbrk(REGION_SIZE)
        self.spaces = [space]
        self.models = [bytearray(REGION_SIZE)]
        self.readonly = [set()]

    def live(self, idx):
        """Index of space *idx* (mod the family), or None once freed."""
        i = idx % len(self.spaces)
        return i if self.spaces[i] is not None else None

    def store(self, i, offset, data, op):
        """Run *op*, a store of *data* at *offset* in space *i*: it stops
        with a protection fault at the first read-only page it reaches,
        after the bytes before that page have landed."""
        end = offset + len(data)
        touched = range(offset // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1)
        blocked = [p for p in touched if p in self.readonly[i]]
        if blocked:
            with pytest.raises(ProtectionError):
                op()
            end = max(offset, blocked[0] * PAGE_SIZE)
        else:
            op()
        self.models[i][offset:end] = data[: end - offset]

    @rule(idx=spaces, offset=offsets, data=st.binary(min_size=1, max_size=300))
    def write(self, idx, offset, data):
        i = self.live(idx)
        if i is None:
            return
        data = data[: REGION_SIZE - offset]
        self.store(i, offset, data,
                   lambda: self.spaces[i].write(BASE + offset, data))

    @rule(idx=spaces, offset=word_offsets,
          value=st.integers(min_value=0, max_value=2**64 - 1))
    def write_word(self, idx, offset, value):
        i = self.live(idx)
        if i is None:
            return
        self.store(i, offset, value.to_bytes(8, "little"),
                   lambda: self.spaces[i].write_word(BASE + offset, value))

    @rule(idx=spaces, offset=offsets, value=st.integers(0, 255))
    def write_byte(self, idx, offset, value):
        i = self.live(idx)
        if i is None:
            return
        self.store(i, offset, bytes([value]),
                   lambda: self.spaces[i].write_byte(BASE + offset, value))

    @rule(idx=spaces, offset=word_offsets)
    def read_word(self, idx, offset):
        i = self.live(idx)
        if i is None:
            return
        want = int.from_bytes(self.models[i][offset : offset + 8], "little")
        assert self.spaces[i].read_word(BASE + offset) == want

    @rule(idx=spaces, offset=offsets)
    def read_byte(self, idx, offset):
        i = self.live(idx)
        if i is None:
            return
        assert self.spaces[i].read_byte(BASE + offset) == self.models[i][offset]

    @rule(idx=spaces, page=pages)
    def remap(self, idx, page):
        i = self.live(idx)
        if i is None:
            return
        addr = BASE + page * PAGE_SIZE
        self.spaces[i].unmap_region(addr, PAGE_SIZE)
        self.spaces[i].map_region(addr, PAGE_SIZE, Permission.RW)
        off = page * PAGE_SIZE
        self.models[i][off : off + PAGE_SIZE] = bytes(PAGE_SIZE)
        self.readonly[i].discard(page)

    @rule(idx=spaces, page=pages)
    def protect_readonly(self, idx, page):
        i = self.live(idx)
        if i is None:
            return
        self.spaces[i].protect_region(BASE + page * PAGE_SIZE, PAGE_SIZE,
                                      Permission.READ)
        self.readonly[i].add(page)

    @rule(idx=spaces, page=pages)
    def protect_writable(self, idx, page):
        i = self.live(idx)
        if i is None:
            return
        self.spaces[i].protect_region(BASE + page * PAGE_SIZE, PAGE_SIZE,
                                      Permission.RW)
        self.readonly[i].discard(page)

    @rule(idx=spaces, count=st.integers(min_value=1, max_value=3))
    def shrink_and_grow(self, idx, count):
        i = self.live(idx)
        if i is None:
            return
        space = self.spaces[i]
        space.sbrk(-count * PAGE_SIZE)
        space.sbrk(count * PAGE_SIZE)
        top = REGION_SIZE - count * PAGE_SIZE
        self.models[i][top:] = bytes(REGION_SIZE - top)
        self.readonly[i] -= set(range(REGION_PAGES - count, REGION_PAGES))

    @rule(idx=spaces)
    def fork(self, idx):
        i = self.live(idx)
        if i is None or len(self.spaces) >= 12:
            return
        self.spaces.append(self.spaces[i].fork_cow())
        self.models.append(bytearray(self.models[i]))
        self.readonly.append(set(self.readonly[i]))

    @rule(idx=spaces)
    def free(self, idx):
        i = self.live(idx)
        if i is None or sum(s is not None for s in self.spaces) <= 1:
            return
        self.spaces[i].free()
        self.spaces[i] = None
        self.models[i] = None

    @invariant()
    def reads_match_models(self):
        for space, model in zip(self.spaces, self.models):
            if space is None:
                continue
            assert_table_held(space)
            # Check a few whole pages rather than the full region per step.
            for page in (0, REGION_PAGES // 2, REGION_PAGES - 1):
                off = page * PAGE_SIZE
                assert space.read(BASE + off, PAGE_SIZE) == bytes(
                    model[off : off + PAGE_SIZE]
                )

    @invariant()
    def translations_match_page_tables(self):
        live = [s for s in self.spaces if s is not None]
        for space in live:
            assert_table_held(space)
            assert_translations_match(space)
            assert_sharing_sound(space, live)

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


# -- seeded mutants: the machine must catch each -------------------------


def write_fault_without_unshare(monkeypatch):
    """Mutant: a write fault changes the table a fork still shares."""
    frame_for = AddressSpace._frame_for

    def mutant(self, vpn, needed):
        self.own_table = lambda: self.table
        try:
            return frame_for(self, vpn, needed)
        finally:
            del self.own_table

    monkeypatch.setattr(AddressSpace, "_frame_for", mutant)


def free_releasing_a_shared_table(monkeypatch):
    """Mutant: a free releases the table although a fork still holds it."""

    def mutant(self):
        if self._freed:
            return
        self._freed = True
        self._share.count -= 1
        self.table.free()
        self.tlb.clear()

    monkeypatch.setattr(AddressSpace, "free", mutant)


@pytest.mark.parametrize(
    "seed_mutant", [write_fault_without_unshare, free_releasing_a_shared_table])
def test_the_machine_catches_a_seeded_mutant(seed_mutant, monkeypatch):
    seed_mutant(monkeypatch)
    with pytest.raises(AssertionError):
        # No shrinking: finding the failure is the point, not its minimum.
        run_state_machine_as_test(CowEquivalence, settings=settings(
            max_examples=200, stateful_step_count=30, deadline=None,
            database=None, derandomize=True, phases=[Phase.generate],
        ))


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
