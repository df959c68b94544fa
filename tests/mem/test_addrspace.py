"""Unit tests for AddressSpace: regions, accessors, COW, brk."""

import pytest

from repro.mem import (
    AccessKind,
    AddressSpace,
    FramePool,
    NotMappedError,
    PAGE_SIZE,
    Permission,
    ProtectionError,
)

BASE = 0x40_0000


@pytest.fixture
def pool():
    return FramePool()


@pytest.fixture
def space(pool):
    s = AddressSpace(pool)
    s.map_region(BASE, 16 * PAGE_SIZE, Permission.RW)
    return s


class TestRegions:
    def test_map_requires_alignment(self, pool):
        s = AddressSpace(pool)
        with pytest.raises(ValueError, match="aligned"):
            s.map_region(BASE + 1, PAGE_SIZE)

    def test_double_map_rejected(self, space):
        with pytest.raises(ValueError, match="already mapped"):
            space.map_region(BASE, PAGE_SIZE)

    def test_size_rounds_up(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, 100)
        assert s.mapped_pages() == 1

    def test_map_with_data(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, PAGE_SIZE, data=b"hello")
        assert s.read(BASE, 5) == b"hello"

    def test_unmap_region(self, space):
        space.unmap_region(BASE, 4 * PAGE_SIZE)
        assert space.mapped_pages() == 12
        with pytest.raises(NotMappedError):
            space.read(BASE, 1)

    def test_demand_zero_reads_as_zero(self, space):
        assert space.read(BASE, 64) == bytes(64)

    def test_demand_zero_costs_no_private_frames(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, 100 * PAGE_SIZE)
        # All 100 pages share the single zero frame.
        assert pool.live_frames == 1
        assert s.resident_private_pages() == 0

    def test_first_write_allocates(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, 4 * PAGE_SIZE)
        s.write_u64(BASE, 7)
        assert s.faults.demand_zero_faults == 1
        assert s.resident_private_pages() == 1


class TestAccessors:
    def test_write_read_roundtrip(self, space):
        space.write(BASE + 10, b"abcdef")
        assert space.read(BASE + 10, 6) == b"abcdef"

    def test_cross_page_span(self, space):
        addr = BASE + PAGE_SIZE - 3
        space.write(addr, b"123456")
        assert space.read(addr, 6) == b"123456"

    def test_int_roundtrip(self, space):
        space.write_int(BASE, 0xDEADBEEF_CAFEBABE, 8)
        assert space.read_int(BASE, 8) == 0xDEADBEEF_CAFEBABE

    def test_signed_int(self, space):
        space.write_int(BASE, -5, 8)
        assert space.read_int(BASE, 8, signed=True) == -5

    def test_int_wraps_modulo(self, space):
        space.write_int(BASE, 0x1FF, 1)
        assert space.read_u8(BASE) == 0xFF

    def test_cstr(self, space):
        space.write(BASE, b"hello\x00world")
        assert space.read_cstr(BASE) == b"hello"

    def test_cstr_unterminated(self, space):
        space.write(BASE, b"x" * 32)
        with pytest.raises(ValueError, match="unterminated"):
            space.read_cstr(BASE, max_len=16)

    def test_read_unmapped_faults(self, pool):
        s = AddressSpace(pool)
        with pytest.raises(NotMappedError):
            s.read(0x1234, 1)

    def test_write_to_readonly_faults(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, PAGE_SIZE, Permission.READ)
        with pytest.raises(ProtectionError):
            s.write(BASE, b"x")

    def test_exec_requires_x(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, PAGE_SIZE, Permission.RW)
        with pytest.raises(ProtectionError):
            s.fetch(BASE, 4)

    def test_fetch_on_rx(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, PAGE_SIZE, Permission.RX, data=b"\x90\x90")
        assert s.fetch(BASE, 2) == b"\x90\x90"


class TestBrk:
    def test_sbrk_grows(self, pool):
        s = AddressSpace(pool)
        s.set_brk_base(0x1000_0000)
        old = s.sbrk(10 * PAGE_SIZE)
        assert old == 0x1000_0000
        s.write_u64(0x1000_0000, 1)
        s.write_u64(0x1000_0000 + 10 * PAGE_SIZE - 8, 2)

    def test_sbrk_shrinks(self, pool):
        s = AddressSpace(pool)
        s.set_brk_base(0x1000_0000)
        s.sbrk(10 * PAGE_SIZE)
        s.sbrk(-9 * PAGE_SIZE)
        with pytest.raises(NotMappedError):
            s.read(0x1000_0000 + 2 * PAGE_SIZE, 1)

    def test_sbrk_below_base_rejected(self, pool):
        s = AddressSpace(pool)
        s.set_brk_base(0x1000_0000)
        with pytest.raises(ValueError):
            s.sbrk(-PAGE_SIZE)

    def test_unaligned_growth(self, pool):
        s = AddressSpace(pool)
        s.set_brk_base(0x1000_0000)
        s.sbrk(100)
        s.sbrk(100)
        assert s.brk_end == 0x1000_0000 + 200
        assert s.mapped_pages() == 1


class TestForkCow:
    def test_fork_sees_parent_data(self, space):
        space.write(BASE, b"parent")
        child = space.fork_cow()
        assert child.read(BASE, 6) == b"parent"

    def test_child_write_invisible_to_parent(self, space):
        space.write(BASE, b"parent")
        child = space.fork_cow()
        child.write(BASE, b"child!")
        assert space.read(BASE, 6) == b"parent"
        assert child.read(BASE, 6) == b"child!"

    def test_parent_write_invisible_to_child(self, space):
        space.write(BASE, b"parent")
        child = space.fork_cow()
        space.write(BASE, b"mutate")
        assert child.read(BASE, 6) == b"parent"

    def test_fork_is_cheap_in_frames(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, 64 * PAGE_SIZE, eager=True)
        live = pool.live_frames
        s.fork_cow()
        assert pool.live_frames == live

    def test_cow_fault_counted_once_per_page(self, space):
        space.write(BASE, b"x")  # privatise page 0 (demand-zero fault)
        child = space.fork_cow()
        before = child.faults.cow_faults
        child.write(BASE, b"a")
        child.write(BASE + 1, b"b")  # same page: no second fault
        assert child.faults.cow_faults == before + 1

    def test_tlb_flushed_on_fork(self, space):
        # Each write caches a writable translation of its page.  The fork
        # must downgrade them all to read-only, or the parent's next write
        # through the cache would land on the frame it now shares with
        # the clone.
        pages = [BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE]
        space.write(pages[0], b"x")
        space.write_word(pages[1], 0x78)
        space.write_byte(pages[2], 0x78)
        clone = space.fork_cow()
        space.write(pages[0], b"y")
        space.write_word(pages[1], 0x79)
        space.write_byte(pages[2], 0x79)
        assert [clone.read_byte(p) for p in pages] == [0x78] * 3
        assert [space.read_byte(p) for p in pages] == [0x79] * 3

    def test_fork_preserves_brk(self, pool):
        s = AddressSpace(pool)
        s.set_brk_base(0x1000_0000)
        s.sbrk(PAGE_SIZE)
        child = s.fork_cow()
        assert child.brk_end == s.brk_end

    def test_content_equal(self, space):
        space.write(BASE, b"data")
        child = space.fork_cow()
        assert space.content_equal(child)
        child.write(BASE, b"DIFF")
        assert not space.content_equal(child)


class TestForkEager:
    def test_eager_copies_all_frames(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, 8 * PAGE_SIZE, eager=True)
        live = pool.live_frames
        s.fork_eager()
        assert pool.live_frames == live + 8

    def test_eager_clone_independent(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, PAGE_SIZE, data=b"orig")
        clone = s.fork_eager()
        clone.write(BASE, b"diff")
        assert s.read(BASE, 4) == b"orig"


class TestFree:
    def test_free_releases_everything(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, 8 * PAGE_SIZE, eager=True)
        s.free()
        assert pool.live_frames == 0

    def test_free_idempotent(self, space):
        space.free()
        space.free()

    def test_free_parent_keeps_child_working(self, pool):
        s = AddressSpace(pool)
        s.map_region(BASE, PAGE_SIZE, data=b"keep")
        child = s.fork_cow()
        s.free()
        assert child.read(BASE, 4) == b"keep"


class TestStats:
    def test_stats_shape(self, space):
        space.write(BASE, b"x")
        assert space.mapped_pages() == 16
        assert space.faults.demand_zero_faults == 1
        assert space.faults.pages_copied == 1
        assert space.faults.bytes_copied == PAGE_SIZE
