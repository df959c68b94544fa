"""Page-at-a-time paths against their byte-by-byte and page-by-page
references: ``read_cstr`` translates each page the string reaches once,
and ``map_region`` walks to each level-0 node once per run of pages."""

import pytest

from repro.mem import AddressSpace, FramePool, NotMappedError, PAGE_SIZE, Permission
from repro.mem.layout import PAGE_SHIFT

BASE = 0x40_0000


def cstr_byte_by_byte(space, addr, max_len=4096):
    """``read_cstr`` as it was: one ``read_u8`` per byte."""
    out = bytearray()
    while len(out) < max_len:
        byte = space.read_u8(addr)
        if byte == 0:
            return bytes(out)
        out.append(byte)
        addr += 1
    raise ValueError("unterminated string")


def cstr_outcome(read, space, addr, max_len):
    try:
        value = read(space, addr, max_len)
    except (NotMappedError, ValueError) as err:
        value = (type(err), str(err), getattr(err, "addr", None))
    return value, space.faults.hard_faults, sorted(space.tlb)


def two_pages(second_mapped, text):
    """*text* ends at the end of the page at BASE; the next page is
    mapped (holding ``b"tail\\0"``) or not."""
    space = AddressSpace(FramePool())
    space.map_region(BASE, PAGE_SIZE, Permission.RW,
                     data=bytes(PAGE_SIZE - len(text)) + text)
    if second_mapped:
        space.map_region(BASE + PAGE_SIZE, PAGE_SIZE, Permission.RW, data=b"tail\x00")
    return space, BASE + PAGE_SIZE - len(text)


@pytest.mark.parametrize("second_mapped", [False, True])
@pytest.mark.parametrize("text,max_len", [
    (b"ends on the last byte\x00", 4096),   # no fault on the next page
    (b"runs into the next page", 4096),     # NotMappedError at its base
    (b"cut off by max_len", 5),
    (b"cut off at the page end", 23),
    (b"cut off after the page end", 25),
    (b"\x00", 4096),
    (b"no bytes allowed", 0),
])
def test_read_cstr_matches_byte_by_byte(second_mapped, text, max_len):
    got = cstr_outcome(AddressSpace.read_cstr, *two_pages(second_mapped, text), max_len)
    want = cstr_outcome(cstr_byte_by_byte, *two_pages(second_mapped, text), max_len)
    assert got == want


def test_read_cstr_faults_at_the_unmapped_page_base():
    space, addr = two_pages(False, b"runs on")
    with pytest.raises(NotMappedError) as err:
        space.read_cstr(addr)
    assert err.value.addr == BASE + PAGE_SIZE
    with pytest.raises(ValueError, match="unterminated"):
        space.read_cstr(addr, max_len=7)


def map_page_by_page(space, base, size, perms=Permission.RW, data=None, eager=False):
    """``map_region``'s page loop as it was: a lookup and a walk from the
    root for every page, in the space's own table."""
    table = space.own_table()
    npages = -(-size // PAGE_SIZE)
    for i in range(npages):
        vpn = (base >> PAGE_SHIFT) + i
        if table.is_mapped(vpn):
            raise ValueError(f"page {vpn << PAGE_SHIFT:#x} already mapped")
        if data is not None:
            frame = space.pool.alloc()
            chunk = data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
            frame.data[: len(chunk)] = chunk
        elif eager:
            frame = space.pool.alloc()
        else:
            frame = space.pool.zero()
            frame.refcount += 1
        table.map(vpn, frame, perms)
        space.tlb.pop(vpn, None)


#: Five pages below a 512-page (level-0 node) boundary.
RUN = (512 * 3 - 5) << PAGE_SHIFT


def state(space, forked):
    """Everything a mapping leaves behind, frames compared by content."""
    return (
        [(vpn, pte.perms, pte.frame.refcount, bytes(pte.frame.data))
         for vpn, pte in space.table.items()],
        [(vpn, pte.frame.refcount) for vpn, pte in forked.table.items()],
        space.table.nodes_copied, space.table.private_entry_count(),
        forked.table.private_entry_count(), sorted(space.tlb),
        space.pool.stats.allocated, space.pool.stats.live,
    )


@pytest.mark.parametrize("kind", ["zero", "eager", "data"])
@pytest.mark.parametrize("clash", [None, 0, 3, 5, 9])
def test_map_region_matches_page_by_page(kind, clash):
    """Across a level-0 boundary, in a forked space (so the walk copies
    shared nodes), with an already-mapped page at *clash* or none."""
    data = bytes(range(256)) * 40 if kind == "data" else None

    def run(mapper):
        space = AddressSpace(FramePool())
        space.map_region(RUN - 8 * PAGE_SIZE, PAGE_SIZE, eager=True)
        if clash is not None:
            space.map_region(RUN + clash * PAGE_SIZE, PAGE_SIZE, data=b"old")
        space.read_byte(RUN - 8 * PAGE_SIZE)  # a cached translation
        forked = space.fork_cow()
        try:
            mapper(space, RUN, 12 * PAGE_SIZE - 100, Permission.RW,
                   data=data, eager=kind == "eager")
            error = None
        except ValueError as err:
            error = str(err)
        return error, state(space, forked)

    got = run(AddressSpace.map_region)
    assert got == run(map_page_by_page)
    assert (got[0] is None) == (clash is None)
