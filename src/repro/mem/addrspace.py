"""The mutable, process-facing virtual address space.

An :class:`AddressSpace` combines a persistent page table, a TLB, and the
copy-on-write fault logic.  Guests (and host-side code such as the libOS)
read and write through it with byte-span and integer accessors; every
access goes through translation, so COW faults, demand-zero faults and
locality effects are real consequences of guest behaviour rather than
modelled numbers.

Snapshots are built on :meth:`AddressSpace.fork_cow`, which produces a
logical copy in O(1) by sharing the page-table root.  Demand-zero pages
are implemented as COW mappings of a single pool-wide zero frame, which
unifies the fault path: first write to a fresh page and first write to a
snapshot-shared page take the same copy-on-write route.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional

from repro.mem.faults import (
    AccessKind,
    FaultStats,
    NotMappedError,
    ProtectionError,
)
from repro.mem.frames import Frame, FramePool
from repro.mem.layout import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    is_canonical,
    page_align_up,
)
from repro.mem.pagetable import PageTable, Permission
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER

_as_ids = itertools.count()

#: The permission bit each access needs, as a plain int.
_READ = int(Permission.READ)
_WRITE = int(Permission.WRITE)
_EXEC = int(Permission.EXEC)
_NEEDED_BIT = {
    AccessKind.READ: _READ,
    AccessKind.WRITE: _WRITE,
    AccessKind.EXECUTE: _EXEC,
}
_ACCESS_OF = {bit: access for access, bit in _NEEDED_BIT.items()}


class AddressSpace:
    """A mutable virtual address space with COW fault handling.

    Parameters
    ----------
    pool:
        The physical frame pool backing this address space.  Address
        spaces that should share physical memory (e.g. a parent and its
        snapshots) must share a pool.
    """

    def __init__(self, pool: FramePool, _table: Optional[PageTable] = None):
        self.pool = pool
        self.asid = next(_as_ids)
        self.table = _table if _table is not None else PageTable(pool)
        #: Cached translations, ``vpn -> (frame, perms, writable)``.
        #: ``writable`` is False for a page that must still COW-fault on
        #: write although its PTE grants WRITE (its frame may be shared).
        #: A fork downgrades every entry to read-only and hands the clone
        #: a copy; free empties it.
        self.tlb: dict[int, tuple[Frame, int, bool]] = {}
        #: Pages whose cached translation may be writable (the only ones
        #: a fork has to downgrade).
        self._writable: list[int] = []
        self.faults = FaultStats()
        #: Pages written since the last snapshot point (cleared by the
        #: dirty-eager snapshot manager; maintained on the write-fault
        #: slow path, which every first-write-per-page takes).
        self.dirty_vpns: set[int] = set()
        self._zero_frame: Optional[Frame] = None
        #: Current program break (heap end); managed via :meth:`sbrk`.
        self.brk_base = 0
        self.brk_end = 0
        #: Bump pointer for anonymous mmap regions (grows downward from
        #: the mmap base the libOS configures).
        self.mmap_next = 0
        #: The CPU's code cache for the text mapped here
        #: (``repro.cpu.interpreter.CodeCache``): the loaded program's,
        #: shared with every fork of this space.
        self.code: Any = None
        self._freed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace(asid={self.asid}, pages={self.table.entry_count()})"

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------

    def _zero(self) -> Frame:
        """The shared demand-zero frame (lazily created, never writable)."""
        if self._zero_frame is None:
            self._zero_frame = self.pool.alloc()
        return self._zero_frame

    def map_region(
        self,
        base: int,
        size: int,
        perms: Permission = Permission.RW,
        data: Optional[bytes] = None,
        eager: bool = False,
    ) -> None:
        """Map ``[base, base+size)`` with *perms*.

        Pages are demand-zero (shared zero frame, copied on first write)
        unless *eager* is True or initial *data* is supplied.  *base* must
        be page-aligned; *size* is rounded up to whole pages.
        """
        if base & PAGE_MASK:
            raise ValueError(f"base {base:#x} is not page-aligned")
        if size <= 0:
            raise ValueError("size must be positive")
        if not is_canonical(base) or not is_canonical(base + size - 1):
            raise ValueError("region outside canonical address range")
        if data is not None and len(data) > size:
            raise ValueError("data larger than region")
        npages = page_align_up(size) >> PAGE_SHIFT
        if _TRACER.enabled:
            _TRACER.emit(
                _events.MEM_PAGE_ALLOC,
                asid=self.asid,
                pages=npages,
                kind="data" if data is not None else ("eager" if eager else "zero"),
            )
        first = base >> PAGE_SHIFT

        def frame_of(i: int) -> Frame:
            if data is not None:
                # Initial contents are loaded directly into fresh frames,
                # bypassing permission checks (a loader writing code into
                # an RX region must not trip the write-protect logic).
                frame = self.pool.alloc()
                chunk = data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
                frame.data[: len(chunk)] = chunk
            elif eager:
                frame = self.pool.alloc()
            else:
                frame = self._zero()
                frame.refcount += 1
            self.tlb.pop(first + i, None)
            return frame

        self.table.map_run(first, npages, perms, frame_of)

    def unmap_region(self, base: int, size: int) -> None:
        """Unmap every page intersecting ``[base, base+size)``."""
        if base & PAGE_MASK:
            raise ValueError(f"base {base:#x} is not page-aligned")
        npages = page_align_up(size) >> PAGE_SHIFT
        for i in range(npages):
            vpn = (base >> PAGE_SHIFT) + i
            if self.table.unmap(vpn):
                self.tlb.pop(vpn, None)

    def protect_region(self, base: int, size: int, perms: Permission) -> None:
        """Change permissions for every mapped page in the region."""
        npages = page_align_up(size) >> PAGE_SHIFT
        for i in range(npages):
            vpn = (base >> PAGE_SHIFT) + i
            if self.table.is_mapped(vpn):
                self.table.set_perms(vpn, perms)
                self.tlb.pop(vpn, None)

    def set_brk_base(self, base: int) -> None:
        """Initialise the program break (heap start)."""
        if base & PAGE_MASK:
            raise ValueError("brk base must be page-aligned")
        self.brk_base = base
        self.brk_end = base

    def sbrk(self, delta: int) -> int:
        """Grow (or shrink) the heap by *delta* bytes; returns old break.

        Growth maps demand-zero pages; shrinking unmaps whole pages that
        fall entirely above the new break.
        """
        old_end = self.brk_end
        new_end = old_end + delta
        if new_end < self.brk_base:
            raise ValueError("brk would fall below heap base")
        old_top = page_align_up(old_end)
        new_top = page_align_up(new_end)
        if new_top > old_top:
            self.map_region(old_top, new_top - old_top, Permission.RW)
        elif new_top < old_top:
            self.unmap_region(new_top, old_top - new_top)
        self.brk_end = new_end
        return old_end

    # ------------------------------------------------------------------
    # Translation and fault handling
    # ------------------------------------------------------------------

    def _frame_for(self, vpn: int, needed: int) -> Frame:
        """Translate *vpn* for an access needing permission bit *needed*,
        resolving COW faults.

        Raises :class:`NotMappedError` / :class:`ProtectionError` for
        faults the memory subsystem cannot resolve.
        """
        write = needed == _WRITE
        entry = self.tlb.get(vpn)
        if entry is not None and entry[1] & needed and (not write or entry[2]):
            return entry[0]
        pte = self.table.lookup(vpn)
        if pte is None:
            self.faults.hard_faults += 1
            raise NotMappedError(vpn << PAGE_SHIFT, _ACCESS_OF[needed])
        if not (pte.perms & needed):
            self.faults.hard_faults += 1
            raise ProtectionError(
                vpn << PAGE_SHIFT,
                _ACCESS_OF[needed],
                f"page perms {Permission(pte.perms)!r} lack "
                f"{Permission(needed)!r}",
            )
        if write:
            # Sharing is tracked at *node* granularity (a snapshot shares
            # whole page-table subtrees), so every first write walks the
            # exclusive path; make_private copies shared nodes — which
            # bumps the refcounts of the frames they reference — and then
            # copies the frame itself if it ended up shared.
            self.dirty_vpns.add(vpn)
            old_frame = pte.frame
            pte = self.table.make_private(vpn)
            if pte.frame is not old_frame:
                if old_frame is self._zero_frame:
                    self.faults.demand_zero_faults += 1
                    kind = "zero"
                else:
                    self.faults.cow_faults += 1
                    kind = "cow"
                self.faults.pages_copied += 1
                self.faults.bytes_copied += PAGE_SIZE
                if _TRACER.enabled:
                    _TRACER.emit(
                        _events.MEM_COW_FAULT, asid=self.asid, vpn=vpn, kind=kind
                    )
        # Only a write that ran make_private may cache writability: the
        # read path cannot tell a node-shared frame from an exclusive one.
        self.tlb[vpn] = (pte.frame, pte.perms, write)
        if write:
            self._writable.append(vpn)
        return pte.frame

    # ------------------------------------------------------------------
    # Byte accessors
    # ------------------------------------------------------------------

    def read(self, addr: int, n: int, access: AccessKind = AccessKind.READ) -> bytes:
        """Read *n* bytes starting at *addr* (may span pages)."""
        if n < 0:
            raise ValueError("negative read size")
        needed = _NEEDED_BIT[access]
        out = bytearray()
        while n > 0:
            off = addr & PAGE_MASK
            chunk = min(n, PAGE_SIZE - off)
            frame = self._frame_for(addr >> PAGE_SHIFT, needed)
            out += frame.data[off : off + chunk]
            addr += chunk
            n -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr* (may span pages)."""
        self._copy_in(addr, data)

    def _copy_in(self, addr: int, data: bytes) -> None:
        pos = 0
        n = len(data)
        while pos < n:
            off = addr & PAGE_MASK
            chunk = min(n - pos, PAGE_SIZE - off)
            frame = self._frame_for(addr >> PAGE_SHIFT, _WRITE)
            frame.data[off : off + chunk] = data[pos : pos + chunk]
            addr += chunk
            pos += chunk

    def read_int(self, addr: int, size: int, signed: bool = False) -> int:
        """Read a little-endian integer of *size* bytes."""
        return int.from_bytes(self.read(addr, size), "little", signed=signed)

    def write_int(self, addr: int, value: int, size: int) -> None:
        """Write a little-endian integer of *size* bytes (wraps modulo)."""
        value &= (1 << (8 * size)) - 1
        self.write(addr, value.to_bytes(size, "little"))

    # -- single-page fast paths used by the CPU interpreter -------------
    #
    # These keep the simulator usable at millions of guest memory
    # accesses: a cached translation costs one dict lookup and one slice,
    # skipping the generic span loop.

    def read_word(self, addr: int) -> int:
        """Fast 64-bit little-endian load (falls back across pages)."""
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 8:
            vpn = addr >> PAGE_SHIFT
            entry = self.tlb.get(vpn)
            if entry is not None and entry[1] & _READ:
                data = entry[0].data
            else:
                data = self._frame_for(vpn, _READ).data
            return int.from_bytes(data[off : off + 8], "little")
        return self.read_int(addr, 8)

    def write_word(self, addr: int, value: int) -> None:
        """Fast 64-bit little-endian store (falls back across pages)."""
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 8:
            vpn = addr >> PAGE_SHIFT
            entry = self.tlb.get(vpn)
            if entry is not None and entry[2]:
                data = entry[0].data
            else:
                data = self._frame_for(vpn, _WRITE).data
            data[off : off + 8] = (value & MASK64_).to_bytes(8, "little")
            return
        self.write_int(addr, value, 8)

    def read_byte(self, addr: int) -> int:
        """Fast byte load."""
        vpn = addr >> PAGE_SHIFT
        entry = self.tlb.get(vpn)
        if entry is not None and entry[1] & _READ:
            return entry[0].data[addr & PAGE_MASK]
        return self._frame_for(vpn, _READ).data[addr & PAGE_MASK]

    def write_byte(self, addr: int, value: int) -> None:
        """Fast byte store."""
        vpn = addr >> PAGE_SHIFT
        entry = self.tlb.get(vpn)
        if entry is not None and entry[2]:
            entry[0].data[addr & PAGE_MASK] = value & 0xFF
            return
        self._frame_for(vpn, _WRITE).data[addr & PAGE_MASK] = value & 0xFF

    def read_u8(self, addr: int) -> int:
        return self.read_int(addr, 1)

    def read_u64(self, addr: int) -> int:
        return self.read_int(addr, 8)

    def write_u8(self, addr: int, value: int) -> None:
        self.write_int(addr, value, 1)

    def write_u64(self, addr: int, value: int) -> None:
        self.write_int(addr, value, 8)

    def read_cstr(self, addr: int, max_len: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (NUL not included).

        Translates each page the string reaches once, for READ, and
        looks for the NUL in the frame.  Raises ``ValueError`` if the
        first *max_len* bytes hold no NUL.
        """
        out = bytearray()
        while len(out) < max_len:
            off = addr & PAGE_MASK
            end = off + min(PAGE_SIZE - off, max_len - len(out))
            data = self._frame_for(addr >> PAGE_SHIFT, _READ).data
            nul = data.find(0, off, end)
            if nul >= 0:
                out += data[off:nul]
                return bytes(out)
            out += data[off:end]
            addr += end - off
        raise ValueError("unterminated string")

    def fetch(self, addr: int, n: int) -> bytes:
        """Read *n* bytes for instruction fetch (EXEC permission)."""
        return self.read(addr, n, AccessKind.EXECUTE)

    def fetch_page(self, addr: int) -> bytearray:
        """The bytes of the page holding *addr*, translated once for
        instruction fetch (EXEC permission).  The caller reads them in
        place and never writes them."""
        return self._frame_for(addr >> PAGE_SHIFT, _EXEC).data

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def _clone(self, table: Optional[PageTable] = None) -> "AddressSpace":
        """A new space over *table* that carries this space's brk and mmap
        cursors, so a guest resumed in it allocates where it left off, and
        its code cache."""
        clone = AddressSpace(self.pool, _table=table)
        clone.brk_base = self.brk_base
        clone.brk_end = self.brk_end
        clone.mmap_next = self.mmap_next
        clone.code = self.code
        return clone

    def fork_cow(self) -> "AddressSpace":
        """Create a logical copy of this address space in O(1).

        Both this space and the copy become copy-on-write: the first write
        either side makes to a shared page copies it.  Cached translations
        survive the fork downgraded to read-only (the software equivalent
        of write-protecting the PTEs, which on hardware needs a TLB
        shootdown), so a write through either side still takes the COW
        path while reads and fetches stay warm.  Only the entries written
        since the last fork need downgrading, so forking a space nothing
        wrote through -- a snapshot being restored -- copies its cache
        with one ``dict.copy()``.
        """
        clone = self._clone(self.table.clone())
        clone._zero_frame = self._zero_frame
        tlb = self.tlb
        for vpn in self._writable:
            entry = tlb.get(vpn)
            if entry is not None:
                tlb[vpn] = (entry[0], entry[1], False)
        self._writable.clear()
        clone.tlb = tlb.copy()
        return clone

    def fork_eager(self) -> "AddressSpace":
        """Create a physical copy of this address space in O(pages).

        This is the naive-``fork`` baseline from §3 of the paper: every
        mapped page is duplicated up front.
        """
        clone = self._clone()
        for vpn, pte in self.table.items():
            frame = self.pool.copy(pte.frame)
            clone.table.map(vpn, frame, pte.perms)
        return clone

    def free(self) -> None:
        """Release all frames and page-table nodes held by this space."""
        if self._freed:
            return
        self._freed = True
        self.table.free()
        self.tlb.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def mapped_pages(self) -> int:
        """Number of pages currently mapped."""
        return self.table.entry_count()

    def resident_private_pages(self) -> int:
        """Pages whose frame this space does not share with anyone
        (accounting for page-table node sharing, not just frame refs)."""
        return self.table.private_entry_count()

    def iter_pages(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(base_address, page_bytes)`` for every mapped page."""
        for vpn, pte in self.table.items():
            yield vpn << PAGE_SHIFT, bytes(pte.frame.data)

    def content_equal(self, other: "AddressSpace") -> bool:
        """True if both spaces map the same pages with identical bytes."""
        mine = list(self.table.items())
        theirs = list(other.table.items())
        if len(mine) != len(theirs):
            return False
        for (vpn_a, pte_a), (vpn_b, pte_b) in zip(mine, theirs):
            if vpn_a != vpn_b:
                return False
            if pte_a.frame is not pte_b.frame and pte_a.frame.data != pte_b.frame.data:
                return False
        return True


MASK64_ = (1 << 64) - 1
