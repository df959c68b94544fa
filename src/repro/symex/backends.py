"""State-forking backends for the symbolic explorer.

The comparison at the heart of E4 (§2): S2E implements state forking by
"snapshotting in software all QEMU data structures", emulating
copy-on-write *inside the emulator* — which requires interposing on every
memory write; system-level lightweight snapshots get the same effect from
the virtual-memory subsystem, with no per-write instrumentation and O(1)
fork cost.

Both backends expose the same tiny interface (read/write/fork/release of
concrete guest memory); the symbolic overlay, registers and constraints
live in :class:`SymState` and are copied identically, so any measured
difference is the forking substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.mem.addrspace import AddressSpace
from repro.mem.frames import FramePool
from repro.mem.layout import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.mem.pagetable import Permission
from repro.snapshot.snapshot import SnapshotManager
from repro.symex.expr import Expr
from repro.symex.solver import PathConstraints


class SymState:
    """One symbolic execution state (a partial candidate, per §3.2)."""

    __slots__ = (
        "regs", "rip", "flags", "overlay", "constraints", "mem",
        "depth", "steps", "sid",
    )

    _ids = iter(range(1, 1 << 30))

    def __init__(self, regs, rip, flags, overlay, constraints, mem, depth=0):
        self.regs: list = regs
        self.rip: int = rip
        #: Either None or a pending ("cmp"|"test", lhs, rhs) record.
        self.flags = flags
        #: (addr, size) -> Expr for symbolic memory bytes.
        self.overlay: dict[tuple[int, int], Expr] = overlay
        self.constraints: PathConstraints = constraints
        self.mem: Any = mem  # backend-specific concrete memory handle
        self.depth = depth
        self.steps = 0
        self.sid = next(SymState._ids)


@dataclass
class BackendStats:
    """Forking-substrate cost counters."""

    forks: int = 0
    #: Writes the backend had to interpose on in software (the S2E-style
    #: per-write tax; zero for the snapshot backend).
    instrumented_writes: int = 0
    #: Pages physically copied by either COW mechanism.
    pages_copied: int = 0
    #: Work units spent *at fork time* (pages share-marked for software
    #: COW; constant ~1 for snapshots).  This is the O(state) vs O(1)
    #: distinction the paper claims.
    fork_work: int = 0
    states_released: int = 0


class SnapshotBackend:
    """Fork via lightweight snapshots (this paper's design).

    Guest memory is an :class:`AddressSpace`; writes go straight through
    the MMU (no engine-level interposition) and forking shares the page
    table in O(1).
    """

    name = "snapshot"

    def __init__(self) -> None:
        self.manager = SnapshotManager()
        self.pool: FramePool = self.manager.pool
        self.stats = BackendStats()

    def new_memory(self) -> AddressSpace:
        return AddressSpace(self.pool)

    def map_region(self, mem: AddressSpace, base: int, size: int,
                   data: Optional[bytes] = None) -> None:
        mem.map_region(base, size, Permission.RW, data=data)

    def read(self, mem: AddressSpace, addr: int, size: int) -> int:
        return mem.read_int(addr, size)

    def write(self, mem: AddressSpace, addr: int, value: int, size: int) -> None:
        before = mem.faults.pages_copied
        mem.write_int(addr, value, size)
        self.stats.pages_copied += mem.faults.pages_copied - before

    def fork(self, state: SymState, n: int = 2) -> list[SymState]:
        """O(1) per child: take a snapshot, restore n times."""
        self.stats.forks += 1
        self.stats.fork_work += 1
        snap = self.manager.take(state.mem)
        children = []
        for _ in range(n):
            _regs, space, _files = self.manager.restore(snap)
            children.append(
                SymState(
                    list(state.regs), state.rip, state.flags,
                    dict(state.overlay), state.constraints, space,
                    depth=state.depth + 1,
                )
            )
        self.manager.discard(snap)
        state.mem.free()
        return children

    def release(self, state: SymState) -> None:
        self.stats.states_released += 1
        state.mem.free()

    def footprint_pages(self) -> int:
        return self.pool.live_frames


class _SWPage:
    """A software-COW page: data plus a share count the engine must
    maintain by hand (the 'tricked into doing the right thing' layer)."""

    __slots__ = ("data", "refcount")

    def __init__(self, data: Optional[bytearray] = None):
        self.data = data if data is not None else bytearray(PAGE_SIZE)
        self.refcount = 1


class SWMemory:
    """Concrete guest memory for the software-COW backend."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages: dict[int, _SWPage] = {}


class SWCowBackend:
    """Fork via engine-level software COW (the S2E status quo).

    Every write is interposed on in software to maintain the share
    counts; every fork walks the whole page dictionary to mark pages
    shared — O(state size), the cost §2 says "multiple (relatively fat)
    software layers" impose.
    """

    name = "swcow"

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._live_pages = 0

    def new_memory(self) -> SWMemory:
        return SWMemory()

    def map_region(self, mem: SWMemory, base: int, size: int,
                   data: Optional[bytes] = None) -> None:
        if base & PAGE_MASK:
            raise ValueError("base must be page-aligned")
        npages = (size + PAGE_SIZE - 1) >> PAGE_SHIFT
        for i in range(npages):
            page = _SWPage()
            if data is not None:
                chunk = data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
                page.data[: len(chunk)] = chunk
            mem.pages[(base >> PAGE_SHIFT) + i] = page
            self._live_pages += 1

    def read(self, mem: SWMemory, addr: int, size: int) -> int:
        out = 0
        for i in range(size):
            byte_addr = addr + i
            page = mem.pages.get(byte_addr >> PAGE_SHIFT)
            if page is None:
                raise KeyError(f"unmapped address {byte_addr:#x}")
            out |= page.data[byte_addr & PAGE_MASK] << (8 * i)
        return out

    def write(self, mem: SWMemory, addr: int, value: int, size: int) -> None:
        value &= (1 << (8 * size)) - 1
        for i in range(size):
            byte_addr = addr + i
            vpn = byte_addr >> PAGE_SHIFT
            page = mem.pages.get(vpn)
            if page is None:
                raise KeyError(f"unmapped address {byte_addr:#x}")
            # The software-COW tax: every write checks the share count.
            self.stats.instrumented_writes += 1
            if page.refcount > 1:
                fresh = _SWPage(bytearray(page.data))
                page.refcount -= 1
                mem.pages[vpn] = fresh
                page = fresh
                self.stats.pages_copied += 1
                self._live_pages += 1
            page.data[byte_addr & PAGE_MASK] = (value >> (8 * i)) & 0xFF

    def fork(self, state: SymState, n: int = 2) -> list[SymState]:
        """O(pages) per fork: every page must be share-marked."""
        self.stats.forks += 1
        children = []
        for _ in range(n):
            clone = SWMemory()
            for vpn, page in state.mem.pages.items():
                page.refcount += 1
                clone.pages[vpn] = page
                self.stats.fork_work += 1
            children.append(
                SymState(
                    list(state.regs), state.rip, state.flags,
                    dict(state.overlay), state.constraints, clone,
                    depth=state.depth + 1,
                )
            )
        self.release(state)
        return children

    def release(self, state: SymState) -> None:
        self.stats.states_released += 1
        for page in state.mem.pages.values():
            page.refcount -= 1
            if page.refcount == 0:
                self._live_pages -= 1
        state.mem.pages.clear()

    def footprint_pages(self) -> int:
        return self._live_pages
