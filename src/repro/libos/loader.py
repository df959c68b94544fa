"""Guest program loader.

Maps an assembled :class:`~repro.cpu.assembler.Program` into a fresh
address space the way the Dune sandbox loads an application at ring 3:

* ``.text`` read-execute at the program's text base;
* ``.data`` read-write, followed by a BSS-like scratch area;
* a demand-zero stack below :data:`~repro.mem.layout.STACK_TOP`;
* the heap break initialised at :data:`~repro.mem.layout.HEAP_BASE`
  (grown on demand via the ``brk`` system call).

:func:`memory_map` computes the page-granular segment extents without
building an address space; it is the single source of truth shared by
:func:`load_program` and the static analyzer's memory-bounds checks, so
the two can never disagree about what the loader maps.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cpu.assembler import Program
from repro.cpu.registers import RegisterFile
from repro.mem.addrspace import AddressSpace
from repro.mem.frames import FramePool
from repro.mem.layout import (
    DEFAULT_STACK_PAGES,
    HEAP_BASE,
    MMAP_BASE,
    PAGE_SIZE,
    STACK_TOP,
    page_align_up,
)
from repro.mem.pagetable import Permission


class Segment(NamedTuple):
    """One statically mapped region: ``[lo, hi)`` with *perm*."""

    name: str
    lo: int
    hi: int
    perm: Permission

    def contains(self, addr: int) -> bool:
        return self.lo <= addr < self.hi

    @property
    def writable(self) -> bool:
        return bool(self.perm & Permission.WRITE)


def memory_map(
    program: Program,
    stack_pages: int = DEFAULT_STACK_PAGES,
    bss_pages: int = 16,
) -> list[Segment]:
    """The page-granular segments :func:`load_program` will map."""
    text_len = page_align_up(max(len(program.text), 1))
    data_len = (
        page_align_up(max(len(program.data), 1)) + bss_pages * PAGE_SIZE
    )
    stack_base = STACK_TOP - stack_pages * PAGE_SIZE
    return [
        Segment("text", program.text_base,
                program.text_base + text_len, Permission.RX),
        Segment("data", program.data_base,
                program.data_base + data_len, Permission.RW),
        Segment("stack", stack_base, STACK_TOP, Permission.RW),
    ]


def load_program(
    program: Program,
    pool: FramePool,
    stack_pages: int = DEFAULT_STACK_PAGES,
    bss_pages: int = 16,
) -> tuple[AddressSpace, RegisterFile]:
    """Build the initial address space and register file for *program*.

    Returns ``(space, regs)`` with ``rip`` at the entry point and ``rsp``
    at the stack top.
    """
    space = AddressSpace(pool)
    segments = {
        seg.name: seg for seg in memory_map(program, stack_pages, bss_pages)
    }

    text = segments["text"]
    space.map_region(text.lo, max(len(program.text), 1), Permission.RX,
                     data=program.text or b"\x00")

    data = segments["data"]
    if program.data:
        data_pages = page_align_up(len(program.data))
        space.map_region(data.lo, data_pages, Permission.RW,
                         data=program.data)
        if bss_pages:
            space.map_region(data.lo + data_pages,
                             bss_pages * PAGE_SIZE, Permission.RW)
    else:
        space.map_region(data.lo, data.hi - data.lo, Permission.RW)

    stack = segments["stack"]
    space.map_region(stack.lo, stack.hi - stack.lo, Permission.RW)

    space.set_brk_base(HEAP_BASE)
    space.mmap_next = MMAP_BASE

    regs = RegisterFile()
    regs.rip = program.entry
    regs.rsp = STACK_TOP
    return space, regs
