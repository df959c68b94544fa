"""Simulated virtual-memory subsystem.

This package stands in for the x86 MMU + nested page tables that the paper
builds on via Dune.  It provides:

* :mod:`repro.mem.layout` -- page-size and address-space layout constants;
* :mod:`repro.mem.frames` -- reference-counted physical frames and the
  global frame pool (simulated physical memory);
* :mod:`repro.mem.pagetable` -- a persistent 4-level radix page table with
  structural sharing, the data structure that makes snapshot creation O(1);
* :mod:`repro.mem.addrspace` -- :class:`AddressSpace`, the mutable
  process-facing view with copy-on-write fault handling and a
  translation cache that every fork downgrades to read-only and every
  free empties;
* :mod:`repro.mem.faults` -- page-fault exception types and statistics.

The cost model is explicit: every copy-on-write fault, copied page-table
node, and copied frame is counted, so benchmarks can report simulated cost
(pages copied, faults taken) alongside Python wall-clock.
"""

from repro.mem.addrspace import AddressSpace
from repro.mem.faults import (
    AccessKind,
    NotMappedError,
    PageFaultError,
    ProtectionError,
)
from repro.mem.frames import Frame, FramePool
from repro.mem.layout import (
    CODE_BASE,
    DATA_BASE,
    HEAP_BASE,
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    STACK_TOP,
    page_align_down,
    page_align_up,
)
from repro.mem.pagetable import PageTable, Permission

__all__ = [
    "AccessKind",
    "AddressSpace",
    "CODE_BASE",
    "DATA_BASE",
    "Frame",
    "FramePool",
    "HEAP_BASE",
    "NotMappedError",
    "PAGE_MASK",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PageFaultError",
    "PageTable",
    "Permission",
    "ProtectionError",
    "STACK_TOP",
    "page_align_down",
    "page_align_up",
]
