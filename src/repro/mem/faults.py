"""Page-fault exception types and fault accounting.

In the paper's architecture the libOS handles page faults taken by guest
code at ring 3 (Figure 2); the dominant fault type is the copy-on-write
fault that preserves the immutability of the parent snapshot.  We model
faults as exceptions raised by the translation path and resolved (for COW
and demand-zero) inside :class:`repro.mem.addrspace.AddressSpace`, with
unresolvable faults propagating to the VMM as VM exits.
"""

from __future__ import annotations

import enum


class AccessKind(enum.Enum):
    """The kind of memory access that triggered a fault."""

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"


class PageFaultError(Exception):
    """Base class for page faults that the memory subsystem cannot resolve.

    Faults of this type escape the address space and are reflected to the
    caller (the CPU interpreter turns them into VM exits; the libOS decides
    whether to kill the offending extension).
    """

    def __init__(self, addr: int, access: AccessKind, detail: str = ""):
        self.addr = addr
        self.access = access
        self.detail = detail
        super().__init__(
            f"page fault at {addr:#x} on {access.value}"
            + (f": {detail}" if detail else "")
        )


class NotMappedError(PageFaultError):
    """Access to a virtual page with no mapping at all."""


class ProtectionError(PageFaultError):
    """Access violating the page's permission bits (e.g. write to RO)."""


_FAULT_FIELDS = (
    "cow_faults",
    "demand_zero_faults",
    "hard_faults",
    "pages_copied",
    "bytes_copied",
)


class FaultStats:
    """Counters for fault activity in one address space.

    ``cow_faults`` and ``demand_zero_faults`` are *resolved* internally;
    ``hard_faults`` escaped to the caller.  ``pages_copied`` /
    ``bytes_copied`` measure the physical work done by copy-on-write,
    which is the paper's key cost metric for snapshot maintenance (the
    page-table nodes copied on the way are
    :attr:`repro.mem.pagetable.PageTable.nodes_copied`).

    A plain record of ints: one is built per address space, on every
    snapshot take and restore, so it holds no registry.
    """

    __slots__ = _FAULT_FIELDS

    def __init__(
        self,
        cow_faults: int = 0,
        demand_zero_faults: int = 0,
        hard_faults: int = 0,
        pages_copied: int = 0,
        bytes_copied: int = 0,
    ):
        self.cow_faults = cow_faults
        self.demand_zero_faults = demand_zero_faults
        self.hard_faults = hard_faults
        self.pages_copied = pages_copied
        self.bytes_copied = bytes_copied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{name}={getattr(self, name)}" for name in _FAULT_FIELDS)
        return f"FaultStats({body})"
