"""libckpt-style checkpointing (the §6 related-work contrast).

"Lightweight, immutable snapshots are a form of checkpointing [14].
However, our approach differs in that [...] snapshots are designed to
both take and restore with very high frequency."  A classic checkpoint
serialises the entire image to a flat byte blob and restores by
rebuilding the address space page by page — O(image size) both ways,
regardless of how little changed.  E6 measures that against O(1) COW
snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.addrspace import AddressSpace
from repro.mem.frames import FramePool
from repro.mem.layout import PAGE_SHIFT, PAGE_SIZE
from repro.mem.pagetable import Permission

_MAGIC = b"CKPT"
#: Serialized page record: 8-byte vpn, 2-byte perms, PAGE_SIZE data.
_HEADER = 4 + 8


@dataclass
class CkptStats:
    checkpoints: int = 0
    restores: int = 0
    bytes_serialized: int = 0
    bytes_restored: int = 0


class Checkpointer:
    """Serialise/rebuild whole address spaces."""

    def __init__(self) -> None:
        self.stats = CkptStats()

    def checkpoint(self, space: AddressSpace) -> bytes:
        """Serialise every mapped page (data and permissions) to a blob."""
        out = bytearray(_MAGIC)
        count = 0
        for vpn, pte in space.table.items():
            out += vpn.to_bytes(8, "little")
            out += int(pte.perms).to_bytes(2, "little")
            out += pte.frame.data
            count += 1
        out[4:4] = count.to_bytes(8, "little")
        self.stats.checkpoints += 1
        self.stats.bytes_serialized += len(out)
        return bytes(out)

    def restore(self, blob: bytes, pool: FramePool) -> AddressSpace:
        """Rebuild an address space from a checkpoint blob."""
        if blob[:4] != _MAGIC:
            raise ValueError("not a checkpoint blob")
        count = int.from_bytes(blob[4:12], "little")
        space = AddressSpace(pool)
        pos = 12
        record = 8 + 2 + PAGE_SIZE
        for _ in range(count):
            vpn = int.from_bytes(blob[pos : pos + 8], "little")
            perms = Permission(int.from_bytes(blob[pos + 8 : pos + 10], "little"))
            data = blob[pos + 10 : pos + 10 + PAGE_SIZE]
            space.map_region(vpn << PAGE_SHIFT, PAGE_SIZE, perms, data=data)
            pos += record
        if pos != len(blob):
            raise ValueError("trailing bytes in checkpoint blob")
        self.stats.restores += 1
        self.stats.bytes_restored += len(blob)
        return space
