"""Reference-counted physical frames and the simulated physical memory pool.

A :class:`Frame` is one page of simulated physical memory.  Frames are
shared between address spaces and snapshots via reference counting: taking
a snapshot bumps refcounts instead of copying, and a write to a frame whose
refcount exceeds one triggers a copy-on-write duplication.

The :class:`FramePool` plays the role of the physical memory allocator.
It tracks allocation statistics (live frames, high-water mark, total
allocations and copies) so experiments can report memory footprint — e.g.
the E2/E6 live-frame watermark comparisons between COW snapshots and eager
full copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mem.layout import PAGE_SIZE

#: Shared all-zero page contents used to detect zero pages cheaply.
_ZERO_PAGE = bytes(PAGE_SIZE)


class Frame:
    """One reference-counted page of simulated physical memory.

    The refcount counts how many page-table leaf entries reference this
    frame (across all live address spaces and snapshots).  Writers must
    hold the only reference; :meth:`repro.mem.addrspace.AddressSpace` makes
    that true by copying shared frames on write faults.
    """

    __slots__ = ("pfn", "data", "refcount")

    def __init__(self, pfn: int, data: Optional[bytearray] = None):
        self.pfn = pfn
        self.data = data if data is not None else bytearray(PAGE_SIZE)
        self.refcount = 1

    def is_zero(self) -> bool:
        """True if the frame currently holds only zero bytes."""
        return self.data == _ZERO_PAGE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame(pfn={self.pfn}, rc={self.refcount})"


@dataclass
class PoolStats:
    """Allocation statistics for a :class:`FramePool`."""

    allocated: int = 0
    freed: int = 0
    copied: int = 0
    live: int = 0
    peak_live: int = 0
    limit: Optional[int] = None

    def snapshot(self) -> "PoolStats":
        return PoolStats(
            allocated=self.allocated,
            freed=self.freed,
            copied=self.copied,
            live=self.live,
            peak_live=self.peak_live,
            limit=self.limit,
        )


class OutOfMemoryError(MemoryError):
    """Raised when a bounded :class:`FramePool` is exhausted."""


class FramePool:
    """Allocator for simulated physical frames.

    Parameters
    ----------
    limit:
        Optional maximum number of live frames; exceeding it raises
        :class:`OutOfMemoryError`.  ``None`` (default) means unbounded,
        which suits most tests; bounded pools are used by the SM-A*
        strategy experiments where memory pressure matters.
    """

    def __init__(self, limit: Optional[int] = None):
        self._next_pfn = 0
        self.stats = PoolStats(limit=limit)
        #: The demand-zero frame (None until :meth:`zero` first runs).
        self.zero_frame: Optional[Frame] = None

    def alloc(self, data: Optional[bytearray] = None) -> Frame:
        """Allocate a fresh frame (zero-filled unless *data* is given)."""
        limit = self.stats.limit
        if limit is not None and self.stats.live >= limit:
            raise OutOfMemoryError(
                f"frame pool exhausted ({self.stats.live}/{limit} frames live)"
            )
        frame = Frame(self._next_pfn, data)
        self._next_pfn += 1
        self.stats.allocated += 1
        self.stats.live += 1
        self.stats.peak_live = max(self.stats.peak_live, self.stats.live)
        return frame

    def zero(self) -> Frame:
        """The pool's demand-zero frame: every space maps fresh pages to
        it, and the first write to such a page copies it away.  Allocated
        on first use and never freed, so it counts as one live frame."""
        if self.zero_frame is None:
            self.zero_frame = self.alloc()
        return self.zero_frame

    def copy(self, frame: Frame) -> Frame:
        """Allocate a new frame containing a copy of *frame*'s bytes.

        This is the physical-copy half of a copy-on-write fault.  The
        caller is responsible for dropping its reference to the original.
        """
        clone = self.alloc(bytearray(frame.data))
        self.stats.copied += 1
        return clone

    def get(self, frame: Frame) -> Frame:
        """Take an additional reference to *frame*."""
        frame.refcount += 1
        return frame

    def put(self, frame: Frame) -> None:
        """Drop one reference to *frame*, freeing it at refcount zero."""
        if frame.refcount <= 0:
            raise ValueError(f"double free of {frame!r}")
        frame.refcount -= 1
        if frame.refcount == 0:
            self.stats.freed += 1
            self.stats.live -= 1

    @property
    def live_frames(self) -> int:
        """Number of frames currently allocated and referenced."""
        return self.stats.live

    @property
    def peak_live_frames(self) -> int:
        """High-water mark of live frames over the pool's lifetime."""
        return self.stats.peak_live
