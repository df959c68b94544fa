"""Persistent 4-level radix page table with structural sharing.

This is the data structure that makes lightweight snapshots *lightweight*.
A snapshot of an address space is a new reference to the page-table root
(an O(1) operation); interior nodes and leaf frames are shared between the
snapshot and the running address space via reference counts.  The first
write that would disturb a shared subtree copies only the nodes on the
path from the root to the touched page plus the page itself — the software
analogue of what the paper achieves with hardware nested page tables and
write-protected PTEs.

The layout matches x86-64: 4 levels of 512-entry nodes indexed by 9-bit
slices of the 36-bit virtual page number, 4 KiB leaf pages.  Nodes store
their entries sparsely in dicts, so an address space that maps N pages
costs O(N) memory regardless of how spread out the mappings are.

Ownership protocol
------------------
* :meth:`PageTable.map` *consumes* the caller's reference to the frame.
* :meth:`PageTable.unmap` and :meth:`PageTable.free` release frame
  references back to the pool.
* :meth:`PageTable.clone` shares the root (refcount bump); either table may
  subsequently mutate without affecting the other.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Optional

from repro.mem.frames import Frame, FramePool
from repro.mem.layout import LEVEL_BITS, LEVELS

_INDEX_MASK = (1 << LEVEL_BITS) - 1
_TOP_LEVEL = LEVELS - 1


class Permission(enum.IntFlag):
    """Page permission bits (subset of an x86 PTE)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4
    RW = READ | WRITE
    RX = READ | EXEC
    RWX = READ | WRITE | EXEC


class PTE(NamedTuple):
    """A leaf page-table entry: a frame plus its permission bits.

    PTEs are immutable so they can be shared freely between a node and its
    copy; mutation happens by replacing the entry in an exclusively-owned
    level-0 node.  ``perms`` holds the :class:`Permission` bits as a plain
    int, so the translation path tests them without enum arithmetic.
    """

    frame: Frame
    perms: int


class _Node:
    """One radix node.  Level 0 nodes map index -> PTE; higher levels map
    index -> child node."""

    __slots__ = ("level", "entries", "refcount")

    def __init__(self, level: int):
        self.level = level
        self.entries: dict = {}
        self.refcount = 1


def _index_at(vpn: int, level: int) -> int:
    return (vpn >> (LEVEL_BITS * level)) & _INDEX_MASK


class PageTable:
    """A mutable page table backed by persistent, sharable radix nodes."""

    def __init__(self, pool: FramePool, _root: Optional[_Node] = None):
        self.pool = pool
        self._root = _root if _root is not None else _Node(_TOP_LEVEL)
        #: Number of radix nodes copied to regain exclusivity (COW cost).
        self.nodes_copied = 0

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def lookup(self, vpn: int) -> Optional[PTE]:
        """Return the PTE mapping *vpn*, or None if unmapped.

        Never mutates the tree — safe on shared (snapshot) tables.
        """
        node = self._root
        for level in range(_TOP_LEVEL, 0, -1):
            node = node.entries.get(_index_at(vpn, level))
            if node is None:
                return None
        return node.entries.get(_index_at(vpn, 0))

    def is_mapped(self, vpn: int) -> bool:
        """True if *vpn* has a mapping."""
        return self.lookup(vpn) is not None

    def items(self) -> Iterator[tuple[int, PTE]]:
        """Yield ``(vpn, pte)`` pairs for every mapping, ascending."""
        yield from self._items(self._root, 0)

    def _items(self, node: _Node, prefix: int) -> Iterator[tuple[int, PTE]]:
        if node.level == 0:
            for idx in sorted(node.entries):
                yield (prefix << LEVEL_BITS) | idx, node.entries[idx]
        else:
            for idx in sorted(node.entries):
                yield from self._items(
                    node.entries[idx], (prefix << LEVEL_BITS) | idx
                )

    def entry_count(self) -> int:
        """Total number of mapped pages."""
        return sum(1 for _ in self.items())

    def private_entry_count(self) -> int:
        """Number of pages only this table can reach.

        A page is private iff every node on its path is exclusively owned
        (refcount 1 all the way from the root) *and* its frame refcount is
        1 — node sharing makes every frame underneath logically shared
        even when the frame's own refcount is 1.
        """

        def walk(node: _Node, exclusive: bool) -> int:
            exclusive = exclusive and node.refcount == 1
            if node.level == 0:
                if not exclusive:
                    return 0
                return sum(
                    1 for pte in node.entries.values() if pte.frame.refcount == 1
                )
            return sum(walk(c, exclusive) for c in node.entries.values())

        return walk(self._root, True)

    def shares_root_with(self, other: "PageTable") -> bool:
        """True if *other* currently shares this table's root node."""
        return self._root is other._root

    # ------------------------------------------------------------------
    # Snapshot path
    # ------------------------------------------------------------------

    def clone(self) -> "PageTable":
        """Create a logical copy of the whole table in O(1).

        The clone shares every node and frame with this table; reference
        counts keep both sides safe to mutate independently (mutation
        copies shared nodes lazily).
        """
        self._root.refcount += 1
        clone = PageTable(self.pool, _root=self._root)
        return clone

    # ------------------------------------------------------------------
    # Write path (copy-on-write aware)
    # ------------------------------------------------------------------

    def _copy_node(self, node: _Node) -> _Node:
        """Shallow-copy *node*, bumping refs on all its children.

        The caller releases its reference to *node* and owns the copy.
        """
        fresh = _Node(node.level)
        fresh.entries = dict(node.entries)
        if node.level == 0:
            for pte in fresh.entries.values():
                pte.frame.refcount += 1
        else:
            for child in fresh.entries.values():
                child.refcount += 1
        node.refcount -= 1
        self.nodes_copied += 1
        return fresh

    def _leaf_exclusive(self, vpn: int, create: bool) -> Optional[_Node]:
        """Descend to the level-0 node for *vpn*, copying shared nodes so
        that the whole path is exclusively owned by this table.

        With ``create=True`` missing interior nodes are allocated; with
        ``create=False`` a missing path returns None untouched.
        """
        if self._root.refcount > 1:
            self._root = self._copy_node(self._root)
        node = self._root
        for level in range(_TOP_LEVEL, 0, -1):
            idx = _index_at(vpn, level)
            child = node.entries.get(idx)
            if child is None:
                if not create:
                    return None
                child = _Node(level - 1)
                node.entries[idx] = child
            elif child.refcount > 1:
                child = self._copy_node(child)
                node.entries[idx] = child
            node = child
        return node

    def map(self, vpn: int, frame: Frame, perms: int) -> None:
        """Map *vpn* to *frame* with *perms* (:class:`Permission` bits),
        consuming the frame ref.

        Replacing an existing mapping releases the old frame.
        """
        leaf = self._leaf_exclusive(vpn, create=True)
        idx = _index_at(vpn, 0)
        old = leaf.entries.get(idx)
        leaf.entries[idx] = PTE(frame, int(perms))
        if old is not None:
            self.pool.put(old.frame)

    def unmap(self, vpn: int) -> bool:
        """Remove the mapping for *vpn*.  Returns False if it was absent."""
        leaf = self._leaf_exclusive(vpn, create=False)
        if leaf is None:
            return False
        idx = _index_at(vpn, 0)
        old = leaf.entries.pop(idx, None)
        if old is None:
            return False
        self.pool.put(old.frame)
        return True

    def set_perms(self, vpn: int, perms: Permission) -> None:
        """Change the permission bits of an existing mapping."""
        leaf = self._leaf_exclusive(vpn, create=False)
        idx = _index_at(vpn, 0)
        if leaf is None or idx not in leaf.entries:
            raise KeyError(f"vpn {vpn:#x} is not mapped")
        old = leaf.entries[idx]
        leaf.entries[idx] = PTE(old.frame, int(perms))

    def make_private(self, vpn: int) -> PTE:
        """Resolve a copy-on-write fault on *vpn*.

        Ensures the path and the frame are exclusively owned, copying the
        frame if it is shared, and returns the (possibly new) PTE.  Raises
        KeyError if *vpn* is unmapped.
        """
        leaf = self._leaf_exclusive(vpn, create=False)
        idx = _index_at(vpn, 0)
        if leaf is None or idx not in leaf.entries:
            raise KeyError(f"vpn {vpn:#x} is not mapped")
        pte = leaf.entries[idx]
        if pte.frame.refcount > 1:
            fresh = self.pool.copy(pte.frame)
            pte.frame.refcount -= 1
            # pool accounting: the original stays live (other refs), the
            # copy is a new live frame already counted by pool.copy().
            pte = PTE(fresh, pte.perms)
            leaf.entries[idx] = pte
        return pte

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def free(self) -> None:
        """Release this table's reference to the whole tree."""
        if self._root is not None:
            self._put_node(self._root)
            self._root = None  # type: ignore[assignment]

    def _put_node(self, node: _Node) -> None:
        node.refcount -= 1
        if node.refcount > 0:
            return
        if node.level == 0:
            for pte in node.entries.values():
                self.pool.put(pte.frame)
        else:
            for child in node.entries.values():
                self._put_node(child)
        node.entries.clear()
