"""E10 — §3.1 immutability / §5 "immutable data structures".

"Lightweight snapshots provide a very coarse, yet very simple to use,
immutable type: the entire address space of the program."

Claims under test, at scale: (a) a parent snapshot's entire address
space is bit-identical before and after any number of child extensions
run; (b) sibling extensions never observe each other's writes; (c) the
snapshot tree shares untouched pages, so N live snapshots cost far less
than N images.
"""

import hashlib

from repro.bench import Table
from repro.mem import AddressSpace, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager

BASE = 0x40_0000
IMAGE_PAGES = 128


def image_hash(space) -> str:
    digest = hashlib.sha256()
    for addr, page in space.iter_pages():
        digest.update(addr.to_bytes(8, "little"))
        digest.update(page)
    return digest.hexdigest()


def build_parent(mgr):
    space = AddressSpace(mgr.pool)
    space.map_region(BASE, IMAGE_PAGES * PAGE_SIZE, Permission.RW)
    for i in range(IMAGE_PAGES):
        space.write_u64(BASE + i * PAGE_SIZE, 0xBA5E0000 + i)
    return space


def test_e10_address_space_as_immutable_value(benchmark, show):
    def run():
        mgr = SnapshotManager()
        space = build_parent(mgr)
        snap = mgr.take(space)
        before = image_hash(snap.space)
        children = []
        for k in range(8):
            _, child, _ = mgr.restore(snap)
            # Each child rewrites a sliding window of pages.
            for i in range(16):
                child.write_u64(BASE + ((k * 16 + i) % IMAGE_PAGES) * PAGE_SIZE,
                                0xC0FFEE00 + k)
            children.append(child)
        after = image_hash(snap.space)
        return mgr, snap, children, before, after

    mgr, snap, children, before, after = benchmark(run)
    assert before == after, "snapshot image must be bit-identical"

    # Sibling isolation: each child sees only its own tag.
    for k, child in enumerate(children):
        assert child.read_u64(BASE + (k * 16 % IMAGE_PAGES) * PAGE_SIZE) \
            == 0xC0FFEE00 + k

    # Sharing: 9 logical images (snapshot + 8 children) cost far less
    # than 9 physical ones.
    frames = mgr.pool.live_frames
    naive = 9 * IMAGE_PAGES
    table = Table(
        "E10: 8 divergent children over one 128-page snapshot",
        ["logical images", "physical frames", "naive frames", "sharing"],
    )
    table.add(9, frames, naive, f"{naive / frames:.1f}x")
    show(table)
    assert frames < naive / 2


def test_e10_deep_snapshot_chain(benchmark):
    """A deep take->dirty->take chain keeps every ancestor intact (the
    space-efficient parent-delta encoding of §3.1)."""

    def run():
        mgr = SnapshotManager()
        space = build_parent(mgr)
        hashes = []
        snaps = []
        for level in range(12):
            snap = mgr.take(space)
            snaps.append(snap)
            hashes.append(image_hash(snap.space))
            space.write_u64(BASE + (level % IMAGE_PAGES) * PAGE_SIZE, level)
        return mgr, snaps, hashes

    mgr, snaps, hashes = benchmark(run)
    for snap, expected in zip(snaps, hashes):
        assert image_hash(snap.space) == expected
    # Delta encoding: 12 snapshots of a 128-page image, each differing by
    # one page, must cost ~image + deltas, not 12 images.
    assert mgr.pool.live_frames < 2 * IMAGE_PAGES
