"""E6 — snapshot take/restore microbenchmark (the §4 Dune claim).

Dune's evaluation "showed that memory protection events and forks can be
implemented via a specialized libOS with an order of magnitude better
performance than corresponding Linux abstractions"; §6 adds that unlike
classic checkpoints, lightweight snapshots are "designed to both take and
restore snapshots with very high frequency".

We measure take+restore against image size for three substrates:

* COW snapshots  — O(1) take/restore, cost deferred to pages dirtied;
* eager fork     — O(image) physical copy at take *and* restore;
* checkpointing  — O(image) serialize at take, O(image) rebuild at
  restore (libckpt style).

Shape: COW flat across image sizes; the others scale linearly; the gap
reaches an order of magnitude well before 16 MiB images.
"""

from repro.baselines import Checkpointer, EagerSnapshotManager
from repro.bench import Table, fmt_ratio, time_once
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager

BASE = 0x40_0000
SIZES_PAGES = [16, 256, 4096]  # 64 KiB / 1 MiB / 16 MiB
ROUNDS = 10


def make_space(pool, pages):
    space = AddressSpace(pool)
    space.map_region(BASE, pages * PAGE_SIZE, Permission.RW, eager=True)
    space.write(BASE, b"seed")
    return space


def cycle_snap(mgr, space):
    """The measured kernel: take + restore + dirty one page, ROUNDS x.

    Image construction happens outside the timed region — this measures
    the snapshot operations themselves, as §6's "take and restore with
    very high frequency" demands.
    """
    for _ in range(ROUNDS):
        snap = mgr.take(space)
        _, restored, _ = mgr.restore(snap)
        restored.write(BASE, b"dirty one page")
        restored.free()
        mgr.discard(snap)


def cycle_ckpt(ck, pool, space):
    for _ in range(ROUNDS):
        blob = ck.checkpoint(space)
        restored = ck.restore(blob, pool)
        restored.write(BASE, b"dirty one page")
        restored.free()


def test_e6_take_restore_scaling(benchmark, show):
    rows = []
    for pages in SIZES_PAGES:
        cow_mgr = SnapshotManager()
        cow_space = make_space(cow_mgr.pool, pages)
        t_cow, _ = time_once(lambda: cycle_snap(cow_mgr, cow_space))
        cow_space.free()

        eager_mgr = EagerSnapshotManager()
        eager_space = make_space(eager_mgr.pool, pages)
        t_eager, _ = time_once(lambda: cycle_snap(eager_mgr, eager_space))
        eager_space.free()

        pool = FramePool()
        ck = Checkpointer()
        ckpt_space = make_space(pool, pages)
        t_ckpt, _ = time_once(lambda: cycle_ckpt(ck, pool, ckpt_space))
        ckpt_space.free()

        rows.append((pages, t_cow, t_eager, t_ckpt))

    bench_mgr = SnapshotManager()
    bench_space = make_space(bench_mgr.pool, SIZES_PAGES[0])
    benchmark(lambda: cycle_snap(bench_mgr, bench_space))

    table = Table(
        f"E6: {ROUNDS}x take+restore+1-page-dirty vs image size",
        ["image (pages)", "cow (s)", "eager fork (s)", "checkpoint (s)",
         "eager/cow", "ckpt/cow"],
    )
    for pages, t_cow, t_eager, t_ckpt in rows:
        table.add(pages, t_cow, t_eager, t_ckpt,
                  fmt_ratio(t_eager, t_cow), fmt_ratio(t_ckpt, t_cow))
    show(table)

    # COW stays roughly flat (allow generous jitter); the others scale.
    assert rows[-1][1] < rows[0][1] * 8
    assert rows[-1][2] > rows[0][2] * 20
    assert rows[-1][3] > rows[0][3] * 20
    # Order-of-magnitude gap at the largest image.
    assert rows[-1][2] > 10 * rows[-1][1]
    assert rows[-1][3] > 10 * rows[-1][1]


def test_e6_cow_work_proportional_to_dirty(benchmark, show):
    """Ablation (DESIGN.md §5): with COW, cost follows the dirty set."""
    pages = 1024

    def run(dirty_pages):
        mgr = SnapshotManager()
        space = make_space(mgr.pool, pages)
        snap = mgr.take(space)
        _, restored, _ = mgr.restore(snap)
        for i in range(dirty_pages):
            restored.write_u64(BASE + i * PAGE_SIZE, i)
        copied = restored.faults.pages_copied
        restored.free()
        mgr.discard(snap)
        space.free()
        return copied

    table = Table(
        "E6b: COW cost vs dirty fraction (1024-page image)",
        ["pages dirtied", "pages copied"],
    )
    for dirty in (1, 64, 512, 1024):
        copied = run(dirty)
        table.add(dirty, copied)
        assert copied == dirty
    show(table)
    benchmark(lambda: run(64))


def test_e6_node_sharing_ablation(benchmark, show):
    """Ablation: persistent page-table node sharing is what makes `take`
    O(1) — count radix nodes copied on first dirty write vs image size."""
    rows = []
    for pages in (64, 1024, 16384):
        mgr = SnapshotManager()
        space = make_space(mgr.pool, pages)
        snap = mgr.take(space)
        _, restored, _ = mgr.restore(snap)
        before = restored.table.nodes_copied
        restored.write(BASE, b"x")
        nodes = restored.table.nodes_copied - before
        rows.append((pages, nodes))
        restored.free()
        mgr.discard(snap)
        space.free()

    table = Table(
        "E6c: radix nodes copied on first write after restore",
        ["image (pages)", "nodes copied (path length)"],
    )
    for pages, nodes in rows:
        table.add(pages, nodes)
    show(table)
    # Path-copy only: bounded by tree depth (4), regardless of size.
    assert all(nodes <= 4 for _pages, nodes in rows)
    mgr = SnapshotManager()
    space = make_space(mgr.pool, 64)
    benchmark(lambda: cycle_snap(mgr, space))
