"""A restore builds only what the guest uses.

One find-all ``nqueens_asm(8)`` run (15,721 extensions, 1,965 takes)
never opens a file, so its file table is built once, at the load.  A
restore copies nothing: the restored space is a header over its
snapshot's page table and translation cache, and the extension borrows
the snapshot's file table and console.  So the run builds a page table
only at the load and at each first write after a fork (one per copied
frame, 2,056 here), forks a file table only at each take, and forks a
console only on a path that prints its board (the 92 solutions).
Restored spaces share the snapshot's translations, so an extension's
loads and fetches hit the cache and only a first write to a page walks
the page table, for the COW fault.  The counts are deterministic, so
the guard is exact.
"""

import sys
from collections import Counter

from repro.core.machine import MachineEngine
from repro.libos.console import Console
from repro.libos.files import FileTable
from repro.mem.pagetable import PageTable
from repro.workloads.nqueens import nqueens_asm

COUNTED = {
    FileTable.__init__.__code__: "FileTable.__init__",
    FileTable.fork_cow.__code__: "FileTable.fork_cow",
    Console.fork_cow.__code__: "Console.fork_cow",
    PageTable.__init__.__code__: "PageTable.__init__",
    PageTable.lookup.__code__: "PageTable.lookup",
    PageTable.make_private.__code__: "PageTable.make_private",
}


def test_restore_builds_only_what_the_guest_uses():
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = COUNTED.get(frame.f_code)
            if name is not None:
                calls[name] += 1

    sys.setprofile(profile)
    try:
        result = MachineEngine().run(nqueens_asm(8))
    finally:
        sys.setprofile(None)
    extra = result.stats.extra
    assert len(result.solutions) == 92
    assert result.stats.evaluations == 15_721
    assert extra["snapshots_taken"] == 1_965
    assert extra["frames_copied"] == 2_056
    assert calls["FileTable.__init__"] == 1
    assert calls["PageTable.__init__"] == 1 + extra["frames_copied"]
    assert calls["FileTable.fork_cow"] == extra["snapshots_taken"]
    assert calls["Console.fork_cow"] == len(result.solutions)
    assert calls["PageTable.lookup"] <= calls["PageTable.make_private"] + 100
