"""A restore builds only what the guest uses.

One find-all ``nqueens_asm(8)`` run (15,721 extensions) never opens a
file, so its file table is built once, at the load, and every snapshot
shares it.  Restored spaces keep the snapshot's translations, so an
extension's loads and fetches hit the cache and only a first write to a
page walks the page table, for the COW fault.  The counts are
deterministic, so the guard is exact.
"""

import sys
from collections import Counter

from repro.core.machine import MachineEngine
from repro.libos.files import FileTable
from repro.mem.pagetable import PageTable
from repro.workloads.nqueens import nqueens_asm

COUNTED = {
    FileTable.__init__.__code__: "FileTable.__init__",
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
    assert len(result.solutions) == 92
    assert calls["FileTable.__init__"] == 1
    assert calls["PageTable.lookup"] <= calls["PageTable.make_private"] + 100
