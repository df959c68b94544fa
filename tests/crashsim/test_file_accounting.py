"""Engine-level file accounting of every corpus search, pinned exactly.

``stats.extra["file_stats"]`` sums the file layer's counters over every
fork of a search's file table.  ``cow_bytes`` charges a table's dirty
overlay each time a fork of it starts, at a take's fork or at a
restore's lend, so a restore that lends instead of forking must still
charge it there; the other counters follow the guest's syscalls.  The
values are the searches' own (the same as the ``crash:*`` entries of the
benchmark's pins), and all ten searches take about 50 ms.
"""

import pytest

from repro.core.machine import MachineEngine
from repro.crashsim import harness
from repro.libos.files import FileStats
from repro.workloads.crashfs import CORPUS

#: Plan -> the FileStats fields in declaration order.
EXPECTED = {
    "journaled_append_clean": (16, 7, 3, 0, 0, 3, 8, 14),
    "journaled_append_missing_fsync": (2024, 4, 0, 0, 0, 0, 5, 31),
    "journaled_append_reordered_commit": (8, 6, 2, 0, 0, 3, 7, 19),
    "journaled_append_fsync_before_data": (856, 6, 2, 0, 0, 1, 7, 22),
    "torn_update_clean": (16, 2, 1, 0, 0, 1, 3, 4),
    "torn_update_multiblock": (16, 3, 1, 0, 0, 2, 4, 8),
    "rename_update_clean": (0, 5, 1, 1, 1, 1, 6, 11),
    "rename_update_no_sync": (0, 4, 1, 0, 1, 1, 5, 10),
    "block_alloc_clean": (48, 4, 2, 0, 0, 2, 5, 7),
    "block_alloc_double_free": (48, 4, 2, 0, 0, 2, 5, 7),
}


def test_expected_covers_the_corpus():
    assert sorted(EXPECTED) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_file_stats_of_each_search(name, monkeypatch):
    results = []

    class Recording(MachineEngine):
        def run(self, guest):
            results.append(super().run(guest))
            return results[-1]

    monkeypatch.setattr(harness, "MachineEngine", Recording)
    report = harness.run_crashfind(CORPUS[name])
    assert report.verdict_ok
    (result,) = results
    fields = list(FileStats().as_dict())
    assert result.stats.extra["file_stats"] == dict(zip(fields, EXPECTED[name]))
