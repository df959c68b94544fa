"""Lease table: fenced ownership, the stale-result rules, and the
per-worker record of what each worker owes and when it last made
progress.

Every test injects a fake clock — the table never sleeps, so neither do
the tests.  The invariants exercised here are the ones the distributed
engine's exactness rests on: a (key, fence) pair settles at most once,
tokens are strictly monotonic, and every revocation path (worker death,
lost results, re-grant) fences off the old token.
"""

import pytest

from repro.core.lease import LeaseTable
from repro.search.shard import PrefixTask


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def task(*prefix):
    return PrefixTask(prefix=tuple(prefix), fanouts=(4,) * len(prefix))


class TestGrantSettle:
    def test_grant_stamps_fence_and_settle_consumes(self):
        table = LeaseTable()
        lease = table.grant(task(1, 2), wid=7)
        assert lease.fence == 1
        assert lease.task.fence == 1
        assert lease.task.key() == (1, 2)
        assert table.holder((1, 2)) == 7
        assert table.settle((1, 2), 1, wid=7) is lease
        assert len(table) == 0

    def test_duplicate_settle_is_never_ok_twice(self):
        table = LeaseTable()
        lease = table.grant(task(3), wid=0)
        assert table.settle((3,), lease.fence, wid=0) is lease
        # A duplicated delivery of the very same result is stale: the
        # lease was consumed by the first settle.
        assert table.settle((3,), lease.fence, wid=0) is None

    def test_wrong_fence_is_stale_and_leaves_live_lease(self):
        table = LeaseTable()
        lease = table.grant(task(3), wid=0)
        assert table.settle((3,), lease.fence + 5, wid=0) is None
        assert table.settle((3,), 0, wid=0) is None
        # The live lease survived the stale attempts.
        assert table.settle((3,), lease.fence, wid=0) is lease

    def test_unknown_key_is_stale(self):
        table = LeaseTable()
        assert table.settle((9, 9), 1, wid=0) is None

    def test_regrant_fences_off_earlier_token(self):
        table = LeaseTable()
        first = table.grant(task(5), wid=1)
        second = table.grant(task(5), wid=2)
        assert second.fence > first.fence
        assert table.holder((5,)) == 2
        # The partitioned first worker reports late: refused.
        assert table.settle((5,), first.fence, wid=1) is None
        assert table.settle((5,), second.fence, wid=2) is second

    def test_fences_strictly_monotonic_across_keys(self):
        table = LeaseTable(start_fence=40)
        fences = [table.grant(task(i), wid=0).fence for i in range(5)]
        assert fences == [40, 41, 42, 43, 44]
        assert table.next_fence == 45

    def test_key_normalised_to_tuple(self):
        table = LeaseTable()
        lease = table.grant(task(1, 2, 3), wid=0)
        assert table.holder([1, 2, 3]) == 0
        assert table.settle([1, 2, 3], lease.fence, wid=0) is lease


class TestExpiry:
    """Leases have no deadline of their own: a worker's leases end only
    when the coordinator revokes them, and the stall timeout that does
    so reads :meth:`LeaseTable.quiet`."""

    def test_progress_pushes_out_only_that_workers_leases(self):
        clock = FakeClock()
        table = LeaseTable(clock=clock)
        table.grant(task(1), wid=0)
        table.grant(task(2), wid=1)
        clock.advance(8.0)
        table.progress(0)  # a heartbeat showing progress from wid 0
        clock.advance(4.0)
        assert table.quiet(0) == 4.0
        assert table.quiet(1) == 12.0
        assert table.holder((1,)) == 0 and table.holder((2,)) == 1


class TestRevocation:
    def test_revoke_worker_drops_all_and_only_its_leases(self):
        table = LeaseTable()
        a = table.grant(task(1), wid=3)
        b = table.grant(task(2), wid=3)
        c = table.grant(task(3), wid=4)
        dropped = table.revoke_worker(3)
        assert sorted(l.key for l in dropped) == [(1,), (2,)]
        assert table.settle((1,), a.fence, wid=3) is None
        assert table.settle((2,), b.fence, wid=3) is None
        assert table.settle((3,), c.fence, wid=4) is c
        assert table.owned_by(3) == []

    def test_drain_empties_table(self):
        table = LeaseTable()
        table.grant(task(1), wid=0)
        table.grant(task(2), wid=1)
        drained = list(table.drain())
        assert len(drained) == 2
        assert len(table) == 0

    def test_owned_by_lists_live_leases(self):
        table = LeaseTable()
        table.grant(task(1), wid=5)
        table.grant(task(2), wid=5)
        assert sorted(l.key for l in table.owned_by(5)) == [(1,), (2,)]


class TestWorkerRecord:
    """What a worker owes, in grant order, and when it last made
    progress: the one record the coordinator's per-worker decisions
    read."""

    def test_a_result_renews_the_workers_other_leases(self):
        clock = FakeClock()
        table = LeaseTable(clock=clock)
        first = table.grant(task(1), wid=0)
        table.grant(task(2), wid=0)
        table.grant(task(3), wid=0)
        clock.advance(8.0)
        assert table.settle((1,), first.fence, wid=0) is first
        clock.advance(8.0)  # t=116: 16 s after the grants, 8 s quiet
        assert table.quiet(0) == 8.0
        assert [l.key for l in table.owned_by(0)] == [(2,), (3,)]

    def test_a_stale_result_is_progress_too(self):
        clock = FakeClock()
        table = LeaseTable(clock=clock)
        table.grant(task(1), wid=0)
        clock.advance(8.0)
        assert table.settle((9,), 1, wid=0) is None
        clock.advance(8.0)
        assert table.quiet(0) == 8.0
        assert table.holder((1,)) == 0

    def test_busy_and_quiet_follow_grants_and_results(self):
        clock = FakeClock()
        table = LeaseTable(clock=clock)
        assert not table.busy(0)
        a = table.grant(task(1), wid=0)
        b = table.grant(task(2), wid=0)
        assert table.busy(0) and not table.busy(1)
        assert table.quiet(0) == 0.0
        clock.advance(3.0)
        assert table.quiet(0) == 3.0
        table.settle((1,), a.fence, wid=0)
        assert table.busy(0)
        assert table.quiet(0) == 0.0
        clock.advance(2.0)
        table.settle((2,), b.fence, wid=0)
        assert not table.busy(0)
        assert table.quiet(0) == 0.0
        table.grant(task(3), wid=0)
        clock.advance(1.5)
        table.progress(0)
        clock.advance(0.5)
        assert table.quiet(0) == 0.5
        table.revoke_worker(0)
        assert not table.busy(0)

    def test_leases_come_back_in_grant_order_and_a_regrant_moves_last(self):
        table = LeaseTable()
        for key in (5, 1, 3):
            table.grant(task(key), wid=0)
        table.grant(task(4), wid=1)
        assert [l.key for l in table.owned_by(0)] == [(5,), (1,), (3,)]
        table.grant(task(5), wid=0)
        assert [l.key for l in table.owned_by(0)] == [(1,), (3,), (5,)]
        # Re-granted elsewhere: it leaves this worker's record.
        table.grant(task(1), wid=1)
        assert [l.key for l in table.owned_by(0)] == [(3,), (5,)]
        assert [l.key for l in table.owned_by(1)] == [(4,), (1,)]
        assert [l.key for l in table.revoke_worker(0)] == [(3,), (5,)]
        assert [l.key for l in table.drain()] == [(4,), (1,)]
        assert not table.busy(1)


class TestValidation:
    def test_rejects_start_fence_below_one(self):
        with pytest.raises(ValueError):
            LeaseTable(start_fence=0)


class TestTaskFenceRecord:
    def test_to_record_omits_zero_fence(self):
        t = task(1, 2)
        assert "fence" not in t.to_record()
        assert PrefixTask.from_record(t.to_record()) == t

    def test_to_record_round_trips_nonzero_fence(self):
        t = task(1, 2)._replace(fence=17)
        record = t.to_record()
        assert record["fence"] == 17
        assert PrefixTask.from_record(record) == t
