"""WorkerSupervisor: slot state machine, backoff, the one failure budget.

The supervisor is pure bookkeeping (it never touches processes), so
everything here runs with a fake clock and no workers.  Its timings are
module constants; tests that need others patch them.
"""

from types import SimpleNamespace

import pytest

from repro.core import supervisor
from repro.core.supervisor import (
    DROP,
    POISON,
    RETRY,
    SlotState,
    WorkerSupervisor,
)
from repro.search.shard import PrefixTask


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make(workers=2, **kwargs):
    clock = FakeClock()
    sup = WorkerSupervisor(workers, clock=clock, **kwargs)
    return sup, clock


@pytest.fixture
def patch(monkeypatch):
    """``patch(BACKOFF_BASE_S=0.1, ...)`` sets supervisor constants for
    one test."""
    def apply(**constants):
        for name, value in constants.items():
            assert hasattr(supervisor, name), name
            monkeypatch.setattr(supervisor, name, value)
    return apply


def backoff(sup, clock, slot, wid):
    """Fail *slot*'s worker once; return the respawn delay scheduled."""
    sup.record_failure(slot, wid, "crash", None)
    return slot.respawn_due - clock()


class TestBackoff:
    def test_exponential_growth_with_cap(self, patch):
        patch(BACKOFF_BASE_S=0.1, BACKOFF_MAX_S=0.5, BACKOFF_JITTER=0.0,
              MAX_SLOT_FAILURES=100)
        sup, clock = make(workers=1)
        delays = [backoff(sup, clock, sup.slots[0], wid) for wid in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_deterministic_per_seed(self, patch):
        patch(BACKOFF_JITTER=0.5, MAX_SLOT_FAILURES=100, JITTER_SEED=7)
        a, ca = make(workers=1)
        b, cb = make(workers=1)
        da = [backoff(a, ca, a.slots[0], i) for i in range(4)]
        db = [backoff(b, cb, b.slots[0], i) for i in range(4)]
        assert da == db
        patch(JITTER_SEED=8)
        c, cc = make(workers=1)
        dc = [backoff(c, cc, c.slots[0], i) for i in range(4)]
        assert da != dc

    def test_respawn_due_respects_clock(self, patch):
        patch(BACKOFF_BASE_S=1.0, BACKOFF_JITTER=0.0)
        sup, clock = make(workers=1)
        slot = sup.slots[0]
        delay = backoff(sup, clock, slot, 0)
        assert slot.state is SlotState.BACKOFF
        assert sup.respawn_ready() == []
        assert sup.next_respawn_due() == pytest.approx(clock() + 1.0)
        clock.now += delay + 0.01
        assert sup.respawn_ready() == [slot]
        sup.mark_running(slot)
        assert slot.state is SlotState.RUNNING
        assert slot.respawns == 1


class TestSlotDeath:
    def test_slot_dies_after_consecutive_failures(self, patch):
        patch(MAX_SLOT_FAILURES=2)
        sup, _ = make(workers=2)
        slot = sup.slots[0]
        sup.record_failure(slot, 0, "crash", None)
        assert slot.state is SlotState.BACKOFF
        sup.record_failure(slot, 1, "crash", None)
        assert slot.state is SlotState.DEAD
        assert slot not in sup.respawn_ready()
        assert sup.serviceable() == 1

    def test_success_resets_the_streak(self, patch):
        patch(MAX_SLOT_FAILURES=2)
        sup, _ = make(workers=1)
        slot = sup.slots[0]
        sup.record_failure(slot, 0, "crash", None)
        sup.mark_running(slot)
        sup.record_success(slot)
        assert slot.failures == 0
        sup.record_failure(slot, 1, "crash", None)
        assert slot.state is SlotState.BACKOFF  # streak restarted at 1
        assert slot.total_failures == 2  # lifetime count still accumulates

    def test_collapsed_floor(self, patch):
        patch(MAX_SLOT_FAILURES=1)
        sup, _ = make(workers=3, min_workers=2)
        assert not sup.collapsed()
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert not sup.collapsed()  # 2 serviceable == floor
        sup.record_failure(sup.slots[1], 1, "crash", None)
        assert sup.collapsed()

    def test_min_workers_zero_still_floors_at_one(self, patch):
        patch(MAX_SLOT_FAILURES=1)
        sup, _ = make(workers=1, min_workers=0)
        assert not sup.collapsed()
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.collapsed()


class TestCircuitBreaker:
    """The verdict on a lost suspect: retry below ``max_task_retries``;
    at it, quarantine when the kills span more distinct workers than
    the budget, drop otherwise."""

    KEY = (0, 2)

    def task(self, attempt):
        return PrefixTask(prefix=self.KEY, attempt=attempt)

    @pytest.mark.parametrize("budget", [0, 1, 2, 4, 10])
    def test_the_verdict_follows_the_one_budget(self, budget):
        sup, _ = make(workers=1, max_task_retries=budget)
        slot = sup.slots[0]
        for attempt in range(budget):
            sup.record_failure(slot, attempt, "crash", self.KEY)
            assert sup.verdict(self.task(attempt)) == RETRY
        # At the budget, `budget` distinct killers do not outnumber it
        # (one attempt was lost without a kill, say to a steal)...
        assert sup.verdict(self.task(budget)) == DROP
        assert not sup.is_poisoned(self.KEY)
        # ... and one more distinct killer does.
        sup.record_failure(slot, budget, "crash", self.KEY)
        assert sup.verdict(self.task(budget)) == POISON
        assert sup.is_poisoned(self.KEY)
        assert len(sup.evidence[self.KEY]) == budget + 1

    def test_poison_needs_distinct_workers(self):
        sup, _ = make(workers=3, max_task_retries=1)
        slot = sup.slots[0]
        # The same worker id dying twice is one flaky worker, not
        # evidence against the task: it counts once.
        sup.record_failure(slot, 7, "crash", self.KEY)
        sup.record_failure(slot, 7, "crash", self.KEY)
        assert sup.verdict(self.task(1)) == DROP
        sup.record_failure(slot, 8, "timeout", self.KEY)
        assert sup.verdict(self.task(1)) == POISON
        assert sup.is_poisoned(self.KEY)
        evidence = sup.evidence[self.KEY]
        assert len(evidence) == 3
        assert {e["worker"] for e in evidence} == {7, 8}
        assert {e["kind"] for e in evidence} == {"crash", "timeout"}

    def test_evidence_is_stamped_with_the_supervisors_clock(self):
        sup, clock = make(workers=2)
        sup.record_failure(sup.slots[0], 0, "crash", self.KEY)
        clock.now += 2.5
        sup.record_failure(sup.slots[1], 1, "timeout", self.KEY)
        assert [e["time"] for e in sup.evidence[self.KEY]] == [100.0, 102.5]

    def test_poison_fires_once(self):
        sup, _ = make(workers=3, max_task_retries=0)
        sup.record_failure(sup.slots[0], 0, "crash", self.KEY)
        assert not sup.is_poisoned(self.KEY)
        assert sup.verdict(self.task(0)) == POISON
        # The coordinator skips a poisoned key before asking again.
        assert sup.is_poisoned(self.KEY)

    def test_idle_death_blames_no_task(self):
        sup, _ = make(workers=1, max_task_retries=0)
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.evidence == {}
        assert sup.verdict(self.task(0)) == DROP

    def test_external_quarantine(self):
        sup, _ = make(workers=1)
        sup.quarantine(self.KEY)  # journal recovery path
        assert sup.is_poisoned(self.KEY)
        assert self.KEY not in sup.evidence


class TestValidation:
    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(2, min_workers=-1)


class TestElasticSlots:
    """Slots grown mid-run for joined (external) workers."""

    def test_add_slot_indexes_append(self):
        sup, _ = make(workers=2)
        slot = sup.add_slot(respawnable=False)
        assert slot.index == 2
        assert sup.slots[2] is slot
        assert not slot.respawnable
        assert sup.serviceable() == 3

    def test_external_failure_is_terminal_not_backoff(self, patch):
        patch(MAX_SLOT_FAILURES=100)
        sup, _ = make(workers=1)
        slot = sup.add_slot(respawnable=False)
        sup.record_failure(slot, 5, "crash", None)
        assert slot.state is SlotState.DEAD
        assert slot.respawn_due == 0.0  # no respawn was scheduled
        assert slot not in sup.respawn_ready()

    def test_external_slot_sustains_a_dead_local_pool(self, patch):
        patch(MAX_SLOT_FAILURES=1)
        sup, _ = make(workers=1, min_workers=1)
        sup.add_slot(respawnable=False)
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.slots[0].state is SlotState.DEAD
        # The joined worker alone keeps the pool above the floor.
        assert not sup.collapsed()


class TestCollapseVsRespawn:
    def test_backoff_slot_still_counts_toward_the_floor(self):
        # A transient failure (BACKOFF, recovering) must not read as
        # collapse: only DEAD slots are written off.
        sup, _ = make(workers=2, min_workers=2)
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.slots[0].state is SlotState.BACKOFF
        assert not sup.collapsed()

    def test_collapse_races_respawn_deadline(self, patch):
        # Slot 0 is in BACKOFF (respawn pending) when slot 1 dies for
        # good: the pool collapses even though a respawn was due — the
        # engine checks collapse before spending the respawn.
        patch(BACKOFF_BASE_S=1.0, BACKOFF_JITTER=0.0, MAX_SLOT_FAILURES=2)
        sup, clock = make(workers=2, min_workers=2)
        sup.record_failure(sup.slots[0], 0, "crash", None)
        for wid in (1, 2):
            sup.record_failure(sup.slots[1], wid, "crash", None)
        assert sup.slots[1].state is SlotState.DEAD
        assert sup.collapsed()
        clock.now += 5.0
        assert sup.respawn_ready() == [sup.slots[0]]
        # Respawning the survivor does not un-collapse the pool.
        sup.mark_running(sup.slots[0])
        assert sup.collapsed()

    def test_backoff_saturates_at_cap_forever(self, patch):
        patch(BACKOFF_BASE_S=0.1, BACKOFF_MAX_S=0.5, BACKOFF_JITTER=0.0,
              MAX_SLOT_FAILURES=1000)
        sup, clock = make(workers=1)
        delays = [backoff(sup, clock, sup.slots[0], wid) for wid in range(40)]
        # no overflow, no drift
        assert delays[3:] == pytest.approx([0.5] * 37)


class TestHealth:
    def test_health_tracks_every_transition(self, patch):
        patch(BACKOFF_BASE_S=1.0, BACKOFF_JITTER=0.0, MAX_SLOT_FAILURES=2)
        sup, clock = make(workers=2)
        sup.add_slot(respawnable=False)
        assert [h["state"] for h in sup.health()] == ["running"] * 3
        sup.record_failure(sup.slots[0], 0, "crash", None)
        for wid in (1, 2):
            sup.record_failure(sup.slots[1], wid, "crash", None)
        health = sup.health()
        assert len(health) == len(sup.slots) == 3
        assert [h["state"] for h in health] == ["backoff", "dead", "running"]
        assert health[0]["respawn_in_s"] == pytest.approx(1.0)
        assert "respawn_in_s" not in health[1]
        assert health[1]["total_failures"] == 2
        # The countdown follows the clock and floors at zero.
        clock.now += 0.4
        assert sup.health()[0]["respawn_in_s"] == pytest.approx(0.6)
        clock.now += 10.0
        assert sup.health()[0]["respawn_in_s"] == 0.0
        sup.mark_running(sup.slots[0])
        entry = sup.health()[0]
        assert entry["state"] == "running"
        assert entry["respawns"] == 1

    def test_health_names_the_worker_in_each_slot(self):
        sup, _ = make(workers=2)
        sup.slots[1].ep = SimpleNamespace(wid=7)
        assert [h["worker"] for h in sup.health()] == [None, 7]
