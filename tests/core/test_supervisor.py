"""WorkerSupervisor: slot state machine, backoff, circuit breaker.

The supervisor is pure bookkeeping (it never touches processes), so
everything here runs with a fake clock and no workers.
"""

import pytest

from repro.core.supervisor import (
    SlotState,
    SupervisorPolicy,
    WorkerSupervisor,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make(workers=2, **policy):
    clock = FakeClock()
    sup = WorkerSupervisor(workers, SupervisorPolicy(**policy), clock=clock)
    return sup, clock


class TestBackoff:
    def test_exponential_growth_with_cap(self):
        sup, _ = make(
            workers=1, backoff_base=0.1, backoff_max=0.5, backoff_jitter=0.0,
            max_slot_failures=100,
        )
        slot = sup.slots[0]
        delays = [
            sup.record_failure(slot, wid, "crash", None).backoff
            for wid in range(5)
        ]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_per_seed(self):
        a, _ = make(workers=1, backoff_jitter=0.5, seed=7,
                    max_slot_failures=100)
        b, _ = make(workers=1, backoff_jitter=0.5, seed=7,
                    max_slot_failures=100)
        da = [a.record_failure(a.slots[0], i, "crash", None).backoff
              for i in range(4)]
        db = [b.record_failure(b.slots[0], i, "crash", None).backoff
              for i in range(4)]
        assert da == db
        c, _ = make(workers=1, backoff_jitter=0.5, seed=8,
                    max_slot_failures=100)
        dc = [c.record_failure(c.slots[0], i, "crash", None).backoff
              for i in range(4)]
        assert da != dc

    def test_respawn_due_respects_clock(self):
        sup, clock = make(workers=1, backoff_base=1.0, backoff_jitter=0.0)
        slot = sup.slots[0]
        decision = sup.record_failure(slot, 0, "crash", None)
        assert slot.state is SlotState.BACKOFF
        assert sup.respawn_ready() == []
        assert sup.next_respawn_due() == pytest.approx(clock() + 1.0)
        clock.now += decision.backoff + 0.01
        assert sup.respawn_ready() == [slot]
        sup.mark_running(slot)
        assert slot.state is SlotState.RUNNING
        assert slot.respawns == 1


class TestSlotDeath:
    def test_slot_dies_after_consecutive_failures(self):
        sup, _ = make(workers=2, max_slot_failures=2)
        slot = sup.slots[0]
        assert not sup.record_failure(slot, 0, "crash", None).slot_died
        decision = sup.record_failure(slot, 1, "crash", None)
        assert decision.slot_died
        assert slot.state is SlotState.DEAD
        assert decision.backoff == 0.0
        assert sup.serviceable() == 1

    def test_success_resets_the_streak(self):
        sup, _ = make(workers=1, max_slot_failures=2)
        slot = sup.slots[0]
        sup.record_failure(slot, 0, "crash", None)
        sup.mark_running(slot)
        sup.record_success(slot)
        assert slot.failures == 0
        decision = sup.record_failure(slot, 1, "crash", None)
        assert not decision.slot_died  # streak restarted at 1
        assert slot.total_failures == 2  # lifetime count still accumulates

    def test_collapsed_floor(self):
        sup, _ = make(workers=3, min_workers=2, max_slot_failures=1)
        assert not sup.collapsed()
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert not sup.collapsed()  # 2 serviceable == floor
        sup.record_failure(sup.slots[1], 1, "crash", None)
        assert sup.collapsed()

    def test_min_workers_zero_still_floors_at_one(self):
        sup, _ = make(workers=1, min_workers=0, max_slot_failures=1)
        assert not sup.collapsed()
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.collapsed()


class TestCircuitBreaker:
    KEY = (0, 2)

    def test_poison_needs_distinct_workers(self):
        sup, _ = make(workers=3, poison_threshold=2, max_slot_failures=100)
        slot = sup.slots[0]
        # The same worker id dying twice is one flaky worker, not
        # evidence against the task.
        assert not sup.record_failure(slot, 7, "crash", self.KEY).poison
        assert not sup.record_failure(slot, 7, "crash", self.KEY).poison
        decision = sup.record_failure(slot, 8, "timeout", self.KEY)
        assert decision.poison
        assert sup.is_poisoned(self.KEY)
        assert len(decision.evidence) == 3
        assert {e["worker"] for e in decision.evidence} == {7, 8}
        assert {e["kind"] for e in decision.evidence} == {"crash", "timeout"}

    def test_evidence_is_stamped_with_the_supervisors_clock(self):
        sup, clock = make(workers=2, poison_threshold=1,
                          max_slot_failures=100)
        sup.record_failure(sup.slots[0], 0, "crash", self.KEY)
        clock.now += 2.5
        decision = sup.record_failure(sup.slots[1], 1, "timeout", self.KEY)
        assert [e["time"] for e in decision.evidence] == [100.0, 102.5]

    def test_poison_fires_once(self):
        sup, _ = make(workers=3, poison_threshold=1, max_slot_failures=100)
        assert sup.record_failure(sup.slots[0], 0, "crash", self.KEY).poison
        assert not sup.record_failure(
            sup.slots[1], 1, "crash", self.KEY
        ).poison  # already quarantined

    def test_idle_death_blames_no_task(self):
        sup, _ = make(workers=1, poison_threshold=1, max_slot_failures=100)
        decision = sup.record_failure(sup.slots[0], 0, "crash", None)
        assert not decision.poison
        assert decision.evidence == []

    def test_external_quarantine(self):
        sup, _ = make(workers=1)
        sup.quarantine(self.KEY)  # journal recovery path
        assert sup.is_poisoned(self.KEY)
        assert sup.evidence_for(self.KEY) == []


class TestValidation:
    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(2, SupervisorPolicy(min_workers=-1))
        with pytest.raises(ValueError):
            WorkerSupervisor(2, SupervisorPolicy(poison_threshold=0))


class TestElasticSlots:
    """Slots grown mid-run for joined (external) workers."""

    def test_add_slot_indexes_append(self):
        sup, _ = make(workers=2)
        slot = sup.add_slot(respawnable=False)
        assert slot.index == 2
        assert sup.slots[2] is slot
        assert not slot.respawnable
        assert sup.serviceable() == 3

    def test_external_failure_is_terminal_not_backoff(self):
        sup, _ = make(workers=1, max_slot_failures=100)
        slot = sup.add_slot(respawnable=False)
        decision = sup.record_failure(slot, 5, "crash", None)
        assert slot.state is SlotState.DEAD
        assert decision.slot_died
        assert decision.backoff == 0.0
        assert slot not in sup.respawn_ready()

    def test_external_slot_sustains_a_dead_local_pool(self):
        sup, _ = make(workers=1, min_workers=1, max_slot_failures=1)
        sup.add_slot(respawnable=False)
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.slots[0].state is SlotState.DEAD
        # The joined worker alone keeps the pool above the floor.
        assert not sup.collapsed()


class TestCollapseVsRespawn:
    def test_backoff_slot_still_counts_toward_the_floor(self):
        # A transient failure (BACKOFF, recovering) must not read as
        # collapse: only DEAD slots are written off.
        sup, _ = make(workers=2, min_workers=2, max_slot_failures=4)
        sup.record_failure(sup.slots[0], 0, "crash", None)
        assert sup.slots[0].state is SlotState.BACKOFF
        assert not sup.collapsed()

    def test_collapse_races_respawn_deadline(self):
        # Slot 0 is in BACKOFF (respawn pending) when slot 1 dies for
        # good: the pool collapses even though a respawn was due — the
        # engine checks collapse before spending the respawn.
        sup, clock = make(
            workers=2, min_workers=2, backoff_base=1.0,
            backoff_jitter=0.0, max_slot_failures=2,
        )
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

    def test_backoff_saturates_at_cap_forever(self):
        sup, _ = make(
            workers=1, backoff_base=0.1, backoff_max=0.5,
            backoff_jitter=0.0, max_slot_failures=1000,
        )
        slot = sup.slots[0]
        delays = [
            sup.record_failure(slot, wid, "crash", None).backoff
            for wid in range(40)
        ]
        assert all(d == 0.5 for d in delays[3:])  # no overflow, no drift


class TestHealth:
    def test_health_tracks_every_transition(self):
        sup, clock = make(
            workers=2, backoff_base=1.0, backoff_jitter=0.0,
            max_slot_failures=2,
        )
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
