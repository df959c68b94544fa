"""Fault injection for the process-parallel engine.

Each test hands the engine a :class:`~repro.chaos.FaultPlan`, whose
worker hook runs inside worker processes just before a task is explored,
so these tests exercise the real failure paths: a worker dying mid-batch
(``os._exit``), a task stalling past its timeout, and a task that fails
on every retry.  The invariant under test is the paper's correctness
claim restated for distribution: no solution is lost and none is
duplicated, no matter which worker dies when.
"""

import multiprocessing

import pytest

from repro.chaos import FaultPlan
from repro.core import supervisor
from repro.core.cluster import ProcessParallelEngine
from repro.core.journal import scan
from repro.core.machine import MachineEngine
from repro.workloads.nqueens import nqueens_asm


def solution_set(result):
    return sorted((s.path, s.value) for s in result.solutions)


@pytest.fixture(scope="module")
def sequential_5():
    return MachineEngine().run(nqueens_asm(5))


@pytest.fixture
def fast_respawn(monkeypatch):
    """Respawn a dead worker's slot after 10 ms instead of 50."""
    monkeypatch.setattr(supervisor, "BACKOFF_BASE_S", 0.01)


@pytest.fixture
def fragile_slots(monkeypatch):
    """A slot whose worker dies once is dead for good."""
    monkeypatch.setattr(supervisor, "MAX_SLOT_FAILURES", 1)


# With subtree_depth=1 the root task explores the depth-0 guess locally
# and spills at the next guess, so every first-generation task has a
# length-2 prefix; (0, 2) is deterministically among them and its subtree
# contains exactly one 5-queens solution, (0, 2, 4, 1, 3).
_POISON = (0, 2)

#: Kill the worker the first time it is handed the poison subtree; the
#: retry (attempt >= 1) passes through.
_crash_first_attempt = FaultPlan(targets=((_POISON, "exit", 1),))

_stall_first_attempt = FaultPlan(targets=((_POISON, "stall", 1),),
                                 stall_seconds=60.0)

_crash_always = FaultPlan(targets=((_POISON, "exit", None),))

#: Kill the worker on the root task's first three attempts.
_crash_root_thrice = FaultPlan(targets=(((), "exit", 3),))

#: Every attempt of every task crashes, up to the highest retry budget
#: any test below sets (5).
_crash_every_task = FaultPlan(crash_rate=1.0, max_faulted_attempt=5)


class TestWorkerCrash:
    def test_crashed_tasks_are_retried(self, sequential_5):
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,  # guarantees subtree (0,) exists as a task
            task_step_budget=None,
            max_task_retries=2,
            chaos=_crash_first_attempt,
        )
        result = engine.run(nqueens_asm(5))
        # The full solution set survives: nothing lost, nothing doubled.
        assert solution_set(result) == solution_set(sequential_5)
        assert result.exhausted
        assert result.stats.extra["worker_crashes"] >= 1
        assert result.stats.extra["tasks_retried"] >= 1
        assert result.stats.extra["tasks_dropped"] == 0

    def test_permanently_failing_subtree_is_quarantined_at_the_budget(
            self, sequential_5):
        """Budget 1: the poison subtree is killed on attempts 0 and 1,
        by two distinct workers, which outnumber the budget."""
        engine = ProcessParallelEngine(
            workers=2,
            batch_size=1,  # isolate the poisoned task from innocents
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=1,
            chaos=_crash_always,
        )
        result = engine.run(nqueens_asm(5))
        extra = result.stats.extra
        assert not result.exhausted
        assert result.stop_reason == "tasks_poisoned"
        assert extra["worker_crashes"] == 2
        assert extra["tasks_poisoned"] == 1 and extra["tasks_dropped"] == 0
        [entry] = extra["poisoned_tasks"]
        assert tuple(entry["task"]["prefix"]) == _POISON
        assert len({e["worker"] for e in entry["evidence"]}) == 2
        # Exactly the poisoned subtree's solutions are missing; every
        # other solution is found exactly once, none invented.
        found = solution_set(result)
        full = solution_set(sequential_5)
        expected = [s for s in full if s[0][:2] != _POISON]
        assert len(expected) < len(full)  # the poison subtree had fruit
        assert found == expected


class TestTaskTimeout:
    def test_stalled_task_is_killed_and_retried(self, sequential_5):
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            task_timeout=1.0,
            max_task_retries=2,
            chaos=_stall_first_attempt,
        )
        result = engine.run(nqueens_asm(5))
        assert solution_set(result) == solution_set(sequential_5)
        assert result.exhausted
        assert result.stats.extra["task_timeouts"] >= 1
        assert result.stats.extra["tasks_retried"] >= 1

    def test_timeout_is_not_also_counted_as_crash(self):
        """One stalled worker is one timeout, not a timeout plus a crash.

        The timeout sweep terminates the worker itself; the dead process
        must not be re-detected by the crash sweep and double-counted
        (which would also burn a second retry for the same failure).
        """
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            task_timeout=1.0,
            max_task_retries=2,
            chaos=_stall_first_attempt,
        )
        result = engine.run(nqueens_asm(5))
        assert result.stats.extra["task_timeouts"] == 1
        assert result.stats.extra["worker_crashes"] == 0


class TestSupervision:
    def test_poisonous_task_is_quarantined_with_evidence(
            self, sequential_5, fast_respawn, monkeypatch):
        """At the budget, a task whose kills span more distinct workers
        than the budget is quarantined, not dropped."""
        monkeypatch.setattr(supervisor, "MAX_SLOT_FAILURES", 10)
        engine = ProcessParallelEngine(
            workers=2,
            batch_size=1,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=1,
            chaos=_crash_always,
        )
        result = engine.run(nqueens_asm(5))
        assert not result.exhausted
        assert result.stop_reason == "tasks_poisoned"
        assert result.stats.extra["tasks_poisoned"] == 1
        assert result.stats.extra["tasks_dropped"] == 0
        [entry] = result.stats.extra["poisoned_tasks"]
        assert tuple(entry["task"]["prefix"]) == _POISON
        workers_blamed = {e["worker"] for e in entry["evidence"]}
        assert len(workers_blamed) >= 2
        # Everything outside the quarantined subtree is still found.
        found = solution_set(result)
        expected = [
            s for s in solution_set(sequential_5) if s[0][:2] != _POISON
        ]
        assert found == expected

    def test_respawned_workers_keep_the_run_going(self, sequential_5,
                                                 fast_respawn):
        # A single worker slot: after the injected crash the run can
        # only finish if the supervisor respawns into that slot.
        engine = ProcessParallelEngine(
            workers=1,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=2,
            chaos=_crash_first_attempt,
        )
        result = engine.run(nqueens_asm(5))
        assert solution_set(result) == solution_set(sequential_5)
        assert result.stats.extra["respawns"] >= 1

    def test_pool_collapse_degrades_to_in_process(self, sequential_5,
                                                  fragile_slots):
        """Every worker dies on every task: the pool collapses, and the
        coordinator finishes the whole frontier in-process — losing
        throughput, not solutions."""
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=5,
            chaos=_crash_every_task,
        )
        result = engine.run(nqueens_asm(5))
        assert result.stats.extra["degraded"] is True
        assert solution_set(result) == solution_set(sequential_5)
        assert result.exhausted

    def test_degraded_run_is_dispatched_and_journaled_like_a_pool(
            self, tmp_path, sequential_5, fragile_slots):
        """In-process tasks are leased, counted and journaled exactly
        like remote ones: every dispatch is accounted, every completion
        names its worker, and every grant carries its own fence."""
        journal = str(tmp_path / "degraded.journal")
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=5,
            chaos=_crash_every_task,
            journal=journal,
        )
        result = engine.run(nqueens_asm(5))
        extra = result.stats.extra
        assert extra["degraded"] is True
        assert solution_set(result) == solution_set(sequential_5)
        assert extra["tasks_dispatched"] == (
            extra["tasks_completed"] + extra["tasks_retried"]
        )
        records, _skipped, _torn, _valid = scan(journal)
        completes = [r for r in records if r["type"] == "complete"]
        assert len(completes) == extra["tasks_completed"]
        assert all(isinstance(r.get("worker"), int) for r in completes)
        fences = [r["task"]["fence"] for r in records
                  if r["type"] == "dispatch"]
        assert len(fences) == extra["tasks_dispatched"]
        assert all(fence > 0 for fence in fences)
        assert len(set(fences)) == len(fences)


class TestOneBudget:
    def test_a_budget_above_the_kills_outlasts_them(self, sequential_5):
        """The root task is killed on attempts 0-2, by three distinct
        workers; budget 4 runs the fourth attempt, which passes."""
        engine = ProcessParallelEngine(
            workers=2,
            task_step_budget=2000,
            max_task_retries=4,
            chaos=_crash_root_thrice,
        )
        result = engine.run(nqueens_asm(5))
        extra = result.stats.extra
        assert result.exhausted
        assert solution_set(result) == solution_set(sequential_5)
        assert extra["worker_crashes"] == 3
        assert extra["tasks_poisoned"] == 0 and extra["tasks_dropped"] == 0


class TestLeaseExpiry:
    def test_a_healthy_worker_keeps_the_tail_of_a_long_batch(
            self, sequential_5):
        """Every result renews all the worker's leases.  Each task of an
        eight-task batch stalls 0.15 s, a quarter of the stall timeout,
        so the batch takes longer than the 0.6 s timeout while the
        worker never goes 0.6 s without delivering a result: no task may
        time out, no lease may be reclaimed and no result may be
        fenced."""
        engine = ProcessParallelEngine(
            workers=1,
            batch_size=8,
            task_step_budget=1000,
            task_timeout=0.6,
            chaos=FaultPlan(stall_rate=1.0, stall_seconds=0.15),
        )
        result = engine.run(nqueens_asm(5))
        extra = result.stats.extra
        assert result.exhausted
        assert solution_set(result) == solution_set(sequential_5)
        assert extra["leases_expired"] == 0
        assert extra["fenced_stale"] == 0
        assert extra["task_timeouts"] == 0
        assert extra["tasks_dispatched"] == extra["tasks_completed"]


class TestNondetWorkloadFaults:
    """Fault injection while the guest itself is nondeterministic.

    The recorded log is the arbiter: whatever workers die, a strict
    replay seeded with a fault-free recording must survive crashes,
    retries, degraded mode — solution-for-solution, path-for-path.
    """

    @pytest.fixture(scope="class")
    def recorded(self):
        import warnings

        from repro.workloads.nqueens import nqueens_randomized_asm

        guest = nqueens_randomized_asm(5)
        engine = MachineEngine(replay_mode="record")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = engine.run(guest)
        return guest, engine.recorder.log, solution_set(result)

    def run_quiet(self, engine, guest):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return engine.run(guest)

    def test_crashed_workers_cannot_perturb_replay(self, recorded):
        guest, log, baseline = recorded
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=2,
            chaos=_crash_first_attempt,
            verify="warn",
            replay_mode="strict",
            replay_log=log,
        )
        result = self.run_quiet(engine, guest)
        assert solution_set(result) == baseline
        assert result.stats.extra["worker_crashes"] >= 1
        assert result.stats.extra["nondet_conflicts"] == 0

    def test_degraded_replay_still_matches(self, recorded, fragile_slots):
        guest, log, baseline = recorded
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=5,
            chaos=_crash_every_task,
            verify="warn",
            replay_mode="strict",
            replay_log=log,
        )
        result = self.run_quiet(engine, guest)
        assert result.stats.extra["degraded"] is True
        assert solution_set(result) == baseline

    def test_crashed_recording_run_stays_self_consistent(self, recorded):
        """Record from scratch *while* workers crash: the merged log
        must still reproduce the faulted run exactly — a retried task's
        re-rolled entropy may only land where no durable solution
        depends on the original draw."""
        guest, _log, baseline = recorded
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=2,
            chaos=_crash_first_attempt,
            verify="warn",
            replay_mode="record",
        )
        result = self.run_quiet(engine, guest)
        assert len(solution_set(result)) == len(baseline)
        strict = MachineEngine(replay_mode="strict",
                               replay_log=engine.replay_log)
        replayed = self.run_quiet(strict, guest)
        assert solution_set(replayed) == solution_set(result)


class TestNoZombies:
    def test_no_live_children_after_faulted_run(self, fast_respawn):
        """Shutdown escalation reaps every worker, even after crashes."""
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=2,
            chaos=_crash_first_attempt,
        )
        engine.run(nqueens_asm(5))
        # active_children() also reaps finished processes; anything
        # still alive here survived the escalation chain.
        assert multiprocessing.active_children() == []

    def test_no_live_children_after_degraded_run(self, fragile_slots):
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=5,
            chaos=_crash_every_task,
        )
        engine.run(nqueens_asm(5))
        assert multiprocessing.active_children() == []
