"""FaultPlan: deterministic fault decisions and the journal fault hook.

The plan's decision functions are pure, so they are tested without any
processes; the hooks' end-to-end effects (workers actually dying,
coordinators actually killed) are covered by ``test_resume.py`` and the
chaos-sweep CLI.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import GARBAGE, WORKER_FAULTS, FaultPlan
from repro.core.errors import CoordinatorKilled
from repro.core.journal import TornWrite, decode_record, encode_record
from repro.search.shard import PrefixTask


def task(prefix=(0, 1), attempt=0):
    return PrefixTask(prefix=tuple(prefix), fanouts=(4,) * len(prefix),
                      attempt=attempt)


class TestDecisions:
    def test_deterministic_across_instances(self):
        a = FaultPlan(seed=3, crash_rate=0.3, stall_rate=0.2,
                      garbage_rate=0.2)
        b = FaultPlan(seed=3, crash_rate=0.3, stall_rate=0.2,
                      garbage_rate=0.2)
        tasks = [task((i, j)) for i in range(6) for j in range(6)]
        assert [a.worker_fault(t) for t in tasks] == \
               [b.worker_fault(t) for t in tasks]

    def test_seed_changes_the_schedule(self):
        tasks = [task((i,)) for i in range(64)]
        plans = [
            FaultPlan(seed=s, crash_rate=0.5).worker_fault
            for s in (0, 1)
        ]
        assert [plans[0](t) for t in tasks] != [plans[1](t) for t in tasks]

    def test_all_kinds_reachable(self):
        plan = FaultPlan(seed=0, crash_rate=0.33, stall_rate=0.33,
                         garbage_rate=0.33)
        kinds = {
            plan.worker_fault(task((i, j)))
            for i in range(8) for j in range(8)
        }
        assert set(WORKER_FAULTS) <= kinds

    def test_retries_run_fault_free(self):
        plan = FaultPlan(seed=0, crash_rate=1.0)
        assert plan.worker_fault(task(attempt=0)) == "exit"
        assert plan.worker_fault(task(attempt=1)) is None
        deeper = FaultPlan(seed=0, crash_rate=1.0, max_faulted_attempt=1)
        assert deeper.worker_fault(task(attempt=1)) == "exit"
        assert deeper.worker_fault(task(attempt=2)) is None

    def test_poison_prefixes_crash_every_attempt(self):
        plan = FaultPlan(seed=0, targets=(((0, 2), "exit", None),))
        assert plan.worker_fault(task((0, 2), attempt=5)) == "exit"
        assert plan.worker_fault(task((0, 3), attempt=0)) is None

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=0.6, stall_rate=0.5)

    @pytest.mark.parametrize("fields", [
        {"crash_rate": -0.1},
        {"garbage_rate": 1.01},
        {"crash_rate": float("nan")},
        {"net_drop_rate": 2.0},
        {"net_delay_rate": -0.5},
        {"net_dup_rate": 1.5},
        {"net_reorder_rate": -1.0},
        {"partition_rate": 3.0},
        {"half_open_rate": -0.01},
        {"stall_seconds": -1.0},
        {"net_delay_s": -0.05},
        {"targets": (((0, 2), "explode", None),)},
    ], ids=lambda fields: "-".join(fields))
    def test_out_of_range_fields_are_rejected(self, fields):
        with pytest.raises(ValueError):
            FaultPlan(**fields)

    def test_a_negative_rate_cannot_offset_another(self):
        # The sum check alone passed this plan, which then stalled about
        # half of all tasks and crashed none.
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=-1.0, stall_rate=1.5)

    def test_sterile_strips_coordinator_faults_only(self):
        plan = FaultPlan(seed=9, crash_rate=0.2, coordinator_kill_epoch=5,
                         journal_tear_epoch=6, journal_bitflip_epoch=7)
        sterile = plan.sterile()
        assert sterile.coordinator_kill_epoch is None
        assert sterile.journal_tear_epoch is None
        assert sterile.journal_bitflip_epoch is None
        assert sterile.seed == 9
        assert sterile.crash_rate == 0.2  # worker faults survive resume


class TestTargets:
    def test_target_fires_below_its_attempt_bound_only(self):
        plan = FaultPlan(targets=(((0, 2), "stall", 2),))
        assert plan.worker_fault(task((0, 2), attempt=0)) == "stall"
        assert plan.worker_fault(task((0, 2), attempt=1)) == "stall"
        assert plan.worker_fault(task((0, 2), attempt=2)) is None
        assert plan.worker_fault(task((0, 2), attempt=3)) is None
        # Exactly that prefix: neither its parent nor its children.
        assert plan.worker_fault(task((0,), attempt=0)) is None
        assert plan.worker_fault(task((0, 2, 1), attempt=0)) is None

    def test_unbounded_target_fires_on_every_attempt(self):
        plan = FaultPlan(targets=(((1, 3), "garbage", None),))
        assert all(
            plan.worker_fault(task((1, 3), attempt=a)) == "garbage"
            for a in range(20)
        )

    def test_target_wins_over_the_rate_roll(self):
        plan = FaultPlan(crash_rate=1.0,
                         targets=(((0, 2), "garbage", None),))
        assert plan.worker_fault(task((0, 2), attempt=0)) == "garbage"
        assert plan.worker_fault(task((0, 3), attempt=0)) == "exit"

    def test_target_ignores_max_faulted_attempt(self):
        plan = FaultPlan(crash_rate=1.0, max_faulted_attempt=0,
                         targets=(((0, 2), "stall", 4),))
        assert plan.worker_fault(task((0, 2), attempt=3)) == "stall"
        # Past the target's own bound the rate roll applies again, and
        # max_faulted_attempt keeps it off.
        assert plan.worker_fault(task((0, 2), attempt=4)) is None
        assert plan.worker_fault(task((0, 3), attempt=1)) is None

    def test_target_prefixes_are_normalised_to_tuples(self):
        listed = FaultPlan(targets=[([0, 2], "exit", 1)])
        assert listed.targets == (((0, 2), "exit", 1),)
        assert listed == FaultPlan(targets=(((0, 2), "exit", 1),))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        rates=st.lists(st.floats(0.0, 1 / 3), min_size=3, max_size=3),
        max_faulted=st.integers(0, 3),
        targets=st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), max_size=3),
                st.sampled_from(WORKER_FAULTS),
                st.one_of(st.none(), st.integers(0, 4)),
            ),
            max_size=3,
        ),
        probes=st.lists(
            st.tuples(st.lists(st.integers(0, 3), max_size=3),
                      st.integers(0, 6)),
            min_size=1, max_size=20,
        ),
    )
    def test_equal_plans_decide_alike(self, seed, rates, max_faulted,
                                      targets, probes):
        fields = dict(
            seed=seed, crash_rate=rates[0], stall_rate=rates[1],
            garbage_rate=rates[2], max_faulted_attempt=max_faulted,
        )
        a = FaultPlan(targets=tuple(
            (tuple(p), kind, n) for p, kind, n in targets
        ), **fields)
        b = FaultPlan(targets=[(list(p), kind, n) for p, kind, n in targets],
                      **fields)
        shipped = pickle.loads(pickle.dumps(a))  # what a worker receives
        assert a == b == shipped
        for prefix, attempt in probes:
            t = task(prefix, attempt)
            assert a.worker_fault(t) == b.worker_fault(t) \
                == shipped.worker_fault(t)


class TestJournalHook:
    LINE = encode_record({"epoch": 5, "type": "dispatch", "n": 1})

    def test_kill_at_epoch(self):
        plan = FaultPlan(coordinator_kill_epoch=5)
        assert plan.journal_hook(4, self.LINE) is None
        with pytest.raises(CoordinatorKilled) as err:
            plan.journal_hook(5, self.LINE)
        assert err.value.epoch == 5

    def test_tear_keeps_a_genuine_prefix(self):
        plan = FaultPlan(journal_tear_epoch=5)
        with pytest.raises(TornWrite) as err:
            plan.journal_hook(5, self.LINE)
        partial = err.value.partial
        assert self.LINE.startswith(partial)
        assert 0 < len(partial) < len(self.LINE)
        assert not partial.endswith("\n")  # the newline never lands

    def test_bitflip_defeats_the_crc(self):
        plan = FaultPlan(seed=2, journal_bitflip_epoch=5)
        mutated = plan.journal_hook(5, self.LINE)
        assert mutated is not None and mutated != self.LINE
        assert mutated.endswith("\n")
        assert decode_record(mutated) is None

    def test_garbage_is_not_picklable_framing(self):
        # The constant must never accidentally decode: the coordinator's
        # protocol-error path is what the injection exists to exercise.
        import pickle

        with pytest.raises(Exception):
            pickle.loads(GARBAGE)
