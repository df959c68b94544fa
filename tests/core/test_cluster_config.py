"""The process engine's worker config is plain data, and the settings it
derives rather than takes are pinned here.

Every worker receives a :class:`ClusterConfig` (over TCP, pickled into
the welcome frame), so it must hold data only: the fault plan travels as
a :class:`~repro.chaos.FaultPlan` value, never as a hook.  The heartbeat
cadence and worker-side trace collection are not options: the engine
derives them from the telemetry surfaces and from the coordinator's
tracer.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.chaos import FaultPlan
from repro.core.cluster import ProcessParallelEngine
from repro.core.recorder import NondetLog
from repro.libos.files import HostFS
from repro.obs.trace import TRACER
from repro.workloads.nqueens import nqueens_asm


def walk(value, path="config"):
    """Yield ``(path, value)`` for every value reachable through
    dataclass fields and tuples."""
    yield path, value
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from walk(getattr(value, field.name),
                            f"{path}.{field.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from walk(item, f"{path}[{i}]")


class TestPlainData:
    def test_every_option_set_leaves_no_callable_in_the_config(
            self, tmp_path):
        plan = FaultPlan(
            seed=7, crash_rate=0.1, stall_rate=0.1, garbage_rate=0.1,
            stall_seconds=2.0, max_faulted_attempt=1,
            targets=(((0, 2), "exit", 1), ((1,), "garbage", None)),
            coordinator_kill_epoch=9, journal_tear_epoch=10,
            journal_bitflip_epoch=11,
            net_drop_rate=0.05, net_delay_rate=0.05, net_delay_s=0.01,
            net_dup_rate=0.05, net_reorder_rate=0.05, partition_rate=0.01,
            partition_frames=4, half_open_rate=0.01,
        )
        options = dict(
            workers=3, strategy="bfs", batch_size=2, subtree_depth=2,
            task_step_budget=900, max_steps_per_extension=100_000,
            max_solutions=5, task_timeout=4.0, max_task_retries=3,
            verify="warn", journal=str(tmp_path / "run.journal"),
            resume=True, fsync="always",
            min_workers=2, chaos=plan,
            replay_mode="record", replay_log=NondetLog(),
            input_script=b"input", hostfs=HostFS({"/data": b"x" * 10}),
            status_port=0, status_log=str(tmp_path / "status.jsonl"),
            status_interval=0.2, flight_dir=str(tmp_path / "flight"),
            transport="tcp", listen=("127.0.0.1", 0), heartbeat_timeout=3.0,
        )
        params = inspect.signature(ProcessParallelEngine).parameters
        assert set(options) == set(params)  # every option is set
        engine = ProcessParallelEngine(**options)
        config = engine.config
        assert config.chaos is plan
        callables = [path for path, value in walk(config) if callable(value)]
        assert callables == []
        shipped = pickle.loads(pickle.dumps(config))
        assert shipped == config
        assert shipped.chaos == plan


class TestDerivedDefaults:
    def test_no_surface_no_heartbeats(self):
        engine = ProcessParallelEngine(workers=1, task_step_budget=800)
        assert engine.config.heartbeat_interval is None
        assert engine.config.flight_events == 0
        result = engine.run(nqueens_asm(4))
        assert len(result.solutions) == 2
        assert engine.registry.get("telemetry.heartbeats").value == 0
        assert "heartbeats" not in result.stats.extra

    @pytest.mark.parametrize("surface", ["status_port", "status_log",
                                         "flight_dir"])
    def test_any_surface_beats_every_quarter_second(self, surface,
                                                    tmp_path):
        value = 0 if surface == "status_port" else str(tmp_path / surface)
        engine = ProcessParallelEngine(workers=1, **{surface: value})
        assert engine.config.heartbeat_interval == 0.25

    def test_a_short_status_interval_shortens_the_beat(self, tmp_path):
        engine = ProcessParallelEngine(
            workers=1, status_log=str(tmp_path / "s.jsonl"),
            status_interval=0.05,
        )
        assert engine.config.heartbeat_interval == 0.05

    def test_workers_collect_iff_a_sink_is_attached_at_run_start(self):
        engine = ProcessParallelEngine(workers=1, task_step_budget=800)
        untraced = engine.run(nqueens_asm(4)).stats.extra
        assert untraced["trace_events_merged"] == 0
        assert untraced["trace_dropped"] == 0
        with TRACER.capture() as sink:
            traced = engine.run(nqueens_asm(4)).stats.extra
        worker_events = [e for e in sink.events if "wseq" in e]
        assert worker_events
        assert traced["trace_events_merged"] == len(worker_events)
        assert traced["trace_dropped"] == 0


class TestArgumentChecks:
    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_task_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessParallelEngine(workers=1, task_timeout=timeout)

    def test_max_task_retries_must_not_be_negative(self):
        with pytest.raises(ValueError, match="max_task_retries"):
            ProcessParallelEngine(workers=1, max_task_retries=-1)
        assert ProcessParallelEngine(
            workers=1, max_task_retries=0).max_task_retries == 0
