"""Live telemetry through the real process-parallel engine.

Acceptance properties from the observability work:

* a run with a status server answers ``/status`` and ``/metrics``
  *while workers are exploring*, and the final snapshot's metrics equal
  the engine's end-of-run registry exactly (committed + uncommitted
  folding never double- or under-counts);
* the Prometheus exposition carries the same final counter values;
* per-worker figures are one fold of the results the coordinator
  accepts: sealed, they add up to the run totals, the in-process
  endpoint of a degraded run included, and the status log's last
  sample is written after the one seal;
* the coordinator writes the status log from its own loop, on its
  clock, and starts no thread for it;
* chaos-killing a worker produces a flight-recorder dump containing
  that worker's last trace events, shipped via heartbeats before the
  kill (no worker-side flush could survive ``os._exit``).

Fault plans are module-level (pickled into spawned workers).
"""

import json
import os
import threading
import time
import urllib.request
from dataclasses import dataclass

import pytest

from repro.chaos import FaultPlan
from repro.core import cluster
from repro.core.cluster import ProcessParallelEngine, _Coordinator
from repro.core.machine import MachineEngine
from repro.cpu.assembler import assemble
from repro.workloads.nqueens import nqueens_asm
from tests.core.test_lost_work import (
    FakeClock,
    ScriptedTransport,
    dispatched_batch,
)


def solution_set(result):
    return sorted((s.path, s.value) for s in result.solutions)


@pytest.fixture(scope="module")
def sequential_5():
    return MachineEngine().run(nqueens_asm(5))


# See test_cluster_faults: with subtree_depth=1 the prefix (0, 2) is
# deterministically a first-generation task of the 5-queens tree.
_POISON = (0, 2)

_crash_first_attempt = FaultPlan(targets=((_POISON, "exit", 1),))


@dataclass(frozen=True)
class _HoldUntilProbed(FaultPlan):
    """A test fake on the plan's worker seam: hold one first-generation
    task until the probe has scraped a mid-run ``/metrics`` body carrying
    the step counter (it touches *flag_path*), so the run cannot finish
    (and stop its server) first.  Bounded well under the task timeout."""

    flag_path: str = ""

    def worker_hook(self, task) -> None:
        if task.attempt == 0 and task.prefix == _POISON:
            deadline = time.monotonic() + 10.0
            while (not os.path.exists(self.flag_path)
                   and time.monotonic() < deadline):
                time.sleep(0.01)


class _MidRunProbe(threading.Thread):
    """Polls the status endpoints from another thread during the run;
    touches *flag_path* once a ``/metrics`` body shows the step counter."""

    def __init__(self, url, flag_path=None):
        super().__init__(daemon=True)
        self.url = url
        self.flag_path = flag_path
        self.statuses = []
        self.metrics_bodies = []
        self.stop = threading.Event()

    def run(self):
        while not self.stop.is_set():
            try:
                with urllib.request.urlopen(
                        self.url + "/status", timeout=2) as resp:
                    self.statuses.append(json.loads(resp.read()))
                with urllib.request.urlopen(
                        self.url + "/metrics", timeout=2) as resp:
                    body = resp.read().decode()
                self.metrics_bodies.append(body)
                if (self.flag_path is not None
                        and "repro_parallel_guest_steps_total" in body):
                    open(self.flag_path, "a").close()
            except OSError:
                pass
            self.stop.wait(0.02)


class TestLiveEndpoints:
    def test_mid_run_serving_and_final_exactness(self, tmp_path,
                                                 sequential_5):
        log_path = str(tmp_path / "status.jsonl")
        probed = str(tmp_path / "probed")
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            status_port=0,
            status_log=log_path,
            status_interval=0.05,
            chaos=_HoldUntilProbed(flag_path=probed),
        )

        probe_holder = {}

        def _probe_when_up():
            # The server starts inside run(); wait for it, then poll.
            while engine.status_server is None:
                if stop_waiting.is_set():
                    return
                threading.Event().wait(0.01)
            probe = _MidRunProbe(engine.status_server.url, probed)
            probe_holder["probe"] = probe
            probe.run()  # reuse this thread as the poll loop

        stop_waiting = threading.Event()
        waiter = threading.Thread(target=_probe_when_up, daemon=True)
        waiter.start()
        try:
            result = engine.run(nqueens_asm(5))
        finally:
            stop_waiting.set()
            probe = probe_holder.get("probe")
            if probe is not None:
                probe.stop.set()
            waiter.join(timeout=5)

        # Correctness is never traded for telemetry.
        assert solution_set(result) == solution_set(sequential_5)
        assert result.exhausted

        # The probe observed the run in flight.
        assert probe is not None and probe.statuses
        for snap in probe.statuses:
            assert snap["schema"] == 1
            assert snap["workers"] == 2
            assert 0.0 <= snap["coverage"]["fraction"] <= 1.0
        assert any("repro_parallel_guest_steps_total" in body
                   for body in probe.metrics_bodies)

        # Final snapshot metrics == engine registry, exactly.
        final = engine.status.snapshot()
        assert final["done"]
        assert final["metrics"] == engine.registry.as_dict()
        assert final["coverage"]["fraction"] == 1.0
        assert final["tasks"]["pending"] == 0
        assert final["solutions"] == len(sequential_5.solutions)
        assert result.stats.extra["heartbeats"] > 0

        # Prometheus text carries the same final counters.
        prom = engine.status.prometheus()
        steps = engine.registry.get("parallel.guest_steps").value
        assert f"repro_parallel_guest_steps_total {steps}" in prom

        # The status log is a replayable trajectory ending in `done`.
        samples = [json.loads(line)
                   for line in open(log_path, encoding="utf-8")]
        assert samples[-1]["done"] is True
        assert (samples[-1]["throughput"]["steps_total"]
                == final["throughput"]["steps_total"])
        seqs = [s["seq"] for s in samples]
        assert seqs == sorted(seqs)


def _run_totals(snapshot):
    """The per-worker figures of *snapshot* summed, beside the run's."""
    detail = snapshot["workers_detail"]
    return ((sum(entry.get("steps", 0) for entry in detail),
             sum(entry.get("tasks_done", 0) for entry in detail)),
            (snapshot["throughput"]["steps_total"],
             snapshot["tasks"]["done"]))


class TestOneFold:
    def test_sealed_worker_figures_add_up_to_the_run(self, tmp_path,
                                                      monkeypatch):
        seals = []
        finalize = _Coordinator._finalize

        def counted(coord):
            seals.append(coord)
            finalize(coord)

        monkeypatch.setattr(_Coordinator, "_finalize", counted)
        log_path = str(tmp_path / "status.jsonl")
        engine = ProcessParallelEngine(
            workers=2, task_step_budget=2000, status_log=log_path,
            status_interval=0.1,
        )
        result = engine.run(nqueens_asm(6))
        assert len(seals) == 1
        extra = result.stats.extra
        assert extra["worker_crashes"] == extra["task_timeouts"] == 0
        final = engine.status.snapshot()
        workers, run = _run_totals(final)
        assert workers == run == (
            extra["guest_instructions"] + extra["replay_steps"],
            extra["tasks_completed"],
        )
        # The last sample is written after the run is sealed, once.
        last = [json.loads(line)
                for line in open(log_path, encoding="utf-8")][-1]
        assert last["done"]
        assert last["metrics"] == engine.registry.as_dict()
        assert _run_totals(last) == (run, run)

    def test_the_in_process_endpoint_shows_its_figures(self):
        engine = ProcessParallelEngine(
            workers=1, min_workers=2,
            task_step_budget=2000,
        )
        result = engine.run(nqueens_asm(5))
        extra = result.stats.extra
        assert extra["degraded"]
        [local] = [entry for entry in engine.status.snapshot()
                   ["workers_detail"] if entry["worker"] == -1]
        assert local["tasks_done"] == extra["tasks_completed"] == 13
        assert local["steps"] == (
            extra["guest_instructions"] + extra["replay_steps"]) == 5293


class TestTheCoordinatorsClock:
    """A coordinator on a fake clock over scripted endpoints: nothing
    here sleeps, and every stamp is a reading of that clock."""

    def _start(self, monkeypatch, clock, **telemetry):
        monkeypatch.setattr(cluster, "PipeTransport", ScriptedTransport)
        engine = ProcessParallelEngine(workers=1, batch_size=3,
                                       task_timeout=5.0, **telemetry)
        coord = _Coordinator(engine, assemble(nqueens_asm(4)), None,
                             clock=clock)
        threads = set(threading.enumerate())
        coord._start()
        assert set(threading.enumerate()) == threads
        return coord

    def test_the_loop_writes_the_status_log(self, monkeypatch, tmp_path):
        clock = FakeClock()
        log_path = str(tmp_path / "status.jsonl")
        coord = self._start(monkeypatch, clock, status_log=log_path,
                            status_interval=0.5)
        stamps = [clock.now]
        try:
            def samples():
                return [json.loads(line)
                        for line in open(log_path, encoding="utf-8")]

            assert [s["ts"] for s in samples()] == stamps
            clock.now += 0.3
            coord._refresh()  # the status refreshes; no sample is due
            assert [s["ts"] for s in samples()] == stamps
            clock.now += 0.3
            coord._refresh()
            stamps.append(clock.now)
            assert [s["ts"] for s in samples()] == stamps
            clock.now += 0.1
        finally:
            coord.close()
        stamps.append(clock.now)
        assert [s["ts"] for s in samples()] == stamps
        assert [s["done"] for s in samples()] == [False, False, True]

    def test_a_flight_header_reads_the_clock(self, monkeypatch, tmp_path):
        clock = FakeClock()
        coord = self._start(monkeypatch, clock,
                            flight_dir=str(tmp_path / "flight"))
        try:
            dispatched_batch(coord)
            clock.now += coord.engine.task_timeout + 0.1
            coord._check_workers()
        finally:
            coord.close()
        [dump] = coord.flight.dumps
        header = json.loads(open(dump, encoding="utf-8").readline())
        assert header["kind"] == "timeout" and header["ts"] == clock.now


class TestFlightRecorder:
    def test_chaos_crash_dumps_worker_ring(self, tmp_path, sequential_5):
        flight_dir = str(tmp_path / "flight")
        engine = ProcessParallelEngine(
            workers=2,
            subtree_depth=1,
            task_step_budget=None,
            max_task_retries=2,
            chaos=_crash_first_attempt,
            flight_dir=flight_dir,
        )
        result = engine.run(nqueens_asm(5))
        assert solution_set(result) == solution_set(sequential_5)

        dumps = result.stats.extra["flight_dumps"]
        assert dumps, "a crashed worker must leave a post-mortem"
        assert result.stats.extra["flight_dumps"] == engine.flight_recorder.dumps
        crash_dumps = [d for d in dumps if "-crash-" in os.path.basename(d)]
        assert crash_dumps
        for path in crash_dumps:
            lines = [json.loads(line)
                     for line in open(path, encoding="utf-8")]
            header, events = lines[0], lines[1:]
            assert header["type"] == "flight.header"
            assert header["kind"] == "crash"
            assert header["events"] == len(events)
            # The ring holds the dead worker's own trace events; the
            # forced beat at task dispatch ships task.begin before the
            # fault hook can kill the process.
            assert events, "ring must not be empty for a beating worker"
            assert all(e.get("worker") == header["worker"] for e in events)
            assert any(e["type"] == "task.begin" for e in events)
