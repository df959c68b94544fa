"""Distributed engine differential battery: pipe vs TCP vs chaos-TCP.

The invariant throughout: whatever the transport does — real sockets,
dropped/duplicated/reordered frames, partitions, a killed coordinator —
the solution multiset and the accepted guest-instruction count match the
sequential run *exactly*.  Stale results from presumed-dead workers are
fenced off wholesale, so nothing is ever double-counted.
"""

import multiprocessing as mp
import socket
import time

import pytest

from repro.chaos import FaultPlan
from repro.core.cluster import ProcessParallelEngine
from repro.core.errors import CoordinatorKilled
from repro.core.journal import recover
from repro.core.machine import MachineEngine
from repro.obs import events as ev
from repro.obs.trace import TRACER
from repro.workloads.nqueens import KNOWN_SOLUTION_COUNTS, nqueens_asm


def solution_multiset(result):
    return sorted((s.path, s.value) for s in result.solutions)


@pytest.fixture(scope="module")
def sequential_5():
    return MachineEngine().run(nqueens_asm(5))


def engine(**kwargs):
    params = dict(workers=2, task_step_budget=1500, fsync="off")
    params.update(kwargs)
    return ProcessParallelEngine(**params)


def chaos_net_plan(seed):
    """The standard network-chaos mix used across tests and CI."""
    return FaultPlan(
        seed=seed,
        net_drop_rate=0.08,
        net_delay_rate=0.10,
        net_delay_s=0.05,
        net_dup_rate=0.08,
        net_reorder_rate=0.08,
        partition_rate=0.04,
        partition_frames=6,
        half_open_rate=0.03,
    )


class TestPipeVsTcpDifferential:
    """Same program, same config, different wire — identical answers."""

    def test_pipe_baseline(self, sequential_5):
        result = engine(transport="pipe").run(nqueens_asm(5))
        assert solution_multiset(result) == solution_multiset(sequential_5)
        assert (
            result.stats.extra["guest_instructions"]
            == sequential_5.stats.extra["guest_instructions"]
        )
        assert result.stats.extra["transport"] == "pipe"
        assert result.stats.extra["steals"] > 0  # pull model in use

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tcp_matches_sequential(self, sequential_5, workers):
        result = engine(transport="tcp", workers=workers).run(nqueens_asm(5))
        assert solution_multiset(result) == solution_multiset(sequential_5)
        # Exact work conservation: every subtree's steps are accounted
        # exactly once, regardless of worker count.
        assert (
            result.stats.extra["guest_instructions"]
            == sequential_5.stats.extra["guest_instructions"]
        )
        assert result.stats.extra["transport"] == "tcp"
        wire = result.stats.extra["transport_stats"]
        assert wire["frames_in"] > 0 and wire["frames_out"] > 0

    def test_tcp_matches_pipe_multiset(self, sequential_5):
        pipe = engine(transport="pipe").run(nqueens_asm(5))
        tcp = engine(transport="tcp").run(nqueens_asm(5))
        assert solution_multiset(pipe) == solution_multiset(tcp)
        assert (
            pipe.stats.extra["guest_instructions"]
            == tcp.stats.extra["guest_instructions"]
        )


class TestChaosTcp:
    """Network chaos on the TCP seam: exactness must survive."""

    def test_seed_sweep_exact_and_fenced(self, sequential_5):
        """Three seeds of the standard chaos mix (CI runs twenty).

        Every run must produce the exact multiset; across the sweep at
        least one stale result must actually have been fenced — the
        discard path is exercised, not just dormant.
        """
        baseline = solution_multiset(sequential_5)
        base_steps = sequential_5.stats.extra["guest_instructions"]
        fenced_total = 0
        for seed in (1, 2, 3):
            result = engine(
                transport="tcp",
                chaos=chaos_net_plan(seed),
                heartbeat_timeout=1.5,
                max_task_retries=10,
            ).run(nqueens_asm(5))
            assert result.exhausted, f"seed {seed} did not exhaust"
            assert solution_multiset(result) == baseline, f"seed {seed}"
            # Never double-counted: fenced results contribute neither
            # solutions (asserted above) nor steps.
            assert (
                result.stats.extra["guest_instructions"] == base_steps
            ), f"seed {seed}"
            fenced_total += result.stats.extra["fenced_stale"]
        assert fenced_total >= 1, (
            "chaos sweep never produced a fenced stale result — the "
            "discard path went unexercised"
        )

    def test_net_faults_surface_in_stats(self):
        result = engine(
            transport="tcp",
            chaos=chaos_net_plan(1),
            heartbeat_timeout=1.5,
            max_task_retries=10,
        ).run(nqueens_asm(5))
        wire = result.stats.extra["transport_stats"]
        assert wire["net_faults"] > 0

    def test_net_faults_surface_in_the_trace(self):
        """The transport reports each injected fault through ``poll``;
        faults on the frames that close the pool come after the last
        poll, so the trace may hold fewer than the transport counted."""
        with TRACER.capture() as sink:
            result = engine(
                transport="tcp",
                chaos=chaos_net_plan(1),
                heartbeat_timeout=1.5,
                max_task_retries=10,
            ).run(nqueens_asm(5))
        faults = [e for e in sink.events if e["type"] == ev.CHAOS_NET_FAULT]
        wire = result.stats.extra["transport_stats"]
        assert 1 <= len(faults) <= wire["net_faults"]
        assert {e["action"] for e in faults} <= {"drop", "delay", "dup",
                                                 "hold"}
        assert {e["direction"] for e in faults} <= {"c2w", "w2c"}
        assert all(isinstance(e["worker"], int) and isinstance(e["seq"], int)
                   for e in faults)


class TestKillAndResumeTcp:
    def test_coordinator_kill_then_resume_over_tcp(self, tmp_path,
                                                   sequential_5):
        journal = str(tmp_path / "run.journal")
        plan = FaultPlan(coordinator_kill_epoch=6, net_drop_rate=0.05)
        with pytest.raises(CoordinatorKilled):
            engine(
                transport="tcp", journal=journal, chaos=plan,
                heartbeat_timeout=1.5, max_task_retries=10,
            ).run(nqueens_asm(5))
        recovered = recover(journal)
        assert recovered.header.get("transport") == "tcp"
        # Dispatches were journaled with their fencing tokens, so the
        # resumed coordinator can seed its counter past them.
        assert recovered.last_fence >= 1
        result = engine(
            transport="tcp", journal=journal, resume=True,
        ).run(nqueens_asm(5))
        assert solution_multiset(result) == solution_multiset(sequential_5)
        assert result.exhausted
        assert result.stats.extra["resumed"] is True


def _external_worker(host, port, ready):
    # `tcp_worker` (the --connect entry) gives up when the coordinator
    # is not accepting yet; this joiner instead signals readiness and
    # dials until the acceptor appears, then serves one run.
    from repro.core.cluster import _worker_main
    from repro.core.transport import TcpWorkerConnection

    ready.set()
    deadline = time.monotonic() + 60.0
    while True:
        try:
            conn = TcpWorkerConnection((host, port), wid=None)
            break
        except (ConnectionError, OSError):
            if time.monotonic() >= deadline:
                return
            time.sleep(0.05)
    _worker_main(conn.wid, conn, conn.program, conn.config)


class TestElasticJoin:
    def test_external_worker_joins_and_contributes(self):
        # Reserve a port up front so the external joiner can start
        # dialing *before* the run begins — otherwise the spawned
        # interpreter's startup cost races the (short) search and the
        # single local worker may exhaust it before the join lands.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ctx = mp.get_context("spawn")
        ready = ctx.Event()
        proc = ctx.Process(
            target=_external_worker, args=("127.0.0.1", port, ready),
            daemon=True,
        )
        proc.start()
        try:
            assert ready.wait(60.0), "external worker never came up"
            eng = engine(
                workers=1, transport="tcp", listen=("127.0.0.1", port),
                task_step_budget=1500,
            )
            result = eng.run(nqueens_asm(6))
        finally:
            proc.terminate()
            proc.join(10.0)
        assert result.exhausted
        assert len(result.solutions) == KNOWN_SOLUTION_COUNTS[6]
        assert result.stats.extra["worker_joins"] >= 1
        assert result.stats.extra["guest_instructions"] == (
            MachineEngine().run(nqueens_asm(6))
            .stats.extra["guest_instructions"]
        )
