"""The coordinator's rules for lost work, driven by scripted endpoints.

A worker's steal names the highest fence it has received.  A steal from
a worker that still owes leases then means one of two things: the
worker never got the batch (the steal crossed the dispatch, or the work
frame was lost), and the coordinator sends it again under the same
fences; or the worker got every fence it owes and is idle, so its
results were lost, and the coordinator reclaims the leases at once.
The only clock rule is the stall timeout.  The coordinator and the
worker body run in this process against scripted wires, on a fake
coordinator clock: nothing here sleeps.
"""

from collections import deque

import pytest

from repro.core import cluster
from repro.core.cluster import (
    ClusterConfig,
    ProcessParallelEngine,
    _Coordinator,
    _SubtreeWorker,
    _worker_main,
)
from repro.core.journal import scan
from repro.core.transport import TransportEvent
from repro.cpu.assembler import assemble
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TRACER
from repro.search.shard import PrefixTask
from repro.workloads.nqueens import nqueens_asm


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class ScriptedEndpoint:
    """A worker endpoint that records what the coordinator sends it."""

    def __init__(self, wid):
        self.wid = wid
        self.sent = []
        self.closed = False

    def send(self, msg):
        self.sent.append(msg)

    def alive(self):
        return not self.closed

    def kill(self):
        self.closed = True

    def poison(self):
        pass


class ScriptedTransport:
    """Stands in for the pipe transport: spawns scripted endpoints and
    delivers nothing by itself; each test hands events to the
    coordinator directly."""

    address = None

    def __init__(self, ctx, worker_main, start_wid=0):
        self._next_wid = start_wid

    def start(self, program, config):
        return self

    def spawn(self):
        self._next_wid += 1
        return ScriptedEndpoint(self._next_wid - 1)

    def poll(self, timeout):
        return []

    def close(self):
        pass


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def run(monkeypatch, tmp_path, clock):
    """A started coordinator with one scripted worker, three tasks on
    its frontier and a journal."""
    monkeypatch.setattr(cluster, "PipeTransport", ScriptedTransport)
    engine = ProcessParallelEngine(
        workers=1, batch_size=3, task_timeout=5.0, fsync="off",
        journal=str(tmp_path / "run.journal"),
    )
    coord = _Coordinator(engine, assemble(nqueens_asm(4)), None, clock=clock)
    coord.frontier.extend([PrefixTask(prefix=(1,), fanouts=(4,)),
                           PrefixTask(prefix=(2,), fanouts=(4,))])
    coord._start()
    yield coord
    coord.close()


def steal(coord, ep, fence):
    coord._on_event(TransportEvent("msg", ep, payload=("steal", ep.wid, fence)))


def dispatched_batch(coord):
    """Steal as a fresh worker does and return the batch it is granted."""
    ep = coord.sup.slots[0].ep
    steal(coord, ep, 0)
    coord._dispatch()
    assert len(ep.sent) == 1
    return ep, ep.sent[0][1]


def journal_types(coord):
    records, _skipped, _torn, _valid = scan(coord.engine.journal_path)
    return [record["type"] for record in records]


class TestSteal:
    def test_a_steal_below_the_owed_fences_gets_the_batch_again(
            self, run, clock):
        ep, batch = dispatched_batch(run)
        journal = journal_types(run)
        clock.now += 2.0
        steal(run, ep, 0)  # sent before the batch reached the worker
        assert len(ep.sent) == 2
        kind, resent, _budget, _events = ep.sent[1]
        assert kind == "work" and resent == batch  # same fences, attempts
        assert all(task.attempt == 0 for task in resent)
        # A re-send is not a dispatch: no counter, record or progress.
        assert run.c_tasks.value == len(batch) == 3
        assert run.c_dispatches.value == 1
        assert journal_types(run) == journal
        assert run.leases.quiet(ep.wid) == 2.0
        assert [lease.task for lease in run.leases.owned_by(ep.wid)] == batch
        assert run.c_lease_expired.value == 0 and not run.steal_queue

    def test_a_steal_that_covers_the_owed_fences_reclaims_them_at_once(
            self, run):
        ep, batch = dispatched_batch(run)
        steal(run, ep, max(task.fence for task in batch))
        assert len(ep.sent) == 1
        assert not run.leases.busy(ep.wid)
        assert run.c_lease_expired.value == 3
        assert journal_types(run).count("expire") == 3
        assert list(run.steal_queue) == [ep.wid]
        run._dispatch()
        regranted = ep.sent[1][1]
        assert sorted(t.key() for t in regranted) == sorted(
            t.key() for t in batch)
        assert all(task.attempt == 1 for task in regranted)
        assert min(t.fence for t in regranted) > max(t.fence for t in batch)

    def test_a_task_lost_to_three_covering_steals_is_dropped(self, run):
        """A reclaim costs a retry but kills no worker: at the default
        budget (2) the third reclaim gives each task up, and with no
        killer against it that is a drop, not a quarantine."""
        ep, batch = dispatched_batch(run)
        for reclaim in range(3):
            assert all(task.attempt == reclaim for task in batch)
            steal(run, ep, max(task.fence for task in batch))
            run._dispatch()
            batch = ep.sent[-1][1]
        assert len(ep.sent) == 3 and not run.frontier
        assert run.c_lease_expired.value == 9
        assert run.c_retries.value == 6 and run.c_dropped.value == 3
        types = journal_types(run)
        assert types.count("drop") == 3 and "poisoned" not in types
        assert run.poisoned == [] and run.c_poisoned.value == 0

    def test_a_result_under_a_fence_a_steal_reclaimed_settles_stale(
            self, run):
        ep, batch = dispatched_batch(run)
        steal(run, ep, max(task.fence for task in batch))
        assert not run.leases.busy(ep.wid)
        # The first task's result trails its worker's steal (reordered
        # frames) and arrives on the live endpoint under a fence the
        # reclaim revoked.
        worker_state = MetricsRegistry("w")
        worker_state.counter("parallel.guest_steps").inc(999)
        task = batch[0]
        run._on_event(TransportEvent("msg", ep, payload=(
            "task", ep.wid, task.key(), task.fence,
            [(task.prefix + (0,), "exit", "board")], [],
            worker_state.state_dict(), None, [],
        )))
        assert run.c_fenced.value == 1
        assert run.solutions == [] and run.c_done.value == 0
        assert run.reg.counter("parallel.guest_steps").value == 0
        assert journal_types(run).count("stale") == 1


class ScriptedConn:
    """A worker's end of the wire: the coordinator's frames are queued
    up front, and what the worker sends is recorded."""

    def __init__(self, *frames):
        self.frames = deque(frames)
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def poll(self, timeout):
        return True

    def recv(self):
        return self.frames.popleft()

    def close(self):
        pass


def test_a_worker_runs_a_re_sent_batch_once(monkeypatch):
    # The worker body forgets the tracer's sinks and stamps its id on
    # every event, as a forked child must; not in this process.
    monkeypatch.setattr(type(TRACER), "reset_sinks", lambda self: None)
    monkeypatch.setattr(type(TRACER), "set_context", lambda self, **f: None)
    program = assemble(nqueens_asm(4))
    config = ClusterConfig(subtree_depth=1, task_step_budget=None)
    _solutions, children = _SubtreeWorker(program, config).explore(
        PrefixTask(), None)
    batch = [children[0]._replace(fence=5), children[1]._replace(fence=6)]
    later = [children[2]._replace(fence=9)]
    conn = ScriptedConn(("work", batch, None, []), ("work", batch, None, []),
                        ("work", later, None, []), None)
    _worker_main(3, conn, program, config)
    assert [(msg[0], msg[3] if msg[0] == "task" else msg[2])
            for msg in conn.sent] == [
        ("steal", 0), ("task", 5), ("task", 6), ("steal", 6),
        ("task", 9), ("steal", 9),
    ]
