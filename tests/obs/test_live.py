"""Live-telemetry units: emitter, status fold, ring, exporters.

The coordinator's fold gets the progress, order-independence and
exactness properties the module docstrings promise: a beat carries only
the worker's uncommitted registry state, and a worker's figures are its
accepted results plus its latest beat.
"""

import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.live import (
    FlightRecorder,
    HeartbeatEmitter,
    RingSink,
    StatusLogger,
    StatusServer,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.status import (
    HeartbeatRecord,
    RunStatus,
    render_prometheus,
    subtree_weight,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_METRIC_NAMES = st.sampled_from([
    "parallel.guest_steps", "parallel.replay_steps",
    "mem.frames_copied", "parallel.worker_spills", "search.guesses",
])
_COUNTER_STATE = st.fixed_dictionaries(
    {"kind": st.just("counter"), "value": st.integers(0, 2**40)}
)
_STATE_DICTS = st.dictionaries(_METRIC_NAMES, _COUNTER_STATE, max_size=4)
_TASKS = st.one_of(
    st.none(), st.lists(st.integers(0, 9), max_size=6).map(tuple)
)
_EVENTS = st.lists(
    st.fixed_dictionaries({
        "seq": st.integers(0, 1000),
        "type": st.sampled_from(["search.guess", "task.begin"]),
        "n": st.integers(0, 8),
    }),
    max_size=4,
).map(tuple)

_RECORDS = st.builds(
    HeartbeatRecord,
    worker=st.integers(0, 3),
    seq=st.integers(0, 20),
    state=_STATE_DICTS,
    task=_TASKS,
    span=st.one_of(st.none(), st.integers(1, 64)),
    phase=st.sampled_from(["exploring", "idle", "failed"]),
    events=_EVENTS,
)


class _FakeConn:
    """Captures messages an emitter ships over the 'pipe'."""

    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


class _Clock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Heartbeat codec
# ----------------------------------------------------------------------


class TestHeartbeatCodec:
    def test_registry_state_round_trips_with_histograms(self):
        # A real registry state survives the JSON hop closely enough
        # that merge_state rebuilds the same registry.
        reg = MetricsRegistry("w")
        reg.counter("parallel.guest_steps").inc(7)
        reg.gauge("snapshot.live").set(3)
        reg.timer("parallel.task_time").record(0.5)
        wire = json.loads(json.dumps(reg.state_dict()))
        merged = MetricsRegistry("m")
        merged.merge_state(wire)
        assert merged.as_dict() == reg.as_dict()


# ----------------------------------------------------------------------
# Emitter
# ----------------------------------------------------------------------


class TestHeartbeatEmitter:
    def test_seq_monotonic_and_rate_limited(self):
        clock = _Clock()
        conn = _FakeConn()
        reg = MetricsRegistry("w")
        emitter = HeartbeatEmitter(conn, 3, reg, interval=1.0, clock=clock)
        assert emitter.beat()           # first beat is immediate
        assert not emitter.beat()       # within the interval: suppressed
        clock.now += 1.5
        assert emitter.beat()
        assert emitter.beat(force=True)
        seqs = [msg[2].seq for msg in conn.sent]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        assert all(msg[0] == "hb" and msg[1] == 3 for msg in conn.sent)

    def test_ring_is_drained_into_the_record(self):
        ring = RingSink(capacity=2)
        ring.write({"type": "a", "seq": 0})
        ring.write({"type": "b", "seq": 1})
        ring.write({"type": "c", "seq": 2})  # evicts "a"
        conn = _FakeConn()
        emitter = HeartbeatEmitter(conn, 0, MetricsRegistry("w"),
                                   interval=0.0, ring=ring,
                                   clock=_Clock())
        emitter.beat()
        record = conn.sent[0][2]
        assert [e["type"] for e in record.events] == ["b", "c"]
        emitter.beat(force=True)
        assert conn.sent[1][2].events == ()   # drained, not re-shipped


# ----------------------------------------------------------------------
# RunStatus fold
# ----------------------------------------------------------------------


def _steps(steps):
    return {"parallel.guest_steps": {"kind": "counter", "value": steps}}


def _beat(worker, seq, steps):
    """A heartbeat whose uncommitted state holds *steps* guest steps."""
    return HeartbeatRecord(worker=worker, seq=seq, state=_steps(steps))


def _detail(status, worker):
    [entry] = [entry for entry in status.snapshot()["workers_detail"]
               if entry["worker"] == worker]
    return entry


class TestRunStatus:
    def test_progress_detection(self):
        status = RunStatus(workers=1, clock=_Clock())
        assert status.observe_heartbeat(_beat(0, 0, 10))
        assert not status.observe_heartbeat(_beat(0, 1, 10))  # no growth
        assert status.observe_heartbeat(_beat(0, 2, 25))
        assert not status.observe_heartbeat(_beat(0, 1, 999))  # stale seq

    @given(records=st.lists(_RECORDS, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_a_beat_shows_progress_exactly_when_steps_grew(self, records):
        # Per worker, only a newer seq counts, and it shows progress
        # when its steps (guest plus replay) beat the last counted one.
        status = RunStatus(workers=4, clock=_Clock())
        newest = {}
        for record in records:
            steps = sum(
                record.state.get(name, {}).get("value", 0)
                for name in ("parallel.guest_steps", "parallel.replay_steps")
            )
            last = newest.get(record.worker)
            expected = last is None or (record.seq > last[0]
                                        and steps > last[1])
            if last is None or record.seq > last[0]:
                newest[record.worker] = (record.seq, steps)
            assert status.observe_heartbeat(record) == expected

    def test_worker_figures_survive_registry_reset(self):
        status = RunStatus(workers=1, clock=_Clock())
        status.refresh({}, pending=0, in_flight=1, solutions=0,
                       health=[{"worker": 0, "slot": 0,
                                "state": "running"}])
        reg = MetricsRegistry("w")
        reg.counter("parallel.guest_steps").inc(100)
        assert status.observe_heartbeat(
            HeartbeatRecord(worker=0, seq=0, state=reg.state_dict()))
        assert _detail(status, 0)["steps"] == 100
        # The task result ships the state; the worker loop then resets.
        status.on_task_complete(0, reg.state_dict(), (4,), spilled=())
        reg.reset()
        reg.counter("parallel.guest_steps").inc(50)
        assert status.observe_heartbeat(
            HeartbeatRecord(worker=0, seq=1, state=reg.state_dict()))
        entry = _detail(status, 0)
        assert entry["steps"] == 150      # committed, not post-reset delta
        assert entry["tasks_done"] == 1

    @given(
        perm=st.permutations(list(range(6))),
        steps=st.lists(st.integers(0, 1000), min_size=6, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_fold_is_order_independent(self, perm, steps):
        # Two workers x three heartbeats each, delivered in any order,
        # must produce the same final snapshot (stale-seq records are
        # ignored, latest-per-worker wins).
        records = []
        for i in range(6):
            worker, seq = i % 2, i // 2
            records.append(_beat(worker, seq, steps[i]))
        clock = _Clock()
        ordered, shuffled = RunStatus(2, clock=clock), RunStatus(2, clock=clock)
        for r in records:
            ordered.observe_heartbeat(r)
        for i in perm:
            shuffled.observe_heartbeat(records[i])
        snap_a, snap_b = ordered.snapshot(), shuffled.snapshot()
        # Heartbeat *count* tallies deliveries; everything else folds.
        for snap in (snap_a, snap_b):
            snap["throughput"].pop("heartbeats")
        assert snap_a == snap_b

    def test_committed_plus_inflight_then_exact_at_finalize(self):
        status = RunStatus(workers=1, clock=_Clock())
        committed = {"parallel.guest_steps":
                     {"kind": "counter", "value": 100}}
        status.refresh(dict(committed), pending=1, in_flight=1, solutions=0)
        status.observe_heartbeat(_beat(0, 0, 40))
        assert status.snapshot()["throughput"]["steps_total"] == 140
        # The result commits; the uncommitted delta must not double.
        final = {"parallel.guest_steps":
                 {"kind": "counter", "value": 140}}
        status.on_task_complete(0, _steps(40), (4,), spilled=())
        status.finalize(final, pending=0, solutions=0)
        snap = status.snapshot()
        assert snap["throughput"]["steps_total"] == 140
        assert snap["metrics"]["parallel.guest_steps"] == 140
        assert snap["done"]

    def test_coverage_telescopes_to_one(self):
        status = RunStatus(workers=1, clock=_Clock())
        # Root spills two children (fanout 2), then both complete.
        status.on_task_complete(0, {}, (), spilled=[(2,), (2,)])
        status.on_task_complete(0, {}, (2,), spilled=())
        status.on_task_complete(0, {}, (2,), spilled=())
        status.finalize({}, pending=0, solutions=0)
        assert status.snapshot()["coverage"]["fraction"] == 1.0

    def test_subtree_weight(self):
        assert subtree_weight(()) == 1.0
        assert subtree_weight((4, 2)) == 0.125
        assert subtree_weight((0,)) == 1.0  # degenerate fanout ignored


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_capacity_and_dump(self, tmp_path):
        rec = FlightRecorder(str(tmp_path), capacity=3)
        rec.extend(1, [{"type": "e", "seq": i} for i in range(5)])
        path = rec.record_failure(1, "crash", detail="boom", task=[0, 2])
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        header, events = lines[0], lines[1:]
        assert header["type"] == "flight.header"
        assert header["worker"] == 1 and header["kind"] == "crash"
        assert header["events"] == 3
        assert [e["seq"] for e in events] == [2, 3, 4]  # newest 3
        assert rec.dumps == [path]

    def test_dump_with_empty_ring(self, tmp_path):
        rec = FlightRecorder(str(tmp_path))
        path = rec.record_failure(0, "timeout")
        lines = open(path, encoding="utf-8").readlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["events"] == 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_prometheus_rendering(self):
        reg = MetricsRegistry("m")
        reg.counter("parallel.guest_steps").inc(42)
        reg.gauge("search.frontier").set(7)
        status = RunStatus(workers=2, clock=_Clock())
        text = render_prometheus(reg, status.snapshot())
        assert "repro_parallel_guest_steps_total 42" in text
        assert "repro_search_frontier 7" in text
        assert "repro_run_workers 2" in text

    def test_a_scrape_merges_each_state_once(self, monkeypatch):
        clock = _Clock()
        status = RunStatus(workers=1, clock=clock)
        status.refresh({"parallel.guest_steps":
                        {"kind": "counter", "value": 100}},
                       pending=0, in_flight=1, solutions=0)
        status.observe_heartbeat(_beat(0, 0, 40))
        clock.now += 2.0
        merges = []
        merge_state = MetricsRegistry.merge_state

        def counting(registry, state):
            merges.append(state)
            return merge_state(registry, state)

        monkeypatch.setattr(MetricsRegistry, "merge_state", counting)
        text = status.prometheus()
        # One merge of the committed state and one of the heartbeat's.
        assert len(merges) == 2
        series = dict(line.rsplit(" ", 1) for line in text.splitlines()
                      if not line.startswith("#"))
        # The rate gauge and the counter line read the same merge: 40
        # steps since the refresh 2 s ago.
        assert float(series["repro_parallel_guest_steps_total"]) == 140
        assert float(series["repro_guest_steps_per_second"]) * 2.0 == 40

    def test_status_server_endpoints(self):
        status = RunStatus(workers=1)
        server = StatusServer(status, port=0)
        server.start()
        try:
            with urllib.request.urlopen(server.url + "/status") as resp:
                snap = json.loads(resp.read())
            assert snap["workers"] == 1
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode()
            assert "repro_run_workers 1" in body
            with urllib.request.urlopen(server.url + "/healthz") as resp:
                assert resp.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/nope")
        finally:
            server.stop()

    def test_status_logger_writes_samples(self, tmp_path):
        status = RunStatus(workers=1)
        path = str(tmp_path / "status.jsonl")
        logger = StatusLogger(status, path)
        logger.sample(100.0)
        logger.sample(110.0)
        logger.close(111.0)     # final sample on close
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert len(lines) >= 2
        assert [line["ts"] for line in lines] == [100.0, 110.0, 111.0]
        assert [line["seq"] for line in lines] == [0, 1, 2]
        assert all(line["type"] == "status.sample" for line in lines)
        assert all("tasks" in line and "throughput" in line
                   for line in lines)
