"""Unit tests for the tracer, sinks, schema validation and normalization."""

import io
import json

import pytest

from repro.obs import events as ev
from repro.obs.events import EVENT_FIELDS, EventSchemaError, validate_event
from repro.obs.live import FlightRecorder
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TRACER,
    Tracer,
    normalize_events,
)
from repro.tools.trace_report import load_events


def make_tracer():
    """A tracer with a deterministic clock (0.0, 1.0, 2.0, ...)."""
    ticks = iter(range(10_000))
    return Tracer(clock=lambda: float(next(ticks)))


class TestEmission:
    def test_disabled_tracer_emits_nothing(self):
        tracer = make_tracer()
        tracer.emit(ev.SEARCH_FAIL, depth=1)
        sink = MemorySink()
        tracer.attach(sink)
        tracer.emit(ev.SEARCH_FAIL, depth=2)
        tracer.detach(sink)
        tracer.emit(ev.SEARCH_FAIL, depth=3)
        assert [e["depth"] for e in sink.events] == [2]

    def test_event_shape(self):
        tracer = make_tracer()
        with tracer.capture() as sink:
            tracer.emit(ev.SEARCH_GUESS, n=4, depth=2)
        (event,) = sink.events
        assert event["type"] == ev.SEARCH_GUESS
        assert event["n"] == 4
        assert event["depth"] == 2
        assert isinstance(event["seq"], int)
        assert isinstance(event["ts"], float)

    def test_seq_and_ts_are_monotonic(self):
        tracer = make_tracer()
        with tracer.capture() as sink:
            for i in range(5):
                tracer.emit(ev.SEARCH_FAIL, depth=i)
        seqs = [e["seq"] for e in sink.events]
        tss = [e["ts"] for e in sink.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5
        assert tss == sorted(tss)

    def test_multiple_sinks_see_every_event(self):
        tracer = make_tracer()
        a, b = MemorySink(), MemorySink()
        tracer.attach(a)
        tracer.attach(b)
        tracer.emit(ev.SEARCH_FAIL, depth=0)
        tracer.detach(a)
        tracer.emit(ev.SEARCH_FAIL, depth=1)
        tracer.detach(b)
        assert len(a.events) == 1
        assert len(b.events) == 2
        assert not tracer.enabled

    def test_detach_of_unknown_sink_is_harmless(self):
        tracer = make_tracer()
        tracer.detach(MemorySink())
        assert not tracer.enabled

    def test_capture_detaches_on_error(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.capture():
                raise RuntimeError("boom")
        assert not tracer.enabled

    def test_global_tracer_exists_and_is_disabled_by_default(self):
        assert not TRACER.enabled


class TestSchema:
    def test_every_known_type_has_fields(self):
        for etype, fields in EVENT_FIELDS.items():
            assert "." in etype
            assert isinstance(fields, tuple)

    def test_validate_accepts_complete_fields(self):
        validate_event(ev.SNAPSHOT_TAKE, {"sid": 1, "parent": None, "live": 1})

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(EventSchemaError, match="missing required"):
            validate_event(ev.SNAPSHOT_TAKE, {"sid": 1})

    def test_unknown_types_pass_through(self):
        validate_event("custom.thing", {})

    def test_emit_validates_known_types(self):
        tracer = make_tracer()
        with tracer.capture():
            with pytest.raises(EventSchemaError):
                tracer.emit(ev.MEM_COW_FAULT, asid=1)  # vpn, kind missing

    def test_extra_fields_allowed(self):
        tracer = make_tracer()
        with tracer.capture() as sink:
            tracer.emit(ev.SEARCH_FAIL, depth=1, worker=3)
        assert sink.events[0]["worker"] == 3


class TestJsonlSink:
    def test_round_trip_via_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = make_tracer()
        with tracer.to_file(path):
            tracer.emit(ev.SNAPSHOT_TAKE, sid=1, parent=None, live=1)
            tracer.emit(ev.SNAPSHOT_RESTORE, sid=1, asid=7)
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert [e["type"] for e in lines] == [
            ev.SNAPSHOT_TAKE, ev.SNAPSHOT_RESTORE,
        ]
        assert lines[0]["parent"] is None
        assert lines[1]["asid"] == 7

    def test_write_counts_events(self, tmp_path):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write({"seq": 0, "ts": 0.0, "type": "x"})
        sink.close()
        assert sink.written == 1
        assert json.loads(buffer.getvalue()) == {"seq": 0, "ts": 0.0, "type": "x"}

    def test_unjsonable_values_are_coerced(self, tmp_path):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write({"type": "x", "blob": b"bytes", "who": {3, 1, 2}})
        decoded = json.loads(buffer.getvalue())
        assert decoded["blob"] == "bytes"
        assert decoded["who"] == [1, 2, 3]

    def test_every_line_loads_back(self, tmp_path):
        """A newline or a tab in a string and a non-finite float keep
        each event one valid JSON line, in a trace and a flight dump."""
        odd = {"type": "x", "text": "a\nb", "tab": "\t", "big": float("inf")}
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.write(odd)
        sink.close()
        recorder = FlightRecorder(str(tmp_path / "flight"), clock=lambda: 0.0)
        recorder.extend(3, [odd])
        dump = recorder.record_failure(3, "crash", detail="a\nb\t")
        assert load_events(path) == ([odd], 0)
        events, corrupt = load_events(dump)
        assert corrupt == 0
        assert events[0]["detail"] == "a\nb\t" and events[1:] == [odd]


class TestNormalize:
    def test_strips_ts_and_rebases_seq(self):
        events = [
            {"seq": 40, "ts": 1.25, "type": "search.fail", "depth": 0},
            {"seq": 41, "ts": 2.50, "type": "search.fail", "depth": 1},
        ]
        normalized = normalize_events(events)
        assert normalized == [
            {"seq": 0, "type": "search.fail", "depth": 0},
            {"seq": 1, "type": "search.fail", "depth": 1},
        ]

    def test_remaps_ids_by_first_occurrence(self):
        run_a = [
            {"seq": 0, "type": "snapshot.take", "sid": 17, "parent": None, "live": 1},
            {"seq": 1, "type": "snapshot.take", "sid": 19, "parent": 17, "live": 2},
            {"seq": 2, "type": "snapshot.restore", "sid": 19, "asid": 100},
        ]
        run_b = [
            {"seq": 7, "type": "snapshot.take", "sid": 31, "parent": None, "live": 1},
            {"seq": 8, "type": "snapshot.take", "sid": 35, "parent": 31, "live": 2},
            {"seq": 9, "type": "snapshot.restore", "sid": 35, "asid": 205},
        ]
        assert normalize_events(run_a) == normalize_events(run_b)

    def test_divergence_survives_normalization(self):
        run_a = [{"seq": 0, "type": "search.guess", "n": 4, "depth": 0}]
        run_b = [{"seq": 0, "type": "search.guess", "n": 5, "depth": 0}]
        assert normalize_events(run_a) != normalize_events(run_b)

    def test_does_not_mutate_input(self):
        event = {"seq": 3, "ts": 0.5, "type": "search.fail", "depth": 0}
        normalize_events([event])
        assert event["ts"] == 0.5
        assert event["seq"] == 3
