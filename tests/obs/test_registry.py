"""Unit tests for the metrics registry primitives."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_tracks_level_and_peak(self):
        g = Gauge("live")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1
        assert g.peak == 2

    def test_set_moves_both_ways_peak_sticks(self):
        g = Gauge("live")
        g.set(7)
        g.set(3)
        assert g.value == 3
        assert g.peak == 7

    def test_reset_clears_peak(self):
        g = Gauge("live")
        g.set(7)
        g.reset()
        assert g.value == 0
        assert g.peak == 0


class TestTimer:
    def test_accumulates_recorded_durations(self):
        t = Timer("t")
        t.record(0.5)
        t.record(1.5)
        assert t.count == 2
        assert t.total_s == pytest.approx(2.0)
        assert t.mean_s == pytest.approx(1.0)

    def test_context_manager_uses_injected_clock(self):
        ticks = iter([10.0, 12.5])
        t = Timer("t", clock=lambda: next(ticks))
        with t.time():
            pass
        assert t.count == 1
        assert t.total_s == pytest.approx(2.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timer("t").record(-1.0)

    def test_mean_of_empty_is_zero(self):
        assert Timer("t").mean_s == 0.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.timer("t") is reg.timer("t")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.timer("a")

    def test_enumeration(self):
        reg = MetricsRegistry("test")
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg
        assert "zzz" not in reg
        assert len(reg) == 2
        assert {m.name for m in reg} == {"a", "b"}
        with pytest.raises(KeyError):
            reg.get("zzz")

    def test_as_dict_flattens_values(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(5)
        reg.timer("t").record(1.0)
        flat = reg.as_dict()
        assert flat["c"] == 3
        assert flat["g"] == 5
        assert flat["g.peak"] == 5
        assert flat["t"] == pytest.approx(1.0)
        assert flat["t.count"] == 1

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.reset()
        assert reg.counter("c").value == 0
        assert reg.gauge("g").peak == 0
        assert len(reg) == 2

    def test_merge_state_refuses_an_unknown_kind(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric kind"):
            reg.merge_state({"h": {"kind": "histogram", "count": 1}})
