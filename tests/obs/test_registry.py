"""Unit tests for the metrics registry primitives."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
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


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", bounds=[1, 10, 100])
        for v in (0, 1, 5, 50, 1000):
            h.observe(v)
        assert h.counts == [2, 1, 1, 1]  # <=1, <=10, <=100, overflow
        assert h.count == 5
        assert h.mean == pytest.approx(1056 / 5)

    def test_bucket_pairs_labels(self):
        h = Histogram("h", bounds=[2, 4])
        h.observe(3)
        assert h.bucket_pairs() == [("<=2", 0), ("<=4", 1), (">4", 0)]

    def test_needs_sorted_nonempty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[3, 1])

    def test_reset(self):
        h = Histogram("h", bounds=[1])
        h.observe(0)
        h.reset()
        assert h.counts == [0, 0]
        assert h.count == 0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.timer("t") is reg.timer("t")
        h = reg.histogram("h", bounds=[1, 2])
        assert reg.histogram("h") is h

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("a", bounds=[1])

    def test_histogram_needs_bounds_first_time(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("h")
        reg.histogram("h", bounds=[1])
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("h", bounds=[1, 2])

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
        reg.histogram("h", bounds=[10]).observe(4)
        flat = reg.as_dict()
        assert flat["c"] == 3
        assert flat["g"] == 5
        assert flat["g.peak"] == 5
        assert flat["t"] == pytest.approx(1.0)
        assert flat["t.count"] == 1
        assert flat["h"] == pytest.approx(4)
        assert flat["h.count"] == 1

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.reset()
        assert reg.counter("c").value == 0
        assert reg.gauge("g").peak == 0
        assert len(reg) == 2

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()
        assert isinstance(get_registry(), MetricsRegistry)
