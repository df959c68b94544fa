"""The metrics registry: named counters, gauges and timers.

Design constraints (in priority order):

1. **Hot-path cheapness.**  ``Counter.inc`` is one attribute add on a
   slotted object; nothing formats, allocates, or takes a lock (the
   simulator is single-threaded by construction).  Attaching a sink or
   rendering a report pays all presentation costs.
2. **Uniform enumeration.**  Every metric has a dotted name
   (``snapshot.taken``, ``mem.cow_faults``) and a scalar-ish value, so
   one ``as_dict()`` call snapshots a whole subsystem for reports,
   benches and invariant checks.
3. **Plain records on the hot path.**  The stats records
   (``SnapshotStats``, ``SearchStats`` ...) are slotted ints that own
   their counts; :func:`record_into` copies one into a registry only
   where the counts are read as a set (a worker's shipped state, the
   coordinator's merged registry, an engine's registry after a run).

Registries are instantiable (one per engine keeps concurrent
sessions from double-counting).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator


class Counter:
    """A monotonically-growing event count (decrements are not policed,
    but reports assume counters only go up)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A level that moves both ways (live snapshots, frontier size).

    Tracks its own high-water mark: ``peak`` is the largest value ever
    ``set``/``inc``-ed, which is what footprint experiments report.
    """

    __slots__ = ("name", "value", "peak")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value: Any) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, n: int = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: int = 1) -> None:
        self.value -= n

    def reset(self) -> None:
        self.value = 0
        self.peak = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value}, peak={self.peak})"


class Timer:
    """Accumulated wall-clock spent in a region (monotonic clock).

    ``with timer.time(): ...`` adds one sample; ``mean_s`` is the average
    duration.  The clock is injectable for deterministic tests.
    """

    __slots__ = ("name", "count", "total_s", "_clock")
    kind = "timer"

    def __init__(self, name: str, clock: Callable[[], float] = time.perf_counter):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self._clock = clock

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative duration")
        self.count += 1
        self.total_s += seconds

    def time(self) -> "_TimerContext":
        return _TimerContext(self)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        """Total seconds (the scalar ``as_dict`` exposes)."""
        return self.total_s

    def reset(self) -> None:
        self.count = 0
        self.total_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name!r}, n={self.count}, total={self.total_s:.6f}s)"


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer):
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = self._timer._clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._timer.record(self._timer._clock() - self._start)


Metric = Any  # Counter | Gauge | Timer


class MetricsRegistry:
    """A namespace of metrics, created on first use by dotted name.

    The accessors are get-or-create: asking twice for the same name
    returns the same object, and asking for an existing name as a
    different metric kind raises (names are the schema).
    """

    def __init__(self, name: str = "default"):
        self.name = name
        self._metrics: dict[str, Metric] = {}

    # -- get-or-create accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get_or_create(name, Timer)

    def _get_or_create(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    # -- enumeration ---------------------------------------------------

    def get(self, name: str) -> Metric:
        """Look up an existing metric (KeyError if never registered)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, Any]:
        """Flat ``{name: scalar value}`` snapshot of every metric.

        Gauges additionally export ``name.peak``; timers export
        ``name.count`` next to their total seconds.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[name] = metric.value
            if isinstance(metric, Gauge):
                out[f"{name}.peak"] = metric.peak
            elif isinstance(metric, Timer):
                out[f"{name}.count"] = metric.count
        return out

    def reset(self) -> None:
        """Zero every metric (keeps registrations)."""
        for metric in self._metrics.values():
            metric.reset()

    # -- cross-process export / merge ----------------------------------

    def state_dict(self) -> dict[str, dict[str, Any]]:
        """Structured, picklable snapshot of every metric.

        Unlike :meth:`as_dict` (a flat report), the state dict keeps the
        metric *kind* and enough internals that :meth:`merge_state` can
        combine registries from other processes losslessly — the
        process-parallel engine ships worker registries to the
        coordinator this way.
        """
        out: dict[str, dict[str, Any]] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out[name] = {"kind": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {
                    "kind": "gauge", "value": metric.value, "peak": metric.peak
                }
            elif isinstance(metric, Timer):
                out[name] = {
                    "kind": "timer",
                    "count": metric.count,
                    "total_s": metric.total_s,
                }
        return out

    def merge_state(self, state: dict[str, dict[str, Any]]) -> None:
        """Fold another registry's :meth:`state_dict` into this one.

        Merge semantics per kind:

        * counters and timers add (event totals are additive across
          processes);
        * gauges add their *values* (live levels across workers sum) but
          take the max of *peaks* — concurrent high-water marks are not
          additive, so the merged peak is a lower bound.

        Metrics missing on this side are created on the fly.
        """
        for name, data in state.items():
            kind = data["kind"]
            if kind == "counter":
                self.counter(name).inc(data["value"])
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.value += data["value"]
                gauge.peak = max(gauge.peak, data["peak"], gauge.value)
            elif kind == "timer":
                timer = self.timer(name)
                timer.count += data["count"]
                timer.total_s += data["total_s"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({self.name!r}, {len(self._metrics)} metrics)"


def record_into(registry: MetricsRegistry, prefix: str, record: Any) -> None:
    """Copy a stats record's counts into ``<prefix>.<field>`` metrics.

    The record names its fields in ``FIELDS``; each becomes a counter,
    except those in ``GAUGES`` (field -> the field holding its
    high-water mark), which become gauges with that ``peak`` — the
    ``.peak`` twin a live gauge would have recorded.
    """
    gauges = record.GAUGES
    for field in record.FIELDS:
        value = getattr(record, field)
        if field in gauges:
            gauge = registry.gauge(f"{prefix}.{field}")
            gauge.value = value
            gauge.peak = getattr(record, gauges[field])
        else:
            registry.counter(f"{prefix}.{field}").value = value
