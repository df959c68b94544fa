"""Unified observability: the metrics registry and the structured trace.

The paper's claims are *cost-shape* claims — O(1) take/restore,
O(private pages) discard, per-page COW faults — so every subsystem needs
to report costs in one schema, and cross-subsystem causality ("this
restore caused these COW faults") needs an ordered event trace.  This
package provides both:

* :mod:`repro.obs.registry` — named counters, gauges and monotonic
  timers.  The per-subsystem stats objects
  (``SnapshotStats``, ``FaultStats``, ``StrategyStats``, ``SearchStats``)
  are plain records of ints; :func:`record_into` copies one into a
  registry where a run's counts are read as a set.
* :mod:`repro.obs.events` — the typed event schema
  (``snapshot.take/restore/discard``, ``mem.cow_fault`` …).
* :mod:`repro.obs.trace` — the process-wide :class:`Tracer` with
  monotonic ordering, JSONL export, emit-time context stamping, segment
  ingestion for cross-process merging, and near-zero overhead when no
  sink is attached.
* :mod:`repro.obs.status` / :mod:`repro.obs.live` — in-flight
  telemetry: worker heartbeat records folded into a thread-safe
  :class:`RunStatus` (tasks, workers, throughput, coverage/ETA), served
  as Prometheus text + JSON by :class:`StatusServer`, logged as
  ``status.sample`` JSONL by :class:`StatusLogger`, with a per-worker
  flight-recorder ring dumped on crashes (:class:`FlightRecorder`).
* :mod:`repro.obs.profile` — the search-tree profiler: rebuilds the
  guess tree from a trace and attributes instructions, COW faults,
  snapshot lifecycle and wall time to each decision prefix, with
  subtree rollups, critical path, and flamegraph/speedscope exports.

``python -m repro.tools.trace_report trace.jsonl`` summarizes an
exported trace; ``python -m repro.tools.profile trace.jsonl`` profiles
it; ``pytest benchmarks/ --obs-trace=PATH`` records one.
"""

from repro.obs.events import EVENT_FIELDS, EVENT_TYPES, validate_event
from repro.obs.live import (
    FlightRecorder,
    HeartbeatEmitter,
    RingSink,
    StatusLogger,
    StatusServer,
)
from repro.obs.profile import (
    Profile,
    ProfileNode,
    build_profile,
    folded_stacks,
    hotspots,
    speedscope_document,
    summarize_profile,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    record_into,
)
from repro.obs.status import (
    HeartbeatRecord,
    RunStatus,
    render_prometheus,
    subtree_weight,
)
from repro.obs.trace import (
    TRACER,
    JsonlSink,
    MemorySink,
    Tracer,
    normalize_events,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timer",
    "record_into",
    "EVENT_FIELDS",
    "EVENT_TYPES",
    "validate_event",
    "Profile",
    "ProfileNode",
    "build_profile",
    "folded_stacks",
    "hotspots",
    "speedscope_document",
    "summarize_profile",
    "TRACER",
    "Tracer",
    "JsonlSink",
    "MemorySink",
    "normalize_events",
    "HeartbeatRecord",
    "RunStatus",
    "render_prometheus",
    "subtree_weight",
    "FlightRecorder",
    "HeartbeatEmitter",
    "RingSink",
    "StatusLogger",
    "StatusServer",
]
