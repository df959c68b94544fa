"""Live run status: heartbeat records and the coordinator's fold.

The cluster's observability was post-mortem only — registries and traces
tell you what a run did after it exits.  This module is the in-flight
half: workers ship :class:`HeartbeatRecord`\\ s over the result pipe
(see :mod:`repro.obs.live` for the worker-side emitter) and the
coordinator folds them, with every task result it accepts, into one
:class:`RunStatus`, a thread-safe model of the run *right now* — tasks
pending/in-flight/done, solutions so far, per-worker figures and
health, aggregate guest-instructions/sec, and a decision-tree
coverage/ETA estimate.

Soundness of the fold: a worker's registry is reset after every task
result, so a mid-task ``state_dict()`` *is* the uncommitted delta since
the last result.  The coordinator keeps exactly one uncommitted state
per worker (latest heartbeat wins — the pipe is FIFO, so seq order is
arrival order, but out-of-order replays through :meth:`observe_heartbeat`
are still safe) and drops it the moment that worker's task result is
accepted: the result's state is merged into the committed registry and
added to the worker's committed figures.  Total = committed + Σ
uncommitted, per run and per worker, with no event counted twice; once
the run is sealed, the uncommitted side is empty, the status metrics
equal the engine registry exactly, and in a run without worker failures
the per-worker figures add up to the run totals.

Coverage: a :class:`~repro.search.shard.PrefixTask` with fan-outs
``(f1..fk)`` roots a subtree that is ``1/(f1*...*fk)`` of the whole
decision tree under the uniform-fanout prior.  Completing a task covers
its weight minus the weight it spilled back, so the covered fraction
converges to 1.0 exactly when the frontier drains — and its growth rate
over a sliding window gives an ETA without knowing the tree shape in
advance.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.obs.registry import Counter, Gauge, MetricsRegistry, Timer

#: Counter names whose committed+uncommitted sum is the run's retired
#: guest instructions (exploration plus rehydration replay).
STEP_COUNTERS = ("parallel.guest_steps", "parallel.replay_steps")


def subtree_weight(fanouts: Sequence[int]) -> float:
    """Prior weight of the subtree under a prefix with *fanouts*.

    The root (no fanouts) weighs 1.0; each recorded choice point divides
    the weight by its fan-out.  Weights of a task and of the children it
    spills are consistent by construction, which is what makes the
    covered fraction telescope to 1.0 on an exhausted run.
    """
    weight = 1.0
    for fanout in fanouts:
        if fanout > 0:
            weight /= fanout
    return weight


@dataclass(frozen=True)
class HeartbeatRecord:
    """One worker's periodic self-report, shipped over the result pipe.

    ``state`` is the worker registry's ``state_dict()`` — the
    *uncommitted* delta since its last task result (see module
    docstring).  ``events`` is the drained flight-recorder ring
    (possibly empty).
    """

    worker: int
    seq: int
    state: dict = field(default_factory=dict)
    task: Optional[tuple[int, ...]] = None
    span: Optional[int] = None
    phase: str = "exploring"
    events: tuple[dict, ...] = ()


def _counter_value(state: dict, name: str) -> float:
    data = state.get(name)
    return data.get("value", 0) if data else 0


#: Per-worker figures and the registry counters summed into each.
_FIGURES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("steps", STEP_COUNTERS),
    ("cow_faults", ("mem.frames_copied",)),
    ("spills", ("parallel.worker_spills",)),
)


def _figures(state: dict, base: Optional[dict] = None) -> dict:
    """A copy of *base* (no results yet: ``tasks_done`` 0) plus the
    counters of *state*."""
    figures = dict(base) if base is not None else {"tasks_done": 0}
    for key, names in _FIGURES:
        figures[key] = figures.get(key, 0) + sum(
            _counter_value(state, name) for name in names
        )
    return figures


class RunStatus:
    """Thread-safe live model of one cluster run.

    The coordinator mutates it (``observe_heartbeat`` per heartbeat,
    ``on_task_complete`` per accepted result, rate-limited ``refresh``
    with the committed registry, ``finalize`` once at the end); the
    HTTP server thread only calls :meth:`snapshot` / :meth:`prometheus`.
    Every method takes the one internal lock, and snapshots
    deep-enough-copy everything they return.
    """

    def __init__(self, workers: int, span: Optional[int] = None,
                 strategy: Optional[str] = None,
                 clock: Callable[[], float] = time.monotonic,
                 window: int = 64):
        self._clock = clock
        self._lock = threading.Lock()
        self.started = clock()
        self.workers = workers
        self.span = span
        self.strategy = strategy
        self.done = False
        self.degraded = False
        self.stop_reason: Optional[str] = None
        self.heartbeats = 0
        #: Covered fraction of the decision tree (can float above 1.0
        #: by epsilon through float error; snapshots clamp).
        self.covered = 0.0
        self._committed: dict = {}
        #: worker id -> figures of its accepted results, and how many.
        self._done: dict[int, dict] = {}
        #: worker id -> uncommitted registry state from its latest
        #: heartbeat (cleared when that worker's task result commits).
        self._inflight: dict[int, dict] = {}
        #: worker id -> seq, steps, task, span, phase and arrival time
        #: of its latest heartbeat.
        self._hb: dict[int, dict] = {}
        self._health: list[dict] = []
        self._pending = 0
        self._in_flight = 0
        self._solutions = 0
        self._fanout_sum = 0
        self._fanout_n = 0
        #: (monotonic ts, covered, steps_total) samples for rates.
        self._window: deque = deque(maxlen=window)

    # -- coordinator-side mutation -------------------------------------

    def observe_heartbeat(self, record: HeartbeatRecord) -> bool:
        """Fold one heartbeat in; returns True when it shows progress.

        Progress means the worker's steps (its accepted results plus
        this beat's uncommitted state) grew since its previous
        heartbeat: the engine uses this to defer the per-task timeout
        for long tasks that are demonstrably running (a stalled worker
        cannot beat, so stalls still time out).  Records older than the
        latest seen for the worker are ignored, which makes the fold
        order-independent per worker.
        """
        with self._lock:
            self.heartbeats += 1
            last = self._hb.get(record.worker)
            if last is not None and record.seq <= last["seq"]:
                return False
            self._inflight[record.worker] = record.state
            steps = self._figures_locked(record.worker)["steps"]
            self._hb[record.worker] = {
                "seq": record.seq,
                "steps": steps,
                "task": list(record.task) if record.task is not None else None,
                "span": record.span,
                "phase": record.phase,
                "at": self._clock(),
            }
            return last is None or steps > last["steps"]

    def on_task_complete(self, worker: int, state: dict,
                         fanouts: Sequence[int],
                         spilled: Iterable[Sequence[int]]) -> None:
        """Account one accepted task result from *worker*.

        *state* is the result's registry state: it is added to the
        worker's committed figures, and the worker's uncommitted
        heartbeat state is dropped, because the coordinator registry
        merged the same delta (the next :meth:`refresh` re-commits it).
        """
        with self._lock:
            weight = subtree_weight(fanouts)
            for child in spilled:
                weight -= subtree_weight(child)
            self.covered += max(weight, 0.0)
            if fanouts:
                self._fanout_sum += fanouts[-1]
                self._fanout_n += 1
            figures = self._done[worker] = _figures(
                state, self._done.get(worker)
            )
            figures["tasks_done"] += 1
            self._inflight.pop(worker, None)

    def on_worker_failed(self, worker: int) -> None:
        """A worker died: its uncommitted delta is lost, not committed."""
        with self._lock:
            self._inflight.pop(worker, None)
            last = self._hb.get(worker)
            if last is not None:
                last["phase"] = "failed"

    def refresh(self, state: dict, *, pending: int, in_flight: int,
                solutions: int, health: Iterable[dict] = ()) -> None:
        """Re-commit the coordinator registry snapshot + frontier shape.

        *state* must be a fresh ``state_dict()`` — the status takes
        ownership (the HTTP thread reads it unlocked-copy-free).
        """
        with self._lock:
            self._committed = state
            self._pending = pending
            self._in_flight = in_flight
            self._solutions = solutions
            self._health = [dict(entry) for entry in health]
            steps = self._steps_locked()
            self._window.append((self._clock(), self.covered, steps))

    def finalize(self, state: dict, *, pending: int, solutions: int,
                 health: Iterable[dict] = (),
                 stop_reason: Optional[str] = None,
                 degraded: bool = False) -> None:
        """Seal the status: after this, metrics equal *state* exactly."""
        with self._lock:
            self._inflight.clear()
            self._committed = state
            self._pending = pending
            self._in_flight = 0
            self._solutions = solutions
            self._health = [dict(entry) for entry in health]
            self.done = True
            self.stop_reason = stop_reason
            self.degraded = degraded
            self._window.append(
                (self._clock(), self.covered, self._steps_locked())
            )

    # -- internals (caller holds the lock) -----------------------------

    def _figures_locked(self, worker: int) -> dict:
        """*worker*'s committed figures plus its latest beat's state."""
        return _figures(self._inflight.get(worker, {}),
                        self._done.get(worker))

    def _steps_locked(self) -> float:
        total = 0.0
        for name in STEP_COUNTERS:
            total += _counter_value(self._committed, name)
            for state in self._inflight.values():
                total += _counter_value(state, name)
        return total

    def _merged_locked(self) -> MetricsRegistry:
        merged = MetricsRegistry("run-status")
        if self._committed:
            merged.merge_state(self._committed)
        for state in self._inflight.values():
            merged.merge_state(state)
        return merged

    def _rate_locked(self, now: float, index: int, current: float) -> float:
        if not self._window:
            return 0.0
        oldest = self._window[0]
        dt = now - oldest[0]
        if dt <= 0:
            return 0.0
        return max(0.0, (current - oldest[index]) / dt)

    # -- consumer-side views -------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-safe view of the whole run, internally consistent."""
        with self._lock:
            return self._snapshot_locked(self._merged_locked())

    def prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the run: the
        metric lines and the run-level series come from one merge."""
        with self._lock:
            merged = self._merged_locked()
            snapshot = self._snapshot_locked(merged)
        return render_prometheus(merged, snapshot)

    def _snapshot_locked(self, merged: MetricsRegistry) -> dict:
        now = self._clock()
        flat = merged.as_dict()
        steps_total = self._steps_locked()
        steps_rate = self._rate_locked(now, 2, steps_total)
        covered = min(self.covered, 1.0)
        if covered > 1.0 - 1e-9:
            covered = 1.0  # telescoped weights, modulo float error
        coverage_rate = self._rate_locked(now, 1, self.covered)
        if self.done:
            eta: Optional[float] = 0.0
        elif coverage_rate > 0 and covered < 1.0:
            eta = (1.0 - covered) / coverage_rate
        else:
            eta = None
        mean_fanout = (
            self._fanout_sum / self._fanout_n if self._fanout_n else 0.0
        )
        detail: list[dict] = []
        for entry in self._health:
            entry = dict(entry)
            worker = entry.get("worker")
            beat = self._hb.get(worker)
            if beat is not None or worker in self._done:
                entry.update(self._figures_locked(worker))
            if beat is not None:
                entry.update(
                    phase=beat["phase"],
                    task=beat["task"],
                    task_span=beat["span"],
                    beat_seq=beat["seq"],
                    beat_age_s=max(0.0, now - beat["at"]),
                )
            detail.append(entry)
        busy = sum(
            1 for entry in detail
            if entry.get("state") == "running" and entry.get("busy")
        )
        return {
            "schema": 1,
            "done": self.done,
            "stop_reason": self.stop_reason,
            "degraded": self.degraded,
            "elapsed_s": max(0.0, now - self.started),
            "span": self.span,
            "strategy": self.strategy,
            "workers": self.workers,
            "workers_busy": busy,
            "tasks": {
                "pending": self._pending,
                "in_flight": self._in_flight,
                "done": int(flat.get("parallel.tasks_completed", 0)),
                "spilled": int(flat.get("parallel.tasks_spilled", 0)),
                "retried": int(flat.get("parallel.tasks_retried", 0)),
                "dropped": int(flat.get("parallel.tasks_dropped", 0)),
                "poisoned": int(flat.get("parallel.poisoned_tasks", 0)),
                "crashes": int(flat.get("parallel.worker_crashes", 0)),
                "timeouts": int(flat.get("parallel.task_timeouts", 0)),
            },
            "solutions": self._solutions,
            "coverage": {
                "fraction": covered,
                "rate_per_s": coverage_rate,
                "eta_s": eta,
                "mean_fanout": mean_fanout,
            },
            "throughput": {
                "steps_total": int(steps_total),
                "steps_per_s": steps_rate,
                "heartbeats": self.heartbeats,
            },
            "workers_detail": detail,
            "metrics": flat,
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_BAD.sub("_", name)


def _prom_num(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry,
                      snapshot: Optional[dict] = None) -> str:
    """Render *registry* (+ run-level series from *snapshot*) as
    Prometheus text exposition format 0.0.4.

    Counters map to ``repro_<name>_total``, gauges to ``repro_<name>``
    (+ ``_peak``), timers to ``repro_<name>_seconds_total`` and
    ``_seconds_count``.
    """
    lines: list[str] = []
    for metric in sorted(registry, key=lambda m: m.name):
        name = _prom_name(metric.name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_prom_num(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_num(metric.value)}")
            lines.append(f"# TYPE {name}_peak gauge")
            lines.append(f"{name}_peak {_prom_num(metric.peak)}")
        elif isinstance(metric, Timer):
            lines.append(f"# TYPE {name}_seconds_total counter")
            lines.append(f"{name}_seconds_total {_prom_num(metric.total_s)}")
            lines.append(f"# TYPE {name}_seconds_count counter")
            lines.append(f"{name}_seconds_count {_prom_num(metric.count)}")
    if snapshot is not None:
        run_gauges = [
            ("repro_run_elapsed_seconds", snapshot["elapsed_s"]),
            ("repro_run_done", snapshot["done"]),
            ("repro_run_degraded", snapshot["degraded"]),
            ("repro_run_workers", snapshot["workers"]),
            ("repro_run_workers_busy", snapshot["workers_busy"]),
            ("repro_tasks_pending", snapshot["tasks"]["pending"]),
            ("repro_tasks_in_flight", snapshot["tasks"]["in_flight"]),
            ("repro_solutions", snapshot["solutions"]),
            ("repro_coverage_fraction", snapshot["coverage"]["fraction"]),
            ("repro_guest_steps_per_second",
             snapshot["throughput"]["steps_per_s"]),
        ]
        eta = snapshot["coverage"]["eta_s"]
        if eta is not None:
            run_gauges.append(("repro_coverage_eta_seconds", eta))
        for name, value in run_gauges:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_num(value)}")
        worker_lines: list[str] = []
        for entry in snapshot["workers_detail"]:
            wid = entry.get("worker")
            if wid is None:
                continue
            labels = (
                f'worker="{wid}",slot="{entry.get("slot", "")}"'
                f',state="{entry.get("state", "")}"'
            )
            worker_lines.append(f"repro_worker_up{{{labels}}} 1")
            if "steps" in entry:
                worker_lines.append(
                    f'repro_worker_steps_total{{worker="{wid}"}} '
                    f'{_prom_num(entry["steps"])}'
                )
                worker_lines.append(
                    f'repro_worker_tasks_done{{worker="{wid}"}} '
                    f'{_prom_num(entry["tasks_done"])}'
                )
        if worker_lines:
            lines.append("# TYPE repro_worker_up gauge")
            lines.extend(worker_lines)
    return "\n".join(lines) + "\n"
