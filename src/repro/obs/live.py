"""Live-telemetry plumbing: emitter, flight recorder, exporters.

Four small pieces around :mod:`repro.obs.status`:

* :class:`RingSink` — a bounded tracer sink holding a worker's most
  recent events (the flight-recorder ring).  Cheap enough to leave on
  even when full tracing is off: an append to a bounded deque.
* :class:`HeartbeatEmitter` — worker-side; rate-limits heartbeats and
  ships the registry's uncommitted state, the current task and the
  drained ring over the result pipe as ``("hb", wid, record)``.
* :class:`FlightRecorder` — coordinator-side; keeps the last N shipped
  events per worker and dumps them to a JSONL post-mortem when the
  supervisor observes a crash/timeout.  Because rings are shipped
  inside heartbeats, the events survive the worker's death — including
  ``kill -9``, which no worker-side flush could.
* :class:`StatusServer` / :class:`StatusLogger` — a stdlib
  ``ThreadingHTTPServer`` exposing ``/status`` (JSON) and ``/metrics``
  (Prometheus text) from a daemon thread, and an appender of
  ``status.sample`` JSONL records that the coordinator's loop calls on
  its own thread and clock.  Both only ever call the
  :class:`~repro.obs.status.RunStatus` read API.
"""

from __future__ import annotations

import json
import os
import select
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Optional

from repro.obs.events import FLIGHT_HEADER, STATUS_SAMPLE
from repro.obs.registry import MetricsRegistry
from repro.obs.status import HeartbeatRecord, RunStatus
from repro.obs.trace import JsonlSink, _encode_line


class RingSink:
    """A tracer sink that keeps only the most recent *capacity* events."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)

    def write(self, event: dict) -> None:
        self.events.append(event)

    def drain(self) -> list[dict]:
        events = list(self.events)
        self.events.clear()
        return events

    def close(self) -> None:  # sink protocol symmetry
        pass


class HeartbeatEmitter:
    """Worker-side heartbeat source over the duplex result pipe.

    ``beat()`` is called from the exploration hot loop; it is a clock
    read and a compare unless the interval elapsed.  A beat carries the
    registry's uncommitted state only: the coordinator adds it to the
    results it accepted from this worker.
    """

    def __init__(self, conn: Any, worker: int, registry: MetricsRegistry,
                 interval: float, *, ring: Optional[RingSink] = None,
                 sync: Optional[Callable[[], None]] = None,
                 clock: Callable[[], float] = time.monotonic):
        if interval < 0:
            raise ValueError("heartbeat interval must be >= 0")
        self.conn = conn
        self.worker = worker
        self.registry = registry
        self.interval = float(interval)
        self.ring = ring
        self._sync = sync
        self._clock = clock
        self.seq = 0
        # Backdate so the first beat() check fires immediately.
        self._last = clock() - self.interval

    def poll_timeout(self) -> float:
        """Seconds until the next beat is due (for idle ``conn.poll``)."""
        return max(0.0, self.interval - (self._clock() - self._last))

    def beat(self, task: Optional[tuple[int, ...]] = None,
             span: Optional[int] = None, phase: str = "exploring",
             force: bool = False) -> bool:
        """Ship one heartbeat if due (or *force*); True when shipped."""
        now = self._clock()
        if not force and now - self._last < self.interval:
            return False
        self._last = now
        if self._sync is not None:
            self._sync()
        record = HeartbeatRecord(
            worker=self.worker,
            seq=self.seq,
            state=self.registry.state_dict(),
            task=tuple(task) if task is not None else None,
            span=span,
            phase=phase,
            events=tuple(self.ring.drain()) if self.ring is not None else (),
        )
        self.seq += 1
        try:
            self.conn.send(("hb", self.worker, record))
        except (OSError, ValueError):
            return False  # coordinator went away; the main loop notices
        return True


class FlightRecorder:
    """Coordinator-side post-mortem rings, one per worker.

    Heartbeats carry each worker's recent trace events; the recorder
    retains the newest *capacity* per worker and writes them to
    ``flight-w<wid>-<kind>-<n>.jsonl`` (header line + one event per
    line) when the engine observes that worker crash or stall.  The
    header's ``ts`` reads *clock*, the coordinator's.
    """

    def __init__(self, directory: str, capacity: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("flight capacity must be >= 1")
        self.directory = directory
        self.capacity = capacity
        self._clock = clock
        os.makedirs(directory, exist_ok=True)
        self._rings: dict[int, deque] = {}
        #: Paths of every dump written, in order.
        self.dumps: list[str] = []

    def extend(self, worker: int, events: Iterable[dict]) -> None:
        ring = self._rings.get(worker)
        if ring is None:
            ring = self._rings[worker] = deque(maxlen=self.capacity)
        ring.extend(events)

    def record_failure(self, worker: int, kind: str, detail: str = "",
                       task: Optional[list] = None) -> str:
        """Dump *worker*'s ring (possibly empty) and return the path."""
        events = list(self._rings.pop(worker, ()))
        path = os.path.join(
            self.directory,
            f"flight-w{worker}-{kind}-{len(self.dumps):03d}.jsonl",
        )
        header = {
            "type": FLIGHT_HEADER,
            "ts": self._clock(),
            "worker": worker,
            "kind": kind,
            "detail": detail,
            "task": task,
            "events": len(events),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_encode_line(header))
            for event in events:
                fh.write(_encode_line(event))
        self.dumps.append(path)
        return path


class StatusServer:
    """``/status`` + ``/metrics`` + ``/healthz`` on a daemon thread.

    Binds loopback only; ``port=0`` picks a free port (read
    :attr:`port` / :attr:`url` after construction).
    """

    def __init__(self, status: RunStatus, port: int = 0,
                 host: str = "127.0.0.1"):
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    path = self.path.rstrip("/") or "/"
                    if path == "/status":
                        body = json.dumps(status.snapshot()).encode("utf-8")
                        ctype = "application/json"
                    elif path == "/metrics":
                        body = status.prometheus().encode("utf-8")
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    elif path in ("/", "/healthz"):
                        body = b"ok\n"
                        ctype = "text/plain; charset=utf-8"
                    else:
                        self.send_error(404)
                        return
                except Exception as exc:  # surface, don't kill the thread
                    self.send_error(500, type(exc).__name__)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # no per-request stderr noise from the run

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self.url = f"http://{host}:{self.port}"
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[tuple[int, int]] = None

    def start(self) -> "StatusServer":
        self._wake = os.pipe()
        self._thread = threading.Thread(
            target=self._serve, args=(self._wake[0],), daemon=True,
            name="repro-status-http",
        )
        self._thread.start()
        return self

    def _serve(self, wake: int) -> None:
        """Answer requests until :meth:`stop` writes to the *wake* pipe.

        It blocks in one ``select`` over the listener and the pipe, so it
        neither polls nor keeps :meth:`stop` waiting for a tick.
        """
        httpd = self._httpd
        httpd.timeout = 0   # handle_request() must not block on a lost client
        while True:
            ready, _, _ = select.select([httpd, wake], [], [])
            if wake in ready:
                return
            httpd.handle_request()

    def stop(self) -> None:
        if self._thread is not None:
            os.write(self._wake[1], b"x")
            self._thread.join(timeout=5.0)
            self._thread = None
            for fd in self._wake:
                os.close(fd)
            self._wake = None
        self._httpd.server_close()


class StatusLogger:
    """Appends ``status.sample`` JSONL records to a file.

    Each line is ``{"seq", "ts", "type": "status.sample"}`` plus the
    full :meth:`RunStatus.snapshot` — the same shape the HTTP endpoint
    serves, so ``repro.tools.top --status-log`` and ``trace_report``
    replay a run's trajectory offline.  It runs no thread: the
    coordinator's loop calls :meth:`sample` and, after the run is
    sealed, :meth:`close`, each with a reading of its clock for the
    stamp.  Every sample is flushed (the point is surviving an unclean
    end).
    """

    def __init__(self, status: RunStatus, path: str):
        self.status = status
        self.path = path
        self._sink = JsonlSink(path, autoflush=True)
        self._seq = 0

    def sample(self, now: float) -> None:
        """Append one sample stamped *now*."""
        event = {"seq": self._seq, "ts": now, "type": STATUS_SAMPLE}
        event.update(self.status.snapshot())
        self._sink.write(event)
        self._seq += 1

    def close(self, now: float) -> None:
        """Write the last sample, stamped *now*, and close the file."""
        self.sample(now)
        self._sink.close()
