"""The structured event trace: emit, order, export, compare.

One process-wide :data:`TRACER` (the simulator is single-threaded; the
parallel engine is simulated concurrency on one thread) receives typed
events from every subsystem.  The contract rr's engineering report
argues for — a cheap, always-on-able event stream — translates here to:

* **Disabled is (almost) free.**  ``TRACER.emit(...)`` with no sink
  attached is one attribute test and a return.  Hot paths additionally
  guard with ``if TRACER.enabled:`` so even the kwargs dict is never
  built.
* **Total order.**  Every event carries a monotonically increasing
  ``seq`` and a monotonic-clock ``ts``; within one process, ``seq`` is
  the ground-truth ordering (timestamps can tie).
* **JSONL export.**  One JSON object per line, flat schema
  ``{"seq", "ts", "type", ...fields}``; ``repro.tools.trace_report``
  consumes this.
* **Comparability.**  :func:`normalize_events` strips the volatile parts
  (timestamps, global id allocation) so two traces of the same logical
  run compare equal — the determinism guard the differential tests use.
"""

from __future__ import annotations

import json
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, IO, Iterable, Iterator, Optional, Union

from repro.obs.events import validate_event


class MemorySink:
    """Collects events in a list (tests and in-process analysis).

    Doubles as the cluster workers' buffered segment collector: a worker
    attaches one, explores a task, then :meth:`drain`\\ s the buffered
    segment into the result message it ships to the coordinator.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def drain(self) -> list[dict]:
        """Return the buffered events and clear the buffer."""
        events, self.events = self.events, []
        return events

    def close(self) -> None:  # symmetry with JsonlSink
        pass


def _settle_fh(fh: IO[str], owns: bool) -> None:
    """Flush (and close, when owned) a sink's file handle, tolerantly."""
    try:
        fh.flush()
        if owns:
            fh.close()
    except (OSError, ValueError):
        pass  # already closed, or the target went away


class JsonlSink:
    """Writes one JSON object per event to a file (or file-like object).

    Buffered tail events must not be lost when a sink is dropped without
    ``close()`` — short CLI runs and crashing processes both end that
    way — so every sink registers a ``weakref.finalize`` callback, which
    runs both at garbage collection and at interpreter exit (``atexit``).
    That cannot help against ``SIGKILL``; callers that must survive a
    hard kill set *autoflush* (every write hits the OS) or call
    :meth:`flush` at their own durability points.
    """

    def __init__(self, target: Union[str, IO[str]], autoflush: bool = False):
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.autoflush = autoflush
        self.written = 0
        self._finalizer = weakref.finalize(
            self, _settle_fh, self._fh, self._owns
        )

    def write(self, event: dict) -> None:
        self._fh.write(_encode_line(event))
        self.written += 1
        if self.autoflush:
            self._fh.flush()

    def flush(self) -> None:
        """Push buffered events to the OS (visible to other processes)."""
        self._fh.flush()

    def close(self) -> None:
        self._finalizer()  # flush + close once; later GC/atexit no-ops


def _json_default(value: Any) -> Any:
    """Last-resort JSON encoding for event field values."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, bytes):
        return value.decode("utf-8", errors="replace")
    return str(value)


#: Built once: ``json.dumps`` with these arguments builds an encoder per
#: call, which costs more than the encoding of a small event.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                            default=_json_default)


def _encode_line(event: dict) -> str:
    """Encode one event as a JSONL line: valid JSON on one line."""
    return _ENCODER.encode(event) + "\n"


class Tracer:
    """Dispatches typed events to attached sinks in monotonic order."""

    __slots__ = ("enabled", "_sinks", "_next_seq", "_clock", "_context")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        #: True iff at least one sink is attached.  Hot call sites read
        #: this before building event fields.
        self.enabled = False
        self._sinks: list[Any] = []
        self._next_seq = 0
        self._clock = clock
        #: Fields stamped onto every emitted event (explicit fields win).
        self._context: Optional[dict] = None

    # -- sink management -----------------------------------------------

    def attach(self, sink: Any) -> Any:
        """Attach *sink* (anything with ``write(event)``); returns it."""
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def detach(self, sink: Any) -> None:
        """Detach *sink*; unknown sinks are ignored."""
        if sink in self._sinks:
            self._sinks.remove(sink)
        self.enabled = bool(self._sinks)

    def reset_sinks(self) -> None:
        """Drop every sink *without* closing it.

        Cluster workers call this right after ``fork``: the child
        inherits the coordinator's sink list (including any open
        ``JsonlSink`` file object), and writing through the shared file
        description from two processes would interleave garbage.  The
        coordinator still owns the underlying file, so the child must
        forget the sinks, not close them.
        """
        self._sinks = []
        self.enabled = False

    # -- emit-time context ---------------------------------------------

    def set_context(self, **fields: Any) -> None:
        """Merge *fields* into the emit-time context.

        Every subsequently emitted event carries these fields unless the
        emit call supplies the same key itself.  A value of ``None``
        removes the key.  This is how cluster workers stamp ``worker``
        on *all* their events (snapshot, mem, search, ...) rather than
        only on the scheduling events the coordinator emits.
        """
        context = dict(self._context or {})
        for key, value in fields.items():
            if value is None:
                context.pop(key, None)
            else:
                context[key] = value
        self._context = context or None

    @contextmanager
    def capture(self) -> Iterator[MemorySink]:
        """Collect events into a MemorySink for the duration of a block."""
        sink = MemorySink()
        self.attach(sink)
        try:
            yield sink
        finally:
            self.detach(sink)

    @contextmanager
    def to_file(self, path: Union[str, IO[str]]) -> Iterator[JsonlSink]:
        """Stream events to a JSONL file for the duration of a block."""
        sink = JsonlSink(path)
        self.attach(sink)
        try:
            yield sink
        finally:
            self.detach(sink)
            sink.close()

    # -- emission ------------------------------------------------------

    def emit(self, etype: str, **fields: Any) -> None:
        """Record one event (no-op when no sink is attached).

        Known event types are validated against the schema; the event
        dict is shared across sinks (sinks must not mutate it).
        """
        if not self.enabled:
            return
        validate_event(etype, fields)
        event = {"seq": self._next_seq, "ts": self._clock(), "type": etype}
        if self._context is not None:
            event.update(self._context)
        event.update(fields)
        self._next_seq += 1
        for sink in self._sinks:
            sink.write(event)

    def ingest(self, events: Iterable[dict], **stamp: Any) -> int:
        """Re-sequence foreign events into this tracer's stream.

        The coordinator merges worker trace segments this way: each
        event keeps all its fields (including its worker-local ``ts``,
        which is only comparable *within* one worker), its original
        ``seq`` is preserved as ``wseq``, and a fresh global ``seq`` is
        assigned so the merged stream has one total order.  *stamp*
        fields are added where the event does not already carry them
        (e.g. ``worker=3`` for segments from pre-context traces).

        The event dicts are rewritten in place — callers hand over
        ownership of the segment (the cluster coordinator's segments
        come straight off the unpickler, so nothing else holds them).

        Returns the number of events written.  No-op when disabled.
        """
        if not self.enabled:
            return 0
        written = 0
        sinks = self._sinks
        for event in events:
            # The segment was unpickled for this call, so the dicts are
            # ours to rewrite in place — no per-event copy.
            wseq = event.get("seq")
            if wseq is not None:
                event["wseq"] = wseq
            event["seq"] = self._next_seq
            self._next_seq += 1
            if stamp:
                for key, value in stamp.items():
                    event.setdefault(key, value)
            for sink in sinks:
                sink.write(event)
            written += 1
        return written


#: The process-wide tracer every instrumented subsystem emits to.
TRACER = Tracer()


# ----------------------------------------------------------------------
# Trace comparison
# ----------------------------------------------------------------------

#: Fields holding globally-allocated ids, grouped by id space: two runs
#: of the same program allocate different raw sids/asids, but the *k*-th
#: distinct id observed must line up.  ``parent`` refers to sids.
_ID_SPACES = {"sid": "sid", "parent": "sid", "asid": "asid"}


def normalize_events(events: Iterable[dict]) -> list[dict]:
    """Rewrite a trace into its run-independent canonical form.

    Drops ``ts``, rebases ``seq`` to start at 0, and remaps every id
    field to its first-occurrence index within its id space.  Two traces
    of deterministic runs normalize to equal lists; any divergence
    (ordering, fan-out, fault pattern) survives normalization.
    """
    out: list[dict] = []
    maps: dict[str, dict[Any, int]] = {"sid": {}, "asid": {}}
    base_seq: Optional[int] = None
    for event in events:
        canon = dict(event)
        canon.pop("ts", None)
        if base_seq is None:
            base_seq = canon.get("seq", 0)
        if "seq" in canon:
            canon["seq"] -= base_seq
        for field_name, space in _ID_SPACES.items():
            if field_name in canon and canon[field_name] is not None:
                mapping = maps[space]
                raw = canon[field_name]
                if raw not in mapping:
                    mapping[raw] = len(mapping)
                canon[field_name] = mapping[raw]
        out.append(canon)
    return out
