"""Record/replay of nondeterministic guest events (the rr lever).

The backtracking model assumes re-execution reaches the same state, so
until this module only analyzer-certified deterministic guests could be
sharded across replaying workers or resumed from a journal.  rr's design
("Lightweight User-Space Record And Replay") removes that restriction:
record the *outcome* of every nondeterministic site the first time it
executes, then interpose the recorded outcome on every re-execution —
the guest becomes effectively deterministic without being rewritten.

Three nondeterministic sources exist at the libOS boundary:

* ``sys_time`` — the wall clock (nanoseconds);
* ``sys_getrandom`` — entropy written into guest memory;
* ``read(0, ...)`` — interactive console input.

Keying
------
An event is keyed by ``(decision prefix, per-segment sequence number)``.
A *segment* is the guest execution between feeding one guess outcome
(or program start) and the next choice point; within a segment the guest
is deterministic **given** the nondet outcomes fed to it, so induction
over the sequence number makes replay exact: the k-th nondet call of the
segment reached via prefix ``p`` is the same site with the same state on
every execution, whichever engine runs it.  The same key therefore
means the same event in the snapshot engine (which executes each segment
exactly once), the replay engines (which re-execute segments from the
program start), and cluster workers (which rehydrate subtrees by prefix
replay) — that shared identity is what makes sequential, process-parallel
and killed-and-resumed runs produce identical solution multisets.

Persistence
-----------
Events ride the run journal as ``nondet`` records (appended *before*
their task's ``complete`` record, so a lost completion still leaves its
events durable and a re-explored subtree replays rather than re-rolls),
and stand alone as a CRC-sealed JSONL replay-log file for the
``--replay-log`` CLI flag.  Tampered or truncated log files raise
:class:`~repro.core.errors.ReplayDivergenceError` — never a silent
divergence.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.errors import ReplayDivergenceError
from repro.core.journal import decode_record, encode_record
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER

#: Recognised nondeterministic event kinds.
NONDET_KINDS = ("time", "random", "input")

#: Recorder operating modes (mirrors the CLI ``--replay-mode`` values).
REPLAY_MODES = ("off", "record", "strict")

#: Replay-log file format version (header record of the JSONL file).
REPLAY_LOG_VERSION = 1


@dataclass(frozen=True)
class NondetEvent:
    """One recorded nondeterministic outcome.

    ``path`` is the decision prefix at call time, ``seq`` the 0-based
    index of the call within its segment, ``payload`` the raw outcome
    bytes (little-endian u64 for ``time``, the buffer contents for
    ``random``/``input``).  ``pc`` is the guest program counter of the
    syscall site, carried for diagnostics only — it is not part of the
    identity, so a re-assembled but execution-identical guest replays.
    """

    kind: str
    path: tuple[int, ...]
    seq: int
    payload: bytes
    pc: Optional[int] = None

    def key(self) -> tuple[tuple[int, ...], int]:
        return (self.path, self.seq)

    def to_record(self) -> dict:
        """JSON-safe form (journal ``nondet`` records, replay-log lines)."""
        return {
            "kind": self.kind,
            "path": list(self.path),
            "seq": self.seq,
            "data": self.payload.hex(),
            "pc": self.pc,
        }

    @classmethod
    def from_record(cls, record: dict) -> "NondetEvent":
        """Rebuild an event from :meth:`to_record` output.

        Raises :class:`~repro.core.errors.ReplayDivergenceError` on a
        malformed record — a log that cannot be decoded must never be
        silently skipped (skipping would *be* a divergence).
        """
        try:
            kind = record["kind"]
            if kind not in NONDET_KINDS:
                raise ValueError(f"unknown nondet kind {kind!r}")
            return cls(
                kind=kind,
                path=tuple(int(d) for d in record["path"]),
                seq=int(record["seq"]),
                payload=bytes.fromhex(record["data"]),
                pc=record.get("pc"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayDivergenceError(
                f"malformed nondet event record {record!r}: {exc}"
            ) from None


class NondetLog:
    """The keyed store of recorded nondet outcomes for one run lineage.

    Merging is first-write-wins: an event key is immutable once
    recorded, because durable state (journaled solutions) may already
    depend on its payload.  Conflicting re-recordings — a crashed
    worker's retry re-rolling a segment whose original events never
    reached the coordinator is the benign case — are counted, not
    applied.
    """

    def __init__(self, events: Iterable[NondetEvent] = ()):
        self._events: dict[tuple[tuple[int, ...], int], NondetEvent] = {}
        #: Merge attempts that hit an existing key with different content.
        self.conflicts = 0
        for event in events:
            self.record(event)

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NondetLog):
            return NotImplemented
        return self._events == other._events

    def lookup(self, path: tuple[int, ...], seq: int) -> Optional[NondetEvent]:
        return self._events.get((tuple(path), seq))

    def record(self, event: NondetEvent) -> bool:
        """Add *event*; returns False (and counts) on a conflicting key."""
        key = event.key()
        existing = self._events.get(key)
        if existing is not None:
            if existing != event:
                self.conflicts += 1
            return False
        self._events[key] = event
        return True

    def merge(self, events: Iterable[NondetEvent]) -> int:
        """Record every event; returns how many were newly added."""
        return sum(1 for event in events if self.record(event))

    def merge_records(self, records: Iterable[dict]) -> int:
        return self.merge(NondetEvent.from_record(r) for r in records)

    def events(self) -> list[NondetEvent]:
        """All events, ordered by (path, seq) — a canonical order."""
        return sorted(
            self._events.values(), key=lambda e: (e.path, e.seq)
        )

    def events_for_task(self, prefix: tuple[int, ...]) -> list[NondetEvent]:
        """Every event a worker needs to explore the subtree at *prefix*.

        That is events on the rehydration path (``path`` a proper prefix
        of the task's prefix) *plus* events inside the subtree itself
        (``path`` extends the prefix) — the latter exist after a resume
        whose ``complete`` record was lost while its ``nondet`` record
        survived, and replaying them is what keeps the re-explored
        subtree's solutions identical to the durable ones.
        """
        prefix = tuple(prefix)
        out = []
        for event in self._events.values():
            p = event.path
            if p[: len(prefix)] == prefix or prefix[: len(p)] == p:
                out.append(event)
        out.sort(key=lambda e: (e.path, e.seq))
        return out

    def copy(self) -> "NondetLog":
        clone = NondetLog()
        clone._events = dict(self._events)
        return clone

    # -- replay-log files ----------------------------------------------

    def save(self, path: str, program: Optional[str] = None) -> int:
        """Write the log as a CRC-sealed JSONL replay-log file.

        Each line is a canonically encoded record with a ``crc`` field
        (the journal's sealing scheme); the first line is a header
        carrying the format version and, when given, the guest program
        digest.  Returns the number of event lines written.
        """
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode_record({
                "type": "replay_log",
                "version": REPLAY_LOG_VERSION,
                "program": program,
                "events": len(events),
            }))
            for event in events:
                record = {"type": "nondet"}
                record.update(event.to_record())
                fh.write(encode_record(record))
            fh.flush()
            os.fsync(fh.fileno())
        return len(events)

    @classmethod
    def load(cls, path: str, program: Optional[str] = None) -> "NondetLog":
        """Load a replay-log file, verifying every line.

        Any corruption — a flipped byte, a truncated tail, a missing
        header, an event-count mismatch from deleted lines — raises
        :class:`~repro.core.errors.ReplayDivergenceError`.  A log that
        fails verification must refuse loudly: replaying a partial or
        mutated log *is* divergence, just deferred.
        """
        if not os.path.exists(path):
            raise ReplayDivergenceError(f"replay log not found: {path}")
        header: Optional[dict] = None
        log = cls()
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                record = decode_record(text, required=())
                if record is None:
                    raise ReplayDivergenceError(
                        f"replay log {path} is corrupt at line {lineno} "
                        "(CRC mismatch or undecodable record); refusing "
                        "to replay a tampered or truncated log"
                    )
                if record.get("type") == "replay_log":
                    header = record
                    continue
                log.record(NondetEvent.from_record(record))
        if header is None:
            raise ReplayDivergenceError(
                f"replay log {path} has no header record; the file is "
                "truncated or is not a replay log"
            )
        if header.get("events") != len(log):
            raise ReplayDivergenceError(
                f"replay log {path} header declares {header.get('events')} "
                f"events but {len(log)} survived: lines were removed"
            )
        recorded = header.get("program")
        if program is not None and recorded is not None and recorded != program:
            raise ReplayDivergenceError(
                f"replay log {path} was recorded for program {recorded}, "
                f"refusing to replay against {program}"
            )
        return log


class Recorder:
    """One engine's record/replay session over a :class:`NondetLog`.

    The engine attaches the recorder to its syscall dispatcher and calls
    :meth:`begin_segment` every time execution (re-)enters a segment —
    at the program start and after each guess outcome is fed.  The
    dispatcher then routes every nondeterministic syscall through
    :meth:`intercept`.

    Modes:

    * ``"record"`` — replay recorded outcomes where the key exists,
      generate-and-record fresh outcomes where it does not (the rr
      record leg, and the replay leg for already-recorded territory);
    * ``"strict"`` — replay only; a key miss raises
      :class:`~repro.core.errors.ReplayDivergenceError` (verified
      replay of a complete log).

    ``"off"`` is represented by *no* recorder being attached.
    """

    def __init__(self, mode: str = "record",
                 log: Optional[NondetLog] = None):
        if mode not in ("record", "strict"):
            raise ValueError(
                f"recorder mode must be 'record' or 'strict', got {mode!r}"
            )
        self.mode = mode
        self.log = log if log is not None else NondetLog()
        self._path: tuple[int, ...] = ()
        self._seq = 0
        #: Fresh events generated since the last :meth:`drain_fresh`.
        self._fresh: list[NondetEvent] = []
        self.recorded = 0
        self.replayed = 0

    def begin_segment(self, path: tuple[int, ...]) -> None:
        """Reset the per-segment sequence counter for decision *path*."""
        self._path = tuple(path)
        self._seq = 0

    @property
    def position(self) -> tuple[tuple[int, ...], int]:
        """The key the *next* interception will use (for diagnostics)."""
        return (self._path, self._seq)

    def intercept(self, kind: str, pc: Optional[int],
                  generate: Callable[[], bytes]) -> bytes:
        """Resolve one nondeterministic site to its outcome bytes.

        Replays the recorded payload when the current key is in the log
        (verifying the event kind), otherwise generates and records one
        (``record`` mode) or refuses (``strict`` mode).
        """
        path, seq = self._path, self._seq
        self._seq = seq + 1
        event = self.log.lookup(path, seq)
        if event is not None:
            if event.kind != kind:
                raise ReplayDivergenceError(
                    f"nondeterministic guest: replay expected a "
                    f"{event.kind!r} event at nondet site {seq} but the "
                    f"guest performed {kind!r}",
                    prefix=path, position=seq, pc=pc,
                )
            self.replayed += 1
            if _TRACER.enabled:
                _TRACER.emit(
                    _events.REPLAY_EVENT, kind=kind, replayed=True,
                    path=list(path), nseq=seq,
                )
            return event.payload
        if self.mode == "strict":
            raise ReplayDivergenceError(
                f"strict replay has no recorded outcome for {kind!r} "
                f"nondet site {seq} — the log is incomplete (truncated?) "
                "or the guest diverged from the recorded execution",
                prefix=path, position=seq, pc=pc,
            )
        payload = generate()
        event = NondetEvent(kind=kind, path=path, seq=seq,
                            payload=payload, pc=pc)
        self.log.record(event)
        self._fresh.append(event)
        self.recorded += 1
        if _TRACER.enabled:
            _TRACER.emit(
                _events.REPLAY_EVENT, kind=kind, replayed=False,
                path=list(path), nseq=seq,
            )
        return payload

    def drain_fresh(self) -> list[NondetEvent]:
        """Events recorded since the last drain (what a worker ships)."""
        fresh, self._fresh = self._fresh, []
        return fresh


def recorder_for(mode: str,
                 log: Optional[NondetLog] = None) -> Optional[Recorder]:
    """The recorder an engine attaches for replay *mode* (none for "off")."""
    if mode not in ("off", "record", "strict"):
        raise ValueError(
            f"replay_mode must be 'off', 'record' or 'strict', got {mode!r}"
        )
    return None if mode == "off" else Recorder(mode, log=log)


def live_time_ns() -> bytes:
    """The live ``sys_time`` outcome: wall-clock nanoseconds, LE u64."""
    return (time.time_ns() & ((1 << 64) - 1)).to_bytes(8, "little")


def live_random(length: int) -> bytes:
    """The live ``sys_getrandom`` outcome: *length* entropy bytes."""
    return os.urandom(length)
