"""The write-ahead run journal: durable state for interruptible search.

The process-parallel engine's coordinator is a single point of failure:
workers are disposable (their subtrees are rebuildable by replay), but
until this module the coordinator's frontier, spilled tasks and found
solutions lived only in its heap.  The journal fixes that with the
cheapest durable representation the paper's replay lever allows —
*decision prefixes, not page tables*: because a certified-deterministic
guest can be rehydrated anywhere by replaying a prefix, the complete
recoverable state of a machine-scale run is a few KB of JSONL.

Format
------
Append-only JSONL.  Each record is one canonically encoded JSON object
(sorted keys, no whitespace) carrying:

* ``epoch`` — a monotonically increasing record number.  Epochs survive
  resume: a resumed run continues numbering where the journal left off,
  so the epoch is a total order over the whole run *lineage*.
* ``type`` — ``run_begin``, ``resume``, ``dispatch``, ``complete``,
  ``solution``, ``nondet``, ``poisoned``, ``drop``, ``run_end``.
* ``crc`` — CRC32 of the record's canonical encoding without the
  ``crc`` field.  Detects torn writes and bit rot on recovery.

Durability is a policy knob (``fsync="always" | "batch" | "off"``),
mirroring main-memory-database checkpointers: ``always`` fsyncs every
append (crash-consistent against power loss), ``batch`` fsyncs every
N records and on close (crash-consistent against process death, the
coordinator-kill case, at near-zero overhead), ``off`` never fsyncs.
Every policy flushes each record to the OS, so ``kill -9`` of the
coordinator loses at most one torn tail record.

Recovery
--------
:func:`recover` scans the journal, verifies CRCs, drops a torn tail
(counted, and truncated away before new records are appended) and skips
corrupt interior records (counted, surfaced — same semantics as
``trace_report``'s ``load_events``).  It rebuilds:

* the **pending frontier** — every task ever introduced (the root, each
  spill, each dispatch) that has no ``complete`` or ``poisoned`` record;
* the **solution multiset** — solutions ride inside their task's
  ``complete`` record, so a task's results become durable atomically:
  either the completion and all its solutions survived, or the task is
  re-explored and re-finds them.  Nothing is lost, nothing is doubled;
* the **quarantine** — poisoned tasks stay quarantined across resume,
  with their recorded evidence;
* the **completed-key set** — a resumed run that re-explores a subtree
  whose ``complete`` record was corrupted will re-spill children that
  already completed; the engine filters re-spills against this set so
  their solutions are never double-counted;
* the **nondet-event log** — under record/replay
  (:mod:`repro.core.recorder`) each task's freshly recorded
  nondeterministic outcomes land in a ``nondet`` record *before* the
  task's ``complete`` record, so a resumed run replays exactly the
  outcomes the durable solutions were computed from.  (The ordering
  matters: a surviving ``nondet`` whose ``complete`` was lost makes the
  re-explored subtree reproduce, not re-roll, its solutions.)
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.errors import JournalError, ResumeMismatchError
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER
from repro.search.shard import PrefixTask

#: Journal format version, recorded in every ``run_begin`` header.
JOURNAL_VERSION = 1

#: Supported fsync policies (see module docstring).
FSYNC_POLICIES = ("always", "batch", "off")

#: ``batch`` policy: fsync every this many appends.
DEFAULT_BATCH_RECORDS = 64


class TornWrite(Exception):
    """Raised by a journal fault hook to inject a torn tail write.

    The writer appends ``partial`` (a prefix of the encoded record),
    flushes it, then raises
    :class:`~repro.core.errors.CoordinatorKilled` — reproducing the
    on-disk state of a coordinator killed mid-``write(2)``.
    """

    def __init__(self, partial: str):
        self.partial = partial
        super().__init__("torn journal write injected")


def encode_record(record: dict) -> str:
    """Canonical one-line encoding of *record*, CRC appended.

    The CRC is computed over the canonical encoding (sorted keys, no
    whitespace) of the record *without* its ``crc`` field; verification
    re-derives the same encoding, so any mutated byte — including in
    the epoch or type — fails the check.
    """
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    with_crc = dict(record)
    with_crc["crc"] = crc
    return json.dumps(with_crc, sort_keys=True, separators=(",", ":")) + "\n"


def decode_record(line: str,
                  required: tuple[str, ...] = ("epoch", "type")) -> Optional[dict]:
    """Decode and verify one journal line; None if corrupt.

    Corrupt means: not JSON, not an object, missing ``crc`` or a
    *required* field, or CRC mismatch.  Replay-log files use the same
    sealing and require no field.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    if not isinstance(crc, int):
        return None
    if any(name not in record for name in required):
        return None
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if (zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF) != crc:
        return None
    return record


class JournalWriter:
    """Appends CRC-sealed records to a run journal.

    Parameters
    ----------
    path:
        Journal file.  Created (truncated) unless *truncate_to* is
        given, in which case the file is opened for resume: truncated
        to the last valid record boundary recovery reported, then
        appended to.
    fsync:
        Durability policy, one of :data:`FSYNC_POLICIES`.
    start_epoch:
        First epoch to assign (a resumed run continues the lineage).
    fault_hook:
        Chaos seam, called as ``fault_hook(epoch, line)`` before the
        encoded line is written.  It may return a mutated line (bit
        flips), raise :class:`TornWrite` (torn tail + kill), or raise
        :class:`~repro.core.errors.CoordinatorKilled` (kill before the
        record lands).  ``None`` return keeps the original line.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the
        writer maintains ``journal.records`` and ``journal.fsyncs``.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "batch",
        batch_records: int = DEFAULT_BATCH_RECORDS,
        start_epoch: int = 0,
        truncate_to: Optional[int] = None,
        fault_hook: Optional[Callable[[int, str], Optional[str]]] = None,
        registry=None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if batch_records < 1:
            raise JournalError("batch_records must be >= 1")
        self.path = path
        self.fsync = fsync
        self.batch_records = batch_records
        self.fault_hook = fault_hook
        self._epoch = start_epoch
        self._since_sync = 0
        self._closed = False
        # NB: MetricsRegistry defines __len__, so an empty registry is
        # falsy — the identity check is load-bearing.
        has_registry = registry is not None
        self._c_records = (
            registry.counter("journal.records") if has_registry else None
        )
        self._c_fsyncs = (
            registry.counter("journal.fsyncs") if has_registry else None
        )
        if truncate_to is None:
            self._fh = open(path, "w", encoding="utf-8")
        else:
            # Resume: chop the torn tail recovery found, keep the rest.
            self._fh = open(path, "r+", encoding="utf-8")
            self._fh.truncate(truncate_to)
            self._fh.seek(0, os.SEEK_END)

    @property
    def epoch(self) -> int:
        """The epoch the *next* record will carry."""
        return self._epoch

    def append(self, rtype: str, **fields: Any) -> int:
        """Seal and append one record; returns its epoch.

        The record is flushed to the OS before return under every fsync
        policy; ``always`` additionally fsyncs, ``batch`` fsyncs every
        :attr:`batch_records` appends.
        """
        if self._closed:
            raise JournalError("append to a closed journal")
        epoch = self._epoch
        record = {"epoch": epoch, "type": rtype}
        record.update(fields)
        line = encode_record(record)
        if self.fault_hook is not None:
            try:
                mutated = self.fault_hook(epoch, line)
            except TornWrite as torn:
                self._fh.write(torn.partial)
                self._fh.flush()
                from repro.core.errors import CoordinatorKilled

                raise CoordinatorKilled(epoch) from None
            if mutated is not None:
                line = mutated
        self._fh.write(line)
        self._fh.flush()
        self._epoch = epoch + 1
        if self._c_records is not None:
            self._c_records.inc()
        if self.fsync == "always":
            self._sync()
        elif self.fsync == "batch":
            self._since_sync += 1
            if self._since_sync >= self.batch_records:
                self._sync()
        return epoch

    def _sync(self) -> None:
        os.fsync(self._fh.fileno())
        self._since_sync = 0
        if self._c_fsyncs is not None:
            self._c_fsyncs.inc()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._fh.flush()
            if self.fsync != "off":
                self._sync()
        finally:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


@dataclass
class RecoveredRun:
    """Everything :func:`recover` rebuilt from a journal.

    ``pending`` is the frontier to resume from (introduction order —
    deterministic); ``solutions`` the durable ``(path, status, text)``
    triples from completed tasks; ``completed_keys`` every task key with
    a surviving ``complete`` record (the engine's re-spill filter);
    ``poisoned`` the quarantined tasks with their evidence.
    """

    path: str
    header: Optional[dict]
    last_epoch: int = -1
    #: Byte offset just past the last valid record; a resuming writer
    #: truncates here so the torn tail never precedes new records.
    valid_bytes: int = 0
    records: int = 0
    #: Corrupt interior records, skipped and counted (bit rot).
    skipped: int = 0
    #: Corrupt records at end of file, dropped as a torn tail.
    torn: int = 0
    pending: list[PrefixTask] = field(default_factory=list)
    completed_keys: set = field(default_factory=set)
    solutions: list[tuple] = field(default_factory=list)
    poisoned: list[tuple] = field(default_factory=list)
    dropped: list[PrefixTask] = field(default_factory=list)
    #: Recorded nondet events (record dicts) in journal order; the
    #: resuming engine merges them into its replay log.
    nondet_events: list[dict] = field(default_factory=list)
    run_end: Optional[dict] = None
    #: Per-type record counts (for the inspect CLI).
    counts: dict = field(default_factory=dict)
    resumes: int = 0
    #: Highest fencing token observed in any dispatch record; a resumed
    #: coordinator seeds its lease table past this so tokens stay
    #: monotonic across coordinator lifetimes (stale results from the
    #: previous life remain refusable).
    last_fence: int = 0
    #: Per-task-key dispatch/expire/stale history, in journal order:
    #: ``{key: [{"event", "worker", "fence", "epoch"}, ...]}``.  Powers
    #: the inspect CLI's lease/fence and blame reporting.
    lease_history: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """True when the journaled run already ran to its end."""
        return self.run_end is not None


def scan(path: str):
    """Low-level journal scan.

    Returns ``(records, skipped, torn, valid_bytes)``: the decoded
    records in file order, the count of corrupt interior lines, the
    count of corrupt lines at the tail, and the byte offset just past
    the last valid record.  A corrupt line followed only by more corrupt
    lines or EOF is torn tail; one followed by any valid record is an
    interior skip.
    """
    records: list[dict] = []
    skipped = 0
    valid_bytes = 0
    offset = 0
    tail_bad = 0
    with open(path, "rb") as fh:
        for raw in fh:
            offset += len(raw)
            text = raw.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            record = decode_record(text)
            if record is None:
                tail_bad += 1
                continue
            skipped += tail_bad
            tail_bad = 0
            records.append(record)
            valid_bytes = offset
    return records, skipped, tail_bad, valid_bytes


def recover(path: str) -> RecoveredRun:
    """Rebuild the resumable state of an interrupted run from *path*.

    Raises :class:`~repro.core.errors.JournalError` when the file is
    missing or no ``run_begin`` header survived.
    """
    if not os.path.exists(path):
        raise JournalError(f"journal not found: {path}")
    records, skipped, torn, valid_bytes = scan(path)
    out = RecoveredRun(path=path, header=None, skipped=skipped, torn=torn,
                       valid_bytes=valid_bytes)
    known: dict[tuple, PrefixTask] = {}
    poisoned_keys: set = set()
    dropped_keys: set = set()
    for record in records:
        out.records += 1
        rtype = record["type"]
        out.counts[rtype] = out.counts.get(rtype, 0) + 1
        out.last_epoch = max(out.last_epoch, record["epoch"])
        if rtype == "run_begin":
            if out.header is None:
                out.header = record
                root = PrefixTask.from_record(record["root"])
                known.setdefault(root.key(), root)
            continue
        if rtype == "resume":
            out.resumes += 1
            continue
        if rtype == "dispatch":
            task = PrefixTask.from_record(record["task"])
            known[task.key()] = task  # latest attempt wins
            out.last_fence = max(out.last_fence, task.fence)
            out.lease_history.setdefault(task.key(), []).append({
                "event": "dispatch",
                "worker": record.get("worker"),
                "fence": task.fence,
                "attempt": task.attempt,
                "epoch": record["epoch"],
            })
            continue
        if rtype in ("expire", "stale"):
            # Lease bookkeeping: a reclaimed lease's task was requeued
            # (its own dispatch record keeps it in ``known``); a stale
            # record is purely evidentiary — the fenced-off result was
            # discarded.  Neither changes the rebuilt frontier.
            key = tuple(record.get("task", {}).get("prefix", ()))
            fence = record.get("fence", 0)
            out.last_fence = max(out.last_fence, fence)
            out.lease_history.setdefault(key, []).append({
                "event": rtype,
                "worker": record.get("worker"),
                "fence": fence,
                "epoch": record["epoch"],
            })
            continue
        if rtype == "join":
            continue  # membership note; nothing to rebuild
        if rtype == "complete":
            key = tuple(record["task"]["prefix"])
            out.completed_keys.add(key)
            fence = record["task"].get("fence", 0)
            history = out.lease_history.get(key)
            if fence and history and (
                len(history) > 1 or history[0].get("fence") != fence
            ):
                # Close the lineage of a task that was re-dispatched or
                # fenced: record which grant actually landed.  (Tasks
                # with one dispatch and a matching completion carry no
                # forensic interest and stay out of the history.)
                history.append({
                    "event": "complete",
                    "worker": record.get("worker"),
                    "fence": fence,
                    "epoch": record["epoch"],
                })
            for path_, status, text in record.get("solutions", []):
                out.solutions.append((tuple(path_), status, text))
            for spill in record.get("spilled", []):
                task = PrefixTask.from_record(spill)
                known.setdefault(task.key(), task)
            continue
        if rtype == "nondet":
            out.nondet_events.extend(record.get("events", []))
            continue
        if rtype == "poisoned":
            task = PrefixTask.from_record(record["task"])
            known.setdefault(task.key(), task)
            poisoned_keys.add(task.key())
            out.poisoned.append((task, record.get("evidence", [])))
            continue
        if rtype == "drop":
            task = PrefixTask.from_record(record["task"])
            known.setdefault(task.key(), task)
            dropped_keys.add(task.key())
            continue
        if rtype == "run_end":
            out.run_end = record
            continue
        # Unknown record types (a newer writer) are counted and ignored.
    if out.header is None:
        raise JournalError(
            f"journal {path} has no surviving run_begin header "
            f"({out.records} records, {skipped} skipped, {torn} torn)"
        )
    # Dropped tasks get a fresh chance on resume: the retries they
    # exhausted died with the old worker pool.  (Poisoned tasks do not —
    # quarantine is evidence-backed and survives the pool.)
    out.pending = [
        task for key, task in known.items()
        if key not in out.completed_keys and key not in poisoned_keys
    ]
    out.dropped = [known[key] for key in dropped_keys]
    if _TRACER.enabled:
        _TRACER.emit(
            _events.JOURNAL_RECOVER, records=out.records,
            pending=len(out.pending), solutions=len(out.solutions),
            skipped=out.skipped, torn=out.torn,
        )
    return out


def program_digest(program) -> str:
    """Stable content hash of an assembled guest program.

    Covers the loaded image (text, data, bases, entry) — everything that
    determines execution — and nothing volatile (source text formatting,
    symbol names).
    """
    import hashlib

    h = hashlib.sha256()
    h.update(program.text)
    h.update(b"\x00")
    h.update(program.data)
    h.update(
        f"|{program.text_base}|{program.data_base}|{program.entry}".encode()
    )
    return h.hexdigest()


def check_resume(recovered: RecoveredRun, digest: str,
                 nondet_sites: Optional[tuple],
                 replay_mode: Optional[str] = None) -> None:
    """Refuse to resume a journal that belongs to a different run.

    The digest must match exactly.  The analyzer certificate state is
    compared when both sides have one: a journal recorded under
    ``verify="off"`` (``certified`` null) accepts any current state, and
    vice versa — but a *recorded* certificate that contradicts the
    *current* analysis means the analyzer (or program) changed under us.
    The replay mode is compared the same way: resuming a recorded run
    with replay off would re-roll the journaled nondet outcomes and
    break the solution-multiset guarantee, so the engine refuses.
    """
    header = recovered.header or {}
    recorded = header.get("program")
    if recorded != digest:
        raise ResumeMismatchError("program digest", recorded, digest)
    recorded_sites = header.get("nondet_sites")
    if recorded_sites is not None and nondet_sites is not None:
        current = [[pc, lint] for pc, lint in nondet_sites]
        if recorded_sites != current:
            raise ResumeMismatchError(
                "analyzer nondeterminism sites", recorded_sites, current
            )
    recorded_mode = header.get("replay_mode")
    if (
        recorded_mode is not None
        and replay_mode is not None
        and (recorded_mode == "off") != (replay_mode == "off")
    ):
        raise ResumeMismatchError("replay mode", recorded_mode, replay_mode)
