"""The typed trace-event schema.

One flat namespace of dotted event types, each with a declared set of
required fields.  The tracer validates known types at emit time (tracing
is opt-in, so validation costs nothing on the default path); unknown
types pass through so downstream workloads can add events without
touching this table, at the cost of no field checking.

Field conventions:

* ``sid`` — snapshot id; ``parent`` is a sid or None.
* ``asid`` — address-space id.  ``snapshot.restore`` records the asid of
  the fresh COW fork it returns, which is what lets a report join later
  ``mem.cow_fault`` events back to the restore that caused them.
* ``vpn`` — virtual page number.
* ``depth`` — search depth (number of guesses on the path).
* ``worker`` — logical core id in the parallel engine, or the worker
  process id in the cluster engine (stamped on every worker-originated
  event via the tracer's emit-time context).
* ``path`` — the decision prefix reaching the event, as a list.  The
  terminal search events (``search.guess/fail/solution/kill``) carry it
  so the profiler can rebuild the guess tree without positional
  guessing; they also carry ``steps`` (guest instructions retired by the
  extension run ending at the event) and, in the cluster engine,
  ``replay_steps`` (the rehydration share of that run).
* ``span`` — the root span id of the cluster run a ``task.*`` event
  belongs to (propagated to workers inside every PrefixTask).
* ``wseq`` — the original worker-local ``seq`` of a merged event
  (:meth:`repro.obs.trace.Tracer.ingest` preserves it when it assigns
  the merged stream's global ``seq``).
"""

from __future__ import annotations

from typing import Any, Mapping

# -- snapshot lifecycle ------------------------------------------------
SNAPSHOT_TAKE = "snapshot.take"
SNAPSHOT_RESTORE = "snapshot.restore"
SNAPSHOT_DISCARD = "snapshot.discard"
SNAPSHOT_PRUNE = "snapshot.prune"

# -- memory subsystem --------------------------------------------------
MEM_COW_FAULT = "mem.cow_fault"
MEM_PAGE_ALLOC = "mem.page_alloc"

# -- libOS -------------------------------------------------------------
LIBOS_SYSCALL = "libos.syscall"

# -- versioned file layer / crash simulation ---------------------------
#: A per-inode barrier retired ``records`` pending blocks to durability.
FILE_FSYNC = "file.fsync"
#: A global barrier flushed ``records`` pending data blocks (plus all
#: pending namespace records).
FILE_SYNC = "file.sync"
#: A crash point was prepared: ``point`` is the log index, ``dims`` the
#: number of persistence dimensions the search will fork over.
CRASH_SELECT = "crash.select"
#: A crash image was materialised; ``kept`` at-risk records survived.
CRASH_COMMIT = "crash.commit"

# -- record/replay of nondeterministic events --------------------------
#: A nondeterministic syscall outcome was recorded (``replayed`` False)
#: or served from the log (``replayed`` True).  ``nseq`` is the event's
#: per-segment sequence number (``seq`` is the tracer's own counter).
REPLAY_EVENT = "replay.event"

# -- search engine -----------------------------------------------------
SEARCH_GUESS = "search.guess"
SEARCH_FAIL = "search.fail"
SEARCH_SOLUTION = "search.solution"
SEARCH_KILL = "search.kill"
#: A cluster worker hit its budget at a choice point and handed the
#: subtree back to the coordinator instead of guessing.
SEARCH_SPILL = "search.spill"

# -- cluster worker task spans (worker side) ---------------------------
TASK_BEGIN = "task.begin"
TASK_END = "task.end"

# -- parallel scheduler ------------------------------------------------
PARALLEL_SCHEDULE = "parallel.schedule"
PARALLEL_PREEMPT = "parallel.preempt"

# -- process-parallel cluster (coordinator side) -----------------------
PARALLEL_DISPATCH = "parallel.dispatch"
PARALLEL_RESULT = "parallel.result"
PARALLEL_CRASH = "parallel.crash"
PARALLEL_TIMEOUT = "parallel.timeout"
PARALLEL_RETRY = "parallel.retry"
PARALLEL_DROP = "parallel.drop"
#: The supervisor respawned a worker into a failed slot (after backoff).
PARALLEL_RESPAWN = "parallel.respawn"
#: A task out of retries was quarantined: its kills spanned more
#: distinct workers than the retry budget.
PARALLEL_POISONED = "parallel.poisoned"
#: The pool collapsed below min_workers; the coordinator finishes the
#: remaining frontier in-process.
PARALLEL_DEGRADED = "parallel.degraded"
#: An idle worker announced a steal (the pull half of work-stealing;
#: ``want`` is the batch size granted, the matching grant is a
#: parallel.dispatch).
PARALLEL_STEAL = "parallel.steal"
#: A steal showed a task's result lost in flight (its worker had
#: received the fence and was idle): the fence was retired and the task
#: requeued under a fresh one.
PARALLEL_LEASE_EXPIRED = "parallel.lease_expired"
#: A result arrived under a fence that is no longer live (reclaimed or
#: revoked lease, superseded grant, or duplicated delivery) and was
#: discarded wholesale.
PARALLEL_FENCED_STALE = "parallel.fenced_stale"
#: An external worker joined the pool over the network (elastic
#: membership).
PARALLEL_JOIN = "parallel.join"

# -- crash-tolerance journal -------------------------------------------
#: Emitted by journal recovery with the rebuilt-run shape.
JOURNAL_RECOVER = "journal.recover"

# -- live telemetry ----------------------------------------------------
#: A periodic coordinator status sample (one full RunStatus snapshot),
#: appended as JSONL by ``run_guest --status-log``.  Written directly by
#: the status logger, not emitted through the tracer.
STATUS_SAMPLE = "status.sample"
#: First line of a flight-recorder post-mortem dump: which worker died,
#: how, and how many ring events follow.
FLIGHT_HEADER = "flight.header"

# -- chaos injection (deterministic fault harness) ---------------------
#: A worker-side fault fired (kind: exit | stall | garbage).  Emitted in
#: the worker just before the fault, so for ``exit`` it usually dies
#: with the worker's un-shipped trace segment — by design: the fault is
#: observable coordinator-side as parallel.crash/timeout instead.
CHAOS_WORKER_FAULT = "chaos.worker_fault"
#: The chaos plan killed the coordinator at a journal epoch.
CHAOS_COORDINATOR_KILL = "chaos.coordinator_kill"
#: The chaos plan injected a journal fault (kind: tear | bitflip).
CHAOS_JOURNAL_FAULT = "chaos.journal_fault"
#: The chaos plan acted on a transport frame (action: drop | delay |
#: dup | hold; direction: c2w | w2c).
CHAOS_NET_FAULT = "chaos.net_fault"

#: Required fields per event type.  Extra fields are always allowed.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    SNAPSHOT_TAKE: ("sid", "parent", "live"),
    SNAPSHOT_RESTORE: ("sid", "asid"),
    SNAPSHOT_DISCARD: ("sid", "private_pages"),
    SNAPSHOT_PRUNE: ("sid", "depth"),
    MEM_COW_FAULT: ("asid", "vpn", "kind"),
    MEM_PAGE_ALLOC: ("asid", "pages", "kind"),
    LIBOS_SYSCALL: ("nr", "name"),
    FILE_FSYNC: ("fd", "records"),
    FILE_SYNC: ("records",),
    CRASH_SELECT: ("point", "dims"),
    CRASH_COMMIT: ("kept",),
    REPLAY_EVENT: ("kind", "replayed", "path", "nseq"),
    SEARCH_GUESS: ("n", "depth"),
    SEARCH_FAIL: ("depth",),
    SEARCH_SOLUTION: ("depth", "path"),
    SEARCH_KILL: ("depth",),
    SEARCH_SPILL: ("depth", "n"),
    TASK_BEGIN: ("worker", "task", "depth"),
    TASK_END: ("worker", "task", "solutions", "spilled",
               "explore_steps", "replay_steps"),
    PARALLEL_SCHEDULE: ("worker", "ext", "depth"),
    PARALLEL_PREEMPT: ("worker", "steps"),
    PARALLEL_DISPATCH: ("worker", "tasks"),
    PARALLEL_RESULT: ("worker", "solutions", "spilled"),
    PARALLEL_CRASH: ("worker",),
    PARALLEL_TIMEOUT: ("worker",),
    PARALLEL_RETRY: ("worker", "tasks"),
    PARALLEL_DROP: ("tasks",),
    PARALLEL_RESPAWN: ("worker", "slot", "failures"),
    PARALLEL_POISONED: ("task", "kills"),
    PARALLEL_DEGRADED: ("pending",),
    PARALLEL_STEAL: ("worker", "want"),
    PARALLEL_LEASE_EXPIRED: ("task", "fence", "worker"),
    PARALLEL_FENCED_STALE: ("worker", "task", "fence"),
    PARALLEL_JOIN: ("worker",),
    JOURNAL_RECOVER: ("records", "pending", "solutions", "skipped", "torn"),
    STATUS_SAMPLE: ("tasks", "solutions", "throughput"),
    FLIGHT_HEADER: ("worker", "kind", "events"),
    CHAOS_WORKER_FAULT: ("kind",),
    CHAOS_COORDINATOR_KILL: ("epoch",),
    CHAOS_JOURNAL_FAULT: ("kind", "epoch"),
    CHAOS_NET_FAULT: ("action", "direction", "worker"),
}

EVENT_TYPES = frozenset(EVENT_FIELDS)

#: The subsystem prefix of each event type (`snapshot`, `mem`, ...).
def subsystem(etype: str) -> str:
    return etype.split(".", 1)[0]


class EventSchemaError(ValueError):
    """A known event type was emitted with required fields missing."""


def validate_event(etype: str, fields: Mapping[str, Any]) -> None:
    """Check *fields* against the schema for *etype*.

    Raises :class:`EventSchemaError` when a known type misses a required
    field; unknown types are accepted as-is.
    """
    required = EVENT_FIELDS.get(etype)
    if required is None:
        return
    missing = [key for key in required if key not in fields]
    if missing:
        raise EventSchemaError(
            f"event {etype!r} missing required field(s): {', '.join(missing)}"
        )
