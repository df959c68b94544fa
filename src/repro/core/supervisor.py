"""Worker-pool supervision: respawn, give up, degrade.

The cluster's original failure handling was fail-and-retry bookkeeping:
a dead worker's tasks were requeued (attempt-bumped) and a replacement
was spawned immediately.  That policy melts down in two realistic
regimes — a *flaky host* (every immediate respawn dies again, burning
CPU in a crash loop) and a *poisonous task* (one pathological subtree
serially kills every worker that touches it, and its batch-mates burn
their retry budgets as collateral damage).

:class:`WorkerSupervisor` replaces it with a state machine per worker
slot and one failure budget per task:

* **Slots**, not workers: the pool has a fixed number of slots, and a
  slot holds the endpoint of the worker occupying it (the coordinator's
  one record of a worker).  Each failure of that worker schedules a
  respawn with exponential backoff plus deterministic jitter
  (:data:`BACKOFF_BASE_S`, :data:`BACKOFF_MAX_S`,
  :data:`BACKOFF_JITTER`).  A slot whose workers die
  :data:`MAX_SLOT_FAILURES` times consecutively is marked ``DEAD``
  (the host is presumed hostile to it); any successful task completion
  resets the streak.
* **Blame the head**: workers execute a dispatched batch in order and
  report per task, so the first unreported task is the one that was
  running when the worker died.  Only that *suspect* has its attempt
  bumped; batch-mates are requeued untouched — innocent tasks can no
  longer exhaust their retries by sharing a batch with a poisonous one.
* **One budget**: a lost suspect (crashed, timed out, or reclaimed by
  a steal) is retried while ``attempt < max_task_retries``.  At the
  budget it is given up: *quarantined* with its accumulated evidence
  (kind, worker, slot, time and detail per kill) when its kills span
  more than ``max_task_retries`` distinct workers — every attempt
  killed a different worker — and *dropped* otherwise.  The journal
  records either durably.
* **Graceful degradation**: when fewer than ``min_workers`` slots
  remain serviceable the engine stops paying process overhead for a
  pool that cannot sustain it and finishes the remaining frontier on an
  in-process endpoint (see ``repro.core.transport.LocalTransport``).

The supervisor is pure bookkeeping — it never spawns or kills anything
itself.  The engine asks it what to do; that keeps every transition unit
testable without processes.  The timings are module constants, not
options: tests that need others patch them.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Backoff before respawning slot failure k (consecutive):
#: ``BACKOFF_BASE_S * 2**(k-1)`` seconds, capped at ``BACKOFF_MAX_S``,
#: +/- ``BACKOFF_JITTER`` fraction of jitter drawn from a stream seeded
#: with ``JITTER_SEED`` (deterministic tests and chaos runs).
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0
BACKOFF_JITTER = 0.25
JITTER_SEED = 0
#: Consecutive worker deaths after which a slot is marked DEAD.
MAX_SLOT_FAILURES = 4

#: Verdicts on a lost suspect (:meth:`WorkerSupervisor.verdict`).
RETRY, DROP, POISON = "retry", "drop", "poison"


class SlotState(enum.Enum):
    RUNNING = "running"
    BACKOFF = "backoff"
    DEAD = "dead"


@dataclass
class WorkerSlot:
    """Scheduling state of one position in the worker pool."""

    index: int
    state: SlotState = SlotState.RUNNING
    #: Consecutive failures since the last completed task.
    failures: int = 0
    total_failures: int = 0
    respawns: int = 0
    #: Monotonic deadline at which a BACKOFF slot may respawn.
    respawn_due: float = 0.0
    #: False for slots backing *external* workers (elastic TCP joins):
    #: the engine cannot spawn a replacement into them, so a failure
    #: sends the slot straight to DEAD instead of BACKOFF.
    respawnable: bool = True
    #: The transport endpoint of the worker in this slot (None while
    #: the slot has none: failed, or not yet respawned).
    ep: Any = None


class WorkerSupervisor:
    """Tracks slot health and task blame for the cluster engine."""

    def __init__(self, workers: int, max_task_retries: int = 2,
                 min_workers: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if min_workers < 0:
            raise ValueError("min_workers must be >= 0")
        self.max_task_retries = max_task_retries
        self.min_workers = min_workers
        self._clock = clock
        self._rng = random.Random(JITTER_SEED)
        self.slots = [WorkerSlot(index=i) for i in range(workers)]
        #: task key -> one evidence dict per suspected kill; each names
        #: the worker it killed.
        self.evidence: dict[tuple, list[dict]] = {}
        self._poisoned_keys: set[tuple] = set()

    # -- queries -------------------------------------------------------

    def serviceable(self) -> int:
        """Slots that are not DEAD (RUNNING or recovering in BACKOFF)."""
        return sum(1 for s in self.slots if s.state is not SlotState.DEAD)

    def add_slot(self, respawnable: bool = True) -> WorkerSlot:
        """Grow the pool by one slot (elastic membership: a worker
        joined over the network mid-run).  External slots are not
        respawnable — the engine cannot spawn a replacement into them,
        so their failure is terminal for the slot — but while alive
        they count as serviceable capacity like any other: a pool whose
        local workers all died but which still has a joined worker is
        not collapsed."""
        slot = WorkerSlot(index=len(self.slots), respawnable=respawnable)
        self.slots.append(slot)
        return slot

    def collapsed(self) -> bool:
        """True when the pool can no longer sustain the configured floor."""
        return self.serviceable() < max(1, self.min_workers)

    def respawn_ready(self) -> list[WorkerSlot]:
        """BACKOFF slots whose respawn deadline has passed."""
        now = self._clock()
        return [
            s for s in self.slots
            if s.state is SlotState.BACKOFF and now >= s.respawn_due
        ]

    def next_respawn_due(self) -> Optional[float]:
        """Earliest respawn deadline among BACKOFF slots, or None."""
        due = [
            s.respawn_due for s in self.slots if s.state is SlotState.BACKOFF
        ]
        return min(due) if due else None

    def is_poisoned(self, key: tuple) -> bool:
        return key in self._poisoned_keys

    def health(self) -> list[dict]:
        """JSON-safe per-slot view for the live-telemetry exporters.

        One dict per slot: its state-machine state, failure streak and
        lifetime counts, (for BACKOFF slots) seconds until the respawn
        is due, and the id of the worker in the slot (None when empty).
        """
        now = self._clock()
        out: list[dict] = []
        for slot in self.slots:
            entry: dict = {
                "slot": slot.index,
                "state": slot.state.value,
                "failures": slot.failures,
                "total_failures": slot.total_failures,
                "respawns": slot.respawns,
            }
            if slot.state is SlotState.BACKOFF:
                entry["respawn_in_s"] = max(0.0, slot.respawn_due - now)
            entry["worker"] = slot.ep.wid if slot.ep is not None else None
            out.append(entry)
        return out

    # -- transitions ---------------------------------------------------

    def mark_running(self, slot: WorkerSlot) -> None:
        """A replacement worker was spawned into *slot*."""
        slot.state = SlotState.RUNNING
        slot.respawns += 1

    def record_success(self, slot: WorkerSlot) -> None:
        """A worker in *slot* completed a task; its failure streak resets."""
        slot.failures = 0

    def quarantine(self, key: tuple) -> None:
        """Externally mark *key* poisoned (journal recovery uses this)."""
        self._poisoned_keys.add(key)

    def record_failure(
        self,
        slot: WorkerSlot,
        worker_id: int,
        kind: str,
        suspect_key: Optional[tuple],
        detail: str = "",
    ) -> None:
        """Account one worker death: schedule the slot's respawn (or
        mark it DEAD) and add the kill to the suspect's evidence.

        *kind* is ``"crash"`` or ``"timeout"``; *suspect_key* the key of
        the task that was executing (batch head), or None when the
        worker died idle.
        """
        now = self._clock()
        slot.failures += 1
        slot.total_failures += 1
        if not slot.respawnable or slot.failures >= MAX_SLOT_FAILURES:
            slot.state = SlotState.DEAD
        else:
            delay = min(BACKOFF_BASE_S * (2 ** (slot.failures - 1)),
                        BACKOFF_MAX_S)
            jitter = BACKOFF_JITTER * delay
            delay = max(0.0, delay + self._rng.uniform(-jitter, jitter))
            slot.state = SlotState.BACKOFF
            slot.respawn_due = now + delay
        if suspect_key is not None:
            self.evidence.setdefault(suspect_key, []).append({
                "kind": kind,
                "worker": worker_id,
                "slot": slot.index,
                "time": now,
                "detail": detail,
            })

    def verdict(self, task) -> str:
        """Decide a lost suspect *task* (a :class:`PrefixTask`):
        :data:`RETRY` while ``task.attempt < max_task_retries``; at the
        budget :data:`POISON` (its key is quarantined) when its kills
        span more than ``max_task_retries`` distinct workers, and
        :data:`DROP` otherwise."""
        if task.attempt < self.max_task_retries:
            return RETRY
        key = task.key()
        killers = {kill["worker"] for kill in self.evidence.get(key, ())}
        if len(killers) <= self.max_task_retries:
            return DROP
        self._poisoned_keys.add(key)
        return POISON
