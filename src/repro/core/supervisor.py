"""Worker-pool supervision: respawn, circuit-break, degrade.

The cluster's original failure handling was fail-and-retry bookkeeping:
a dead worker's tasks were requeued (attempt-bumped) and a replacement
was spawned immediately.  That policy melts down in two realistic
regimes — a *flaky host* (every immediate respawn dies again, burning
CPU in a crash loop) and a *poisonous task* (one pathological subtree
serially kills every worker that touches it, and its batch-mates burn
their retry budgets as collateral damage).

:class:`WorkerSupervisor` replaces it with a state machine per worker
slot and a circuit breaker per task:

* **Slots**, not workers: the pool has a fixed number of slots; each
  failure of the worker occupying a slot schedules a respawn with
  exponential backoff plus deterministic jitter.  A slot whose workers
  die ``max_slot_failures`` times consecutively is marked ``DEAD``
  (the host is presumed hostile to it); any successful task completion
  resets the streak.
* **Blame the head**: workers execute a dispatched batch in order and
  report per task, so the first unreported task is the one that was
  running when the worker died.  Only that *suspect* has its attempt
  bumped; batch-mates are requeued untouched — innocent tasks can no
  longer exhaust their retries by sharing a batch with a poisonous one.
* **Circuit breaker**: a task whose suspected kills span
  ``poison_threshold`` *distinct workers* is poisoned — quarantined
  with its accumulated evidence (kind, worker, attempt per kill)
  instead of being retried or silently dropped.  The journal records
  the quarantine durably.
* **Graceful degradation**: when fewer than ``min_workers`` slots
  remain serviceable the engine stops paying process overhead for a
  pool that cannot sustain it and finishes the remaining frontier on an
  in-process endpoint (see ``repro.core.transport.LocalTransport``).

The supervisor is pure bookkeeping — it never spawns or kills anything
itself.  The engine asks it what to do; that keeps every transition unit
testable without processes.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class SlotState(enum.Enum):
    RUNNING = "running"
    BACKOFF = "backoff"
    DEAD = "dead"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs governing respawn, poisoning and degradation."""

    #: Below this many serviceable (non-DEAD) slots, degrade to
    #: in-process execution rather than aborting the run.
    min_workers: int = 1
    #: A task suspected of killing this many *distinct* workers is
    #: poisoned (quarantined with evidence, never re-dispatched).
    poison_threshold: int = 3
    #: Backoff before respawning slot failure k (consecutive):
    #: ``backoff_base * 2**(k-1)`` seconds, capped at ``backoff_max``,
    #: +/- ``backoff_jitter`` fraction of deterministic jitter.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    #: Consecutive worker deaths after which a slot is marked DEAD.
    max_slot_failures: int = 4
    #: Seed for the jitter stream (deterministic tests and chaos runs).
    seed: int = 0


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


@dataclass
class FailureDecision:
    """What the engine should do about one worker death."""

    slot: WorkerSlot
    #: True when the suspect task crossed the poison threshold.
    poison: bool = False
    #: Accumulated evidence for the suspect task (all its kills so far).
    evidence: list = field(default_factory=list)
    #: Backoff delay scheduled before this slot respawns (0 when DEAD).
    backoff: float = 0.0
    #: True when this failure killed the slot for good.
    slot_died: bool = False


class WorkerSupervisor:
    """Tracks slot health and task blame for the cluster engine."""

    def __init__(self, workers: int, policy: Optional[SupervisorPolicy] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy if policy is not None else SupervisorPolicy()
        if self.policy.min_workers < 0:
            raise ValueError("min_workers must be >= 0")
        if self.policy.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self._clock = clock
        self._rng = random.Random(self.policy.seed)
        self.slots = [WorkerSlot(index=i) for i in range(workers)]
        #: task key -> list of evidence dicts (one per suspected kill).
        self._evidence: dict[tuple, list[dict]] = {}
        #: task key -> set of worker ids it is suspected of killing.
        self._killers: dict[tuple, set[int]] = {}
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
        floor = max(1, self.policy.min_workers)
        return self.serviceable() < floor

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
        lifetime counts, and (for BACKOFF slots) seconds until the
        respawn is due.  The engine decorates each entry with the id of
        the worker currently occupying the slot before handing the list
        to :class:`~repro.obs.status.RunStatus`.
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
            out.append(entry)
        return out

    def evidence_for(self, key: tuple) -> list[dict]:
        return list(self._evidence.get(key, []))

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
    ) -> FailureDecision:
        """Account one worker death; decide respawn and poisoning.

        *kind* is ``"crash"`` or ``"timeout"``; *suspect_key* the key of
        the task that was executing (batch head), or None when the
        worker died idle.
        """
        now = self._clock()
        decision = FailureDecision(slot=slot)
        slot.failures += 1
        slot.total_failures += 1
        if (not slot.respawnable
                or slot.failures >= self.policy.max_slot_failures):
            slot.state = SlotState.DEAD
            decision.slot_died = True
        else:
            delay = min(
                self.policy.backoff_base * (2 ** (slot.failures - 1)),
                self.policy.backoff_max,
            )
            jitter = self.policy.backoff_jitter * delay
            delay = max(0.0, delay + self._rng.uniform(-jitter, jitter))
            slot.state = SlotState.BACKOFF
            slot.respawn_due = now + delay
            decision.backoff = delay

        if suspect_key is not None:
            evidence = self._evidence.setdefault(suspect_key, [])
            evidence.append({
                "kind": kind,
                "worker": worker_id,
                "slot": slot.index,
                "time": now,
                "detail": detail,
            })
            killers = self._killers.setdefault(suspect_key, set())
            killers.add(worker_id)
            decision.evidence = list(evidence)
            if (
                len(killers) >= self.policy.poison_threshold
                and suspect_key not in self._poisoned_keys
            ):
                self._poisoned_keys.add(suspect_key)
                decision.poison = True
        return decision
