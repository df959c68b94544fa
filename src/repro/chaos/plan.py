"""Deterministic chaos injection for the process-parallel engine.

A :class:`FaultPlan` is a *pure function of its seed*: every fault
decision is derived by hashing ``(seed, task prefix, attempt)``, so the
same plan injects the same faults at the same points on every run —
which is what lets a CI sweep assert solution-set invariance across
dozens of seeds and still reproduce any failure locally from its seed
alone.

The plan is the engine's one fault-injection seam
(``ProcessParallelEngine(chaos=plan)``); its methods serve three points:

* ``worker_hook`` — in the worker, before each task: kills the worker
  (``os._exit``) or stalls it past the task timeout;
* ``pipe_hook`` — in the worker, before each task result is sent:
  writes garbage bytes into the coordinator's result pipe first,
  exercising the protocol-corruption path;
* ``journal_hook`` — the journal writer's fault seam: kills the
  coordinator at a chosen epoch, tears the write at that epoch (partial
  line then kill), or flips a bit in the record (silent corruption the
  recovery scan must skip and count).

Rate faults are rolled only for ``task.attempt <= max_faulted_attempt``
(default: first attempt only), so every faulted task eventually
succeeds on retry and a chaos run remains *solution-complete* — the
invariant the differential sweep checks.  ``targets`` name single
subtrees instead: each ``(prefix, kind, attempts)`` entry injects
*kind* into the task with exactly that prefix for every attempt below
*attempts* (``None``: every attempt), which is how tests fault one
known subtree and how a poisoned subtree is driven into quarantine.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.errors import CoordinatorKilled
from repro.core.journal import TornWrite
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER

#: Bytes written to the result pipe by a garbage fault.  Deliberately
#: not a valid pickle: the coordinator's recv must fail, not misparse.
GARBAGE = b"\xde\xad\xbe\xef" * 16

#: Worker fault kinds a plan can choose per task.
WORKER_FAULTS = ("exit", "stall", "garbage")

#: The plan's probability fields, each checked to lie in [0, 1].
_RATES = (
    "crash_rate", "stall_rate", "garbage_rate", "net_drop_rate",
    "net_delay_rate", "net_dup_rate", "net_reorder_rate",
    "partition_rate", "half_open_rate",
)


def _roll(*key) -> float:
    """Deterministic uniform [0, 1) from a hashable key."""
    digest = zlib.crc32(repr(key).encode("utf-8")) & 0xFFFFFFFF
    return digest / 2**32


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable schedule of injected faults.

    Rates are probabilities in [0, 1].  Worker rates are per *task
    attempt* and mutually exclusive (one roll decides the kind), so
    ``crash_rate + stall_rate + garbage_rate`` must stay <= 1.
    """

    seed: int = 0
    crash_rate: float = 0.0
    stall_rate: float = 0.0
    garbage_rate: float = 0.0
    #: How long a stall fault sleeps; must exceed the engine's
    #: task_timeout for the stall to be detected and recovered.
    stall_seconds: float = 30.0
    #: Roll the worker fault rates only for attempts <= this
    #: (termination: a retried task runs fault-free).
    max_faulted_attempt: int = 0
    #: ``(prefix, kind, attempts)`` entries: inject worker fault *kind*
    #: into the task whose prefix is exactly *prefix*, for attempts
    #: ``< attempts`` (``None``: every attempt, until it is given up).
    #: Checked before the rate roll; ``max_faulted_attempt`` does not
    #: apply.
    targets: tuple = ()
    #: Kill the coordinator when the journal reaches this epoch.
    coordinator_kill_epoch: Optional[int] = None
    #: Tear the journal write at this epoch (partial record, then kill).
    journal_tear_epoch: Optional[int] = None
    #: Flip one bit in the record at this epoch (run continues; the
    #: corruption must be caught by recovery's CRC scan).
    journal_bitflip_epoch: Optional[int] = None
    # -- network faults (TCP transport seam; per frame, per direction) --
    #: Probability a frame is silently dropped.
    net_drop_rate: float = 0.0
    #: Probability a frame is delayed by ``net_delay_s`` seconds.
    net_delay_rate: float = 0.0
    net_delay_s: float = 0.05
    #: Probability a frame is delivered twice.
    net_dup_rate: float = 0.0
    #: Probability a frame is held back and delivered after its
    #: successor (pairwise reorder).
    net_reorder_rate: float = 0.0
    #: Probability a *window* of ``partition_frames`` consecutive frames
    #: is dropped in both directions — a symmetric partition.  The
    #: coordinator declares the worker down on the heartbeat deadline,
    #: terminates it if local or disconnects it if external (it then
    #: exits), and re-dispatches its leases.
    partition_rate: float = 0.0
    partition_frames: int = 8
    #: Probability a window drops only worker→coordinator frames: the
    #: half-open case, where the worker still hears the coordinator but
    #: its own traffic (pings included) vanishes.
    half_open_rate: float = 0.0

    def __post_init__(self):
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = self.crash_rate + self.stall_rate + self.garbage_rate
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates must sum to <= 1, got {total}"
            )
        for name in ("stall_seconds", "net_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        targets = tuple(
            (tuple(prefix), kind, attempts)
            for prefix, kind, attempts in self.targets
        )
        for prefix, kind, _attempts in targets:
            if kind not in WORKER_FAULTS:
                raise ValueError(
                    f"target {prefix}: fault kind must be one of "
                    f"{WORKER_FAULTS}, got {kind!r}"
                )
        object.__setattr__(self, "targets", targets)

    # -- decisions -----------------------------------------------------

    def worker_fault(self, task) -> Optional[str]:
        """The worker fault to inject for *task*, or None.

        Pure and deterministic: same plan + same (prefix, attempt) →
        same answer, in any process.
        """
        prefix = tuple(task.prefix)
        for target, kind, attempts in self.targets:
            if target == prefix and (attempts is None
                                     or task.attempt < attempts):
                return kind
        if task.attempt > self.max_faulted_attempt:
            return None
        r = _roll(self.seed, prefix, task.attempt)
        if r < self.crash_rate:
            return "exit"
        if r < self.crash_rate + self.stall_rate:
            return "stall"
        if r < self.crash_rate + self.stall_rate + self.garbage_rate:
            return "garbage"
        return None

    def sterile(self) -> "FaultPlan":
        """This plan with every coordinator/journal fault removed.

        Used when resuming a killed run: the kill epoch already fired,
        and epochs continue across resume, so carrying it over would
        kill the resumed coordinator at the same epoch forever.  Worker
        faults are kept — resume must survive them too.
        """
        return replace(
            self,
            coordinator_kill_epoch=None,
            journal_tear_epoch=None,
            journal_bitflip_epoch=None,
        )

    @property
    def has_net_faults(self) -> bool:
        return bool(
            self.net_drop_rate or self.net_delay_rate or self.net_dup_rate
            or self.net_reorder_rate or self.partition_rate
            or self.half_open_rate
        )

    def net_fault(self, direction: str, wid: int, seq: int) -> list:
        """Transport actions for frame *seq* of *wid* in *direction*.

        Returns ``[(action, delay_s), ...]``; actions are ``pass``
        (deliver), ``drop``, ``delay``, ``dup`` (an extra delivery,
        emitted alongside a pass) and ``hold`` (park until the next
        passing frame — pairwise reorder).  Deterministic in
        ``(seed, direction, wid, seq)``, so a sweep failure reproduces
        from its seed alone.  Window faults (partition, half-open) are
        keyed on ``seq // partition_frames`` so they blind a worker for
        several consecutive frames — long enough to trip the heartbeat
        deadline rather than look like a single lost message.
        """
        window = seq // max(1, self.partition_frames)
        if self.partition_rate and _roll(
            self.seed, "partition", wid, window
        ) < self.partition_rate:
            return [("drop", 0.0)]
        if self.half_open_rate and direction == "w2c" and _roll(
            self.seed, "halfopen", wid, window
        ) < self.half_open_rate:
            return [("drop", 0.0)]
        r = _roll(self.seed, "net", direction, wid, seq)
        edge = self.net_drop_rate
        if r < edge:
            return [("drop", 0.0)]
        edge += self.net_delay_rate
        if r < edge:
            return [("delay", self.net_delay_s)]
        edge += self.net_dup_rate
        if r < edge:
            return [("pass", 0.0), ("dup", 0.0)]
        edge += self.net_reorder_rate
        if r < edge:
            return [("hold", 0.0)]
        return [("pass", 0.0)]

    def net_hook(self, direction: str, wid: int, seq: int) -> list:
        """TcpTransport's ``net_hook`` seam (see :meth:`net_fault`)."""
        return self.net_fault(direction, wid, seq)

    # -- hooks (the seams the engine wires these into) -----------------

    def worker_hook(self, task) -> None:
        """Runs in the worker before a task."""
        kind = self.worker_fault(task)
        if kind == "exit":
            if _TRACER.enabled:
                _TRACER.emit(_events.CHAOS_WORKER_FAULT, kind="exit",
                             task=list(task.prefix), attempt=task.attempt)
            os._exit(17)
        if kind == "stall":
            if _TRACER.enabled:
                _TRACER.emit(_events.CHAOS_WORKER_FAULT, kind="stall",
                             task=list(task.prefix), attempt=task.attempt)
            time.sleep(self.stall_seconds)

    def pipe_hook(self, conn, task) -> None:
        """Runs in the worker before a task's result is sent."""
        if self.worker_fault(task) == "garbage":
            if _TRACER.enabled:
                _TRACER.emit(_events.CHAOS_WORKER_FAULT, kind="garbage",
                             task=list(task.prefix), attempt=task.attempt)
            conn.send_bytes(GARBAGE)

    def journal_hook(self, epoch: int, line: str) -> Optional[str]:
        """JournalWriter.fault_hook: runs before a record is written."""
        if epoch == self.coordinator_kill_epoch:
            if _TRACER.enabled:
                _TRACER.emit(_events.CHAOS_COORDINATOR_KILL, epoch=epoch)
            raise CoordinatorKilled(epoch)
        if epoch == self.journal_tear_epoch:
            if _TRACER.enabled:
                _TRACER.emit(_events.CHAOS_JOURNAL_FAULT, kind="tear",
                             epoch=epoch)
            # Keep at least one byte and lose at least the newline, so
            # the tail is genuinely torn whatever the record length.
            cut = max(1, (len(line) * 2) // 3)
            raise TornWrite(line[:cut])
        if epoch == self.journal_bitflip_epoch:
            if _TRACER.enabled:
                _TRACER.emit(_events.CHAOS_JOURNAL_FAULT, kind="bitflip",
                             epoch=epoch)
            body = line.rstrip("\n")
            pos = int(_roll(self.seed, "bitflip", epoch) * len(body))
            pos = min(pos, len(body) - 1)
            flipped = chr(ord(body[pos]) ^ 0x01)
            return body[:pos] + flipped + body[pos + 1:] + "\n"
        return None
