"""Process-parallel exploration with replay-based rehydration.

§3 contrasts sequential DFS with "a parallel depth-first-search strategy
[that] might simply fork without waiting", and Figure 2 draws one
extension-evaluation box per CPU core.  :class:`ProcessParallelEngine`
realises that architecture with real OS processes:

* a **coordinator** owns a frontier of :class:`~repro.search.shard.PrefixTask`
  subtree roots — decision prefixes, not snapshots, because page tables
  must never cross a process boundary;
* N **workers**, each owning a full engine stack (libOS, frame pool,
  snapshot manager, vCPU), rehydrate an assigned task by deterministically
  replaying its guess prefix from the program start (the record/replay
  lever of user-space replay systems), then explore the whole subtree
  under it *locally* with lightweight snapshots — amortizing the replay
  cost over every extension inside the subtree;
* when a worker exceeds its depth or step budget it converts its local
  snapshot frontier back into prefix tasks and **spills** them to the
  coordinator, which shards them to idle workers.

Scheduling is **work-stealing**: idle workers announce their capacity
(``steal``) and pull batches off the coordinator's shared frontier;
spilled subtrees re-enter that steal pool.  The wire underneath is a
pluggable :mod:`~repro.core.transport`: duplex pipes for local pools
(bit-compatible with the original protocol) or framed TCP for elastic
pools that external workers may join mid-run.  Either way a lost
channel is a dead worker.  Because frames may still be lost,
duplicated or delayed on a live one, every dispatch carries a lease
with a monotonic fencing token (:mod:`~repro.core.lease`): late results
under a stale fence are counted (``parallel.fenced_stale``) and
discarded wholesale, so the solution multiset and the exact
work-conservation invariant hold under network faults.

Robustness: a per-task wall-clock timeout (the one clock rule for lost
work), worker-crash detection with bounded retry of the lost tasks,
steals that name the last fence their worker received, and graceful
shutdown.  Observability: per-worker registry snapshots are merged into
the coordinator's registry
(:meth:`~repro.obs.registry.MetricsRegistry.merge_state`), and the
coordinator emits ``parallel.*`` trace events.

Within one worker the semantics are exactly :class:`MachineEngine`'s
(both drive the same :class:`~repro.core.stepper.ExtensionStepper`);
across workers the solution *set* is identical while discovery order is
nondeterministic — the differential suite pins this down.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.chaos.plan import FaultPlan
from repro.core.errors import ReplayDivergenceError
from repro.core.lease import LeaseTable
from repro.core.transport import (
    EndpointDown,
    LocalTransport,
    PipeTransport,
    TcpTransport,
    TcpWorkerConnection,
)
from repro.core.recorder import NondetLog, recorder_for
from repro.core.journal import (
    JOURNAL_VERSION,
    FSYNC_POLICIES,
    JournalWriter,
    check_resume,
    program_digest,
    recover,
)
from repro.core.result import SearchResult, SearchStats, Solution
from repro.core.stepper import ExtensionStepper, Pending
from repro.core.supervisor import (
    DROP,
    POISON,
    SlotState,
    WorkerSlot,
    WorkerSupervisor,
)
from repro.cpu.assembler import Program, assemble
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.mem.frames import FramePool
from repro.obs import events as _events
from repro.obs.live import (
    FlightRecorder,
    HeartbeatEmitter,
    RingSink,
    StatusLogger,
    StatusServer,
)
from repro.obs.registry import MetricsRegistry, record_into
from repro.obs.status import HeartbeatRecord, RunStatus
from repro.obs.trace import TRACER as _TRACER, MemorySink
from repro.search import get_strategy
from repro.search.shard import PrefixTask, TaskFrontier, spill_extension
from repro.snapshot.snapshot import SnapshotManager, SnapshotStats
from repro.vmm.vcpu import VCpu


#: Root span ids for cluster runs: every run gets a fresh id, every task
#: of the run carries it, so multiple runs recorded into one trace file
#: stay separable.
_run_spans = itertools.count(1)


class WorkerError(RuntimeError):
    """A worker process reported an unrecoverable guest/engine error."""

    def __init__(self, worker_id: int, detail: str):
        self.worker_id = worker_id
        self.detail = detail
        super().__init__(f"worker {worker_id}: {detail}")


@dataclass(frozen=True)
class ClusterConfig:
    """The plain data shipped to every worker process (pickled into the
    welcome frame over TCP): no field holds a callable."""

    strategy: str = "dfs"
    max_steps_per_extension: int = 5_000_000
    #: Spill choice points deeper than this many guesses below the task
    #: root (None = no depth limit; rely on the step budget).
    subtree_depth: Optional[int] = None
    #: Guest instructions of *new* exploration per task before the local
    #: frontier is spilled back (replay of the prefix is not charged).
    task_step_budget: Optional[int] = 25_000
    #: The run's fault plan: the worker runs its worker hook before each
    #: task (crash, stall) and its pipe hook just before sending the
    #: result (garbage bytes into the result pipe).  None injects
    #: nothing.
    chaos: Optional[FaultPlan] = None
    #: Workers buffer their trace events per task and ship the segment
    #: back with the result, so the coordinator can merge one causally
    #: ordered trace.  The coordinator sets it for each run: on exactly
    #: when its tracer has a sink attached at run start.
    collect_trace: bool = False
    #: ``(pc, lint_id)`` sites the static analyzer flagged as sources of
    #: nondeterminism; ``None`` when the engine ran with ``verify="off"``
    #: (no analysis), ``()`` when the program was certified.  Workers
    #: cite the matching verdict when a replayed prefix diverges at
    #: runtime.
    nondet_sites: Optional[tuple[tuple[int, str], ...]] = None
    #: Record/replay mode (``"off"``, ``"record"``, ``"strict"``).  When
    #: active, every worker owns a :class:`~repro.core.recorder.Recorder`
    #: over a worker-lifetime log: the coordinator ships the recorded
    #: events relevant to each task batch, workers replay them during
    #: rehydration and subtree exploration, and freshly recorded events
    #: ride back with the task result.
    replay_mode: str = "off"
    #: Scripted stdin bytes for guests that read fd 0 (each worker gets
    #: its own :class:`~repro.libos.console.InputSource` over them).
    input_script: Optional[bytes] = None
    #: Backing files for guests that ``open`` host paths, shipped as a
    #: picklable snapshot; each worker rebuilds its own
    #: :class:`~repro.libos.files.HostFS` over them.  The store is
    #: immutable, so every worker sees the same initial durable state
    #: and crash tasks shard like any other prefix.
    hostfs_files: Optional[tuple[tuple[str, bytes], ...]] = None
    #: Persistence granularity of the workers' file layer (must match
    #: the coordinator's, or crash-dimension numbering would diverge).
    hostfs_block_size: int = 4096
    #: Seconds between worker heartbeat records shipped over the result
    #: pipe alongside task results (None disables heartbeats).  The
    #: engine derives it: ``min(0.25, status_interval)`` whenever any
    #: live-telemetry surface is on.
    heartbeat_interval: Optional[float] = None
    #: Capacity of the per-worker flight-recorder ring of recent trace
    #: events, shipped inside heartbeats (0 disables the ring).
    flight_events: int = 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _SubtreeWorker:
    """One worker's engine stack: rehydrate a task, explore its subtree.

    Created once per worker process; :meth:`explore` is called per task.
    All snapshot state is torn down at the end of every task, so frames
    never accumulate across tasks and the registry gauges return to
    zero between result messages (which is what makes delta-shipping the
    registry sound).
    """

    def __init__(self, program: Program, config: ClusterConfig,
                 worker_id: int = -1):
        self.program = program
        self.config = config
        #: The id trace events and results name (-1: the coordinator's
        #: in-process endpoint of degraded mode).
        self.worker_id = worker_id
        input_source = None
        if config.input_script is not None:
            from repro.libos.console import InputSource

            input_source = InputSource(config.input_script)
        hostfs = None
        if config.hostfs_files is not None:
            hostfs = HostFS(dict(config.hostfs_files),
                            block_size=config.hostfs_block_size)
        self.libos = LibOS(hostfs=hostfs, input=input_source)
        self.recorder = recorder_for(config.replay_mode)
        self.libos.dispatcher.nondet = self.recorder
        self.pool = FramePool()
        self.registry = MetricsRegistry("cluster-worker")
        self.manager = SnapshotManager(self.pool)
        self.vcpu = VCpu()
        self._steps_counter = self.registry.counter("parallel.guest_steps")
        self._replay_counter = self.registry.counter("parallel.replay_steps")
        self._task_timer = self.registry.timer("parallel.task_time")
        # FramePool keeps its stats on the pool object, not in a registry;
        # ship per-task deltas so the coordinator sees copy totals.
        self._frames_copied = self.registry.counter("mem.frames_copied")
        self._spills_counter = self.registry.counter("parallel.worker_spills")
        self._last_copied = 0
        #: Heartbeat hook called at every path boundary (set by
        #: ``_worker_main`` when live telemetry is on; it is rate-limited
        #: internally, so calling it often is cheap).  The live step
        #: counters it ships grow when a path ends, so a beat shows
        #: progress once a path has ended since the previous beat.
        self.heartbeat: Optional[Callable[[], None]] = None
        # Guest strategy selection is coordinator policy in the cluster
        # engine: the stepper acknowledges and ignores it.
        self.stepper = ExtensionStepper(
            self.libos, self.vcpu, self.pool, get_strategy(config.strategy),
            config.max_steps_per_extension, manager=self.manager,
            allow_guest_strategy=False, spill=self._spill,
            nondet_sites=config.nondet_sites,
        )
        # The running task, read by the spill hook.
        self._task = PrefixTask()
        self._solutions_budget: Optional[int] = None
        self._spilled: list[PrefixTask] = []
        #: Fresh (non-replay) guest instructions of the task's finished
        #: paths: what ``task_step_budget`` limits.
        self._explored = 0

    def sync_registry(self) -> None:
        """Copy the pool's copy count and the task's snapshot and search
        records into the registry.

        Called at every task end and before every heartbeat, so mid-task
        uncommitted registry states carry the work done so far.
        """
        copied = self.pool.stats.copied
        if copied != self._last_copied:
            self._frames_copied.inc(copied - self._last_copied)
            self._last_copied = copied
        record_into(self.registry, "snapshot", self.manager.stats)
        record_into(self.registry, "search", self.stepper.stats)

    def ship_state(self) -> dict:
        """The finished task's registry state; zeroes the registry and
        starts fresh records, so each state is one task's delta."""
        state = self.registry.state_dict()
        self.registry.reset()
        self.manager.stats = SnapshotStats()
        self.stepper.stats = SearchStats()
        return state

    # -- public entry point --------------------------------------------

    def explore(self, task: PrefixTask, solutions_budget: Optional[int]):
        """Run one task to completion; returns (solutions, spilled).

        ``solutions`` is a list of ``(path, status, text)`` triples;
        ``spilled`` the prefix tasks for subtrees this worker did not
        enter (budget exceedances and solution-budget early stops).
        """
        with self._task_timer.time():
            solutions, spilled = self._explore(task, solutions_budget)
        if _TRACER.enabled:
            _TRACER.emit(
                _events.TASK_END, worker=self.worker_id,
                task=list(task.prefix), span=task.span,
                solutions=len(solutions), spilled=len(spilled),
                explore_steps=self._steps_counter.value,
                replay_steps=self._replay_counter.value,
                task_s=self._task_timer.total_s,
            )
        return solutions, spilled

    def _explore(self, task: PrefixTask, solutions_budget: Optional[int]):
        stepper = self.stepper
        stepper.strategy = get_strategy(self.config.strategy)
        stepper.solutions = solutions = []
        self._task = task
        self._solutions_budget = solutions_budget
        self._spilled = spilled = []
        self._explored = 0

        pending = stepper.boot(self.program, task.prefix, task.fanouts)
        while True:
            # One call runs the path to its boundary; its steps count
            # when it ends.
            stepper.step(pending)
            replayed = pending.replay_steps
            fresh = pending.steps_used - replayed
            self._replay_counter.inc(replayed)
            self._steps_counter.inc(fresh)
            self._explored += fresh
            if self.heartbeat is not None:
                self.heartbeat()
            if self._over_budget(0):
                break
            ext = stepper.strategy.next()
            if ext is None:
                break
            pending = stepper.resume(ext)

        # Convert whatever local frontier remains into replayable tasks
        # and unwind its pins so the snapshot tree (and its frames) die.
        while True:
            ext = stepper.strategy.next()
            if ext is None:
                break
            snap = ext.candidate
            spilled.append(
                PrefixTask(
                    prefix=snap.path + (ext.number,),
                    fanouts=snap.fanouts,
                    hint=ext.hint,
                    span=task.span,
                )
            )
            stepper.tree.unpin(snap)
        # Worker-local frontier peaks are per-task numbers; summing them
        # through the gauge merge would be meaningless, so the engine's
        # peak_frontier reports the coordinator task frontier instead.
        self.sync_registry()
        if spilled:
            self._spills_counter.inc(len(spilled))
        return [(s.path, *s.value) for s in solutions], spilled

    def _over_budget(self, fresh: int) -> bool:
        """Whether the task is out of budget once *fresh* more explored
        steps are counted."""
        budget = self.config.task_step_budget
        solutions_budget = self._solutions_budget
        return (
            budget is not None and self._explored + fresh >= budget
        ) or (
            solutions_budget is not None
            and len(self.stepper.solutions) >= solutions_budget
        )

    def _spill(self, pending: Pending, n: int,
               hints: Optional[tuple[float, ...]]) -> bool:
        """Hand a choice point outside this task's budget back to the
        coordinator as replayable subtree roots."""
        depth_limit = self.config.subtree_depth
        if not (
            (depth_limit is not None
             and len(pending.path) - self._task.depth >= depth_limit)
            or self._over_budget(pending.steps_used - pending.replay_steps)
        ):
            return False
        self._spilled.extend(
            spill_extension(pending.path, pending.fanouts, n, hints,
                            span=self._task.span)
        )
        return True


#: Seconds between an idle worker's re-announcements of its steal.  Over
#: a pipe the first announcement always arrives; over a chaos-injected
#: network a ``steal``, the ``work`` answering it or a result can be
#: dropped, and the periodic re-announcement is what un-wedges the run:
#: a steal names the highest fence its worker has received, which tells
#: the coordinator whether to re-send a batch or reclaim lost results.
_STEAL_REANNOUNCE_S = 1.0

#: Trace events each worker's flight-recorder ring keeps.
_FLIGHT_EVENTS = 256


def _serve_batch(worker: _SubtreeWorker, conn, work: tuple,
                 emitter: Optional[HeartbeatEmitter] = None,
                 collector: Optional[MemorySink] = None) -> None:
    """Explore a ``work`` message's batch in dispatch order, sending one
    ``task`` message per task through *conn*: the batch body of both
    :func:`_worker_main` and degraded mode's in-process endpoint.
    Exceptions propagate to the caller."""
    _, batch, solutions_budget, shipped_events = work
    chaos = worker.config.chaos
    if worker.recorder is not None and shipped_events:
        worker.recorder.log.merge(shipped_events)
    for task in batch:
        if _TRACER.enabled:
            _TRACER.emit(
                _events.TASK_BEGIN, worker=worker.worker_id,
                task=list(task.prefix), depth=task.depth,
                span=task.span, attempt=task.attempt,
            )
        if emitter is not None:
            # Force a beat before an injected fault can kill us: the
            # shipped ring (with task.begin) is what the flight
            # recorder dumps for this death.
            worker.heartbeat = (
                lambda t=task: emitter.beat(task=t.prefix, span=t.span)
            )
            emitter.beat(task=task.prefix, span=task.span, force=True)
        if chaos is not None:
            chaos.worker_hook(task)
        solutions, spilled = worker.explore(task, solutions_budget)
        if solutions_budget is not None:
            solutions_budget = max(0, solutions_budget - len(solutions))
        state = worker.ship_state()
        if emitter is not None:
            worker.heartbeat = None
        segment = collector.drain() if collector is not None else None
        fresh_events = (
            worker.recorder.drain_fresh()
            if worker.recorder is not None else []
        )
        if chaos is not None:
            chaos.pipe_hook(conn, task)
        conn.send(
            ("task", worker.worker_id, task.key(), task.fence, solutions,
             spilled, state, segment, fresh_events)
        )


def _worker_main(worker_id: int, conn, program: Program,
                 config: ClusterConfig) -> None:
    """Worker process body: steal and serve batches until the pill."""
    # Under the ``fork`` start method this process inherited the
    # coordinator's tracer sinks (including any open trace file); writing
    # through them from here would interleave with the coordinator, so
    # forget them and collect into a private buffer instead.
    _TRACER.reset_sinks()
    _TRACER.set_context(worker=worker_id)
    collector = _TRACER.attach(MemorySink()) if config.collect_trace else None
    worker = _SubtreeWorker(program, config, worker_id=worker_id)
    emitter: Optional[HeartbeatEmitter] = None
    if config.heartbeat_interval is not None:
        # The flight ring is a tracer sink of its own: attaching it
        # enables event emission in this worker even when the
        # coordinator is not collecting a full trace — the ring bounds
        # the cost to the N most recent events.
        ring = (
            _TRACER.attach(RingSink(config.flight_events))
            if config.flight_events > 0 else None
        )
        emitter = HeartbeatEmitter(
            conn, worker_id, worker.registry, config.heartbeat_interval,
            ring=ring, sync=worker.sync_registry,
        )
    # The highest fence this worker has received.  Each batch it is
    # granted carries higher fences than the last, so a ``work`` frame
    # at or below it is a re-send of a batch it already ran.
    fence = 0
    try:
        conn.send(("steal", worker_id, fence))
        last_steal = time.monotonic()
        while True:
            # Wait for work; heartbeat through idle waits (so the
            # coordinator can tell "idle and healthy" from "gone") and
            # periodically re-announce the steal in case it was lost.
            while True:
                timeout = _STEAL_REANNOUNCE_S
                if emitter is not None:
                    timeout = min(timeout, emitter.poll_timeout())
                if conn.poll(timeout):
                    break
                if emitter is not None:
                    emitter.beat(phase="idle", force=True)
                now = time.monotonic()
                if now - last_steal >= _STEAL_REANNOUNCE_S:
                    conn.send(("steal", worker_id, fence))
                    last_steal = now
            msg = conn.recv()
            if msg is None:
                break
            if not (isinstance(msg, tuple) and len(msg) == 4
                    and msg[0] == "work"):
                continue  # duplicated/unknown control frame: ignore
            top = max(task.fence for task in msg[1])
            if top <= fence:
                continue  # a re-sent batch this worker already ran
            fence = top
            try:
                _serve_batch(worker, conn, msg, emitter, collector)
            except (EOFError, OSError):
                raise  # the link itself failed: nothing can be reported
            except Exception as exc:  # engine/guest error: report and die
                conn.send(("error", worker_id,
                           f"{type(exc).__name__}: {exc}"))
                return
            conn.send(("steal", worker_id, fence))
            last_steal = time.monotonic()
    except (EOFError, OSError, KeyboardInterrupt, ConnectionError):
        pass  # coordinator went away or shut us down hard
    finally:
        conn.close()


def _tcp_worker_entry(address, wid: Optional[int] = None) -> None:
    """Process body of a TCP worker: dial the coordinator and serve.

    Used both for coordinator-spawned local workers (*wid* preassigned)
    and for external joiners (``run_guest --connect``; *wid* None, the
    coordinator assigns one in the welcome).  The program and config
    arrive over the wire in the handshake, so a joining host needs
    nothing but the address.
    """
    try:
        conn = TcpWorkerConnection(address, wid=wid)
    except (ConnectionError, OSError):
        return  # coordinator already gone; nothing to serve
    _worker_main(conn.wid, conn, conn.program, conn.config)


def tcp_worker(host: str, port: int) -> None:
    """Join a running TCP coordinator as a worker (blocks until done).

    The public entry behind ``run_guest --connect HOST:PORT``.
    """
    _tcp_worker_entry((host, port), wid=None)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class ProcessParallelEngine:
    """Shard the extension frontier across real worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (Figure 2 draws four).
    strategy:
        Frontier discipline, ``"dfs"`` or ``"bfs"``; applied both to the
        coordinator's task frontier and to each worker's local subtree
        exploration.  The solution *set* is identical either way.
    batch_size:
        Tasks per dispatch; batching amortizes IPC, at the price of
        coarser work distribution.
    subtree_depth / task_step_budget:
        How much of a subtree a worker explores before spilling the
        remainder back (see :class:`ClusterConfig`).
    task_timeout:
        Per-task wall-clock limit in seconds (> 0): the coordinator's
        one clock rule for lost work.  A worker that makes no progress
        (as :mod:`repro.core.lease` defines it) for this long is killed
        and its unreported tasks are retried elsewhere (None disables
        the timeout).  A worker whose results were lost in flight says
        so itself: its next steal names the last fence it received.
    max_task_retries:
        The one failure budget: how many times a task lost to a crash,
        a timeout or a steal reclaim is re-dispatched.  At the budget
        the task is given up — quarantined with its evidence when its
        kills span more than this many distinct workers, dropped
        otherwise; either marks the result not exhausted (see
        :mod:`repro.core.supervisor`).
    verify:
        Static-analysis gate run on each guest before sharding: ``"off"``
        (default), ``"warn"`` or ``"strict"``.  Strict mode refuses
        uncertified programs — worker rehydration replays decision
        prefixes, so an uncertified guest can diverge mid-replay.  In
        every analyzed mode the analyzer's nondeterminism sites are
        shipped to the workers, so a runtime
        :class:`~repro.core.errors.ReplayDivergenceError` cites the
        static verdict for the diverging site.
    journal:
        Path of a write-ahead run journal (see
        :mod:`repro.core.journal`).  Every dispatch, completion, spill,
        solution and quarantine is logged durably, making the run
        resumable after the *coordinator* dies — the frontier and found
        solutions are rebuilt from decision prefixes, and only the
        missing subtrees are re-explored.  ``None`` disables journaling.
    resume:
        Resume an interrupted run from *journal* instead of starting
        fresh.  The journaled program digest and analyzer certificate
        state must match the program being run
        (:class:`~repro.core.errors.ResumeMismatchError` otherwise).
    fsync:
        Journal durability policy: ``"always"``, ``"batch"`` (default)
        or ``"off"``.
    min_workers:
        The graceful-degradation floor (>= 0; 0 and 1 both mean one):
        when fewer worker slots stay serviceable, the coordinator
        closes the pool and finishes the frontier on an in-process
        endpoint instead of aborting the run.  Respawn backoff and the
        slot failure limit are constants of
        :mod:`repro.core.supervisor`.
    chaos:
        A :class:`~repro.chaos.FaultPlan`, the one way to inject faults:
        it rides :class:`ClusterConfig` to the workers (crash or stall
        before a task, garbage before a result) and feeds the journal
        writer's and the TCP transport's hooks.  Degraded mode's
        in-process endpoint never runs it.
    replay_mode:
        Record/replay of nondeterministic syscall outcomes: ``"off"``
        (default), ``"record"`` (record fresh outcomes, replay known
        ones) or ``"strict"`` (replay only).  In record mode an
        uncertified guest whose only nondeterminism is recordable
        (console input, clock, entropy — see
        :data:`repro.analysis.verifier.RECORDABLE_LINTS`) passes the
        strict verification gate, because the recorder makes its
        re-executions exact.  Recorded events are journaled (when a
        journal is configured) and the coordinator's merged log is
        exposed as :attr:`replay_log` after the run.
    replay_log:
        A :class:`~repro.core.recorder.NondetLog` of previously
        recorded events to seed the run with (e.g. recorded by a
        sequential engine, or loaded from a ``--replay-log`` file).
    input_script:
        Scripted stdin bytes for guests that read fd 0.
    hostfs:
        Backing files for guests that ``open`` host paths.  The store's
        snapshot is shipped to every worker, which rebuilds an
        identical :class:`~repro.libos.files.HostFS` — the store is
        immutable, so rehydrated prefixes (including ``sys_crash_*``
        enumeration prefixes) replay over the same initial durable
        state on every worker.
    status_port:
        Serve live run status over HTTP on ``127.0.0.1:<port>`` for the
        duration of :meth:`run`: ``GET /status`` returns the JSON
        :meth:`~repro.obs.status.RunStatus.snapshot`, ``GET /metrics``
        Prometheus text exposition.  ``0`` picks a free port (read
        ``engine.status_server.url``); ``None`` disables the server.
    status_log:
        Append periodic ``status.sample`` JSONL records (one full
        status snapshot each) to this path, consumable by
        ``repro.tools.top --status-log`` and ``trace_report``.  The
        coordinator writes them from its own loop: the first when the
        run starts, the last after the run is sealed.
    status_interval:
        Seconds of the coordinator's clock between status-log samples.
        Workers beat, and the coordinator refreshes its status, every
        ``min(0.25, status_interval)`` seconds whenever a telemetry
        surface (*status_port*, *status_log*, *flight_dir*) is on; with
        none on, workers send no heartbeats.  Heartbeats also defer the
        per-task timeout while a worker's steps demonstrably grow — a
        stalled worker cannot beat, so stalls still time out.
    flight_dir:
        Directory for flight-recorder post-mortems: each worker's 256
        most recent trace events (shipped inside heartbeats, so they
        survive ``kill -9``) are dumped to a JSONL file when the
        supervisor observes that worker crash or stall.
    transport:
        The wire between coordinator and workers: ``"pipe"`` (default;
        local worker processes over duplex multiprocessing pipes) or
        ``"tcp"`` (framed sockets polled on the coordinator's thread;
        workers may also join elastically from other hosts/processes
        with ``run_guest --connect``).  Scheduling, supervision, journaling
        and chaos semantics are identical across transports — the
        differential battery pins that down.
    listen:
        TCP only: ``(host, port)`` to accept workers on.  Defaults to
        ``("127.0.0.1", 0)`` — loopback, ephemeral port; read
        :attr:`transport_address` once :meth:`run` is underway.
    heartbeat_timeout:
        TCP only: seconds of per-connection silence (workers ping ~1/s)
        after which the transport declares a connection half-open and
        reports the worker down.
    """

    def __init__(
        self,
        workers: int = 4,
        strategy: str = "dfs",
        batch_size: int = 4,
        subtree_depth: Optional[int] = None,
        task_step_budget: Optional[int] = 25_000,
        max_steps_per_extension: int = 5_000_000,
        max_solutions: Optional[int] = None,
        task_timeout: Optional[float] = 30.0,
        max_task_retries: int = 2,
        verify: str = "off",
        journal: Optional[str] = None,
        resume: bool = False,
        fsync: str = "batch",
        min_workers: int = 1,
        chaos: Optional[FaultPlan] = None,
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        input_script: Optional[bytes] = None,
        hostfs: Optional[HostFS] = None,
        status_port: Optional[int] = None,
        status_log: Optional[str] = None,
        status_interval: float = 0.5,
        flight_dir: Optional[str] = None,
        transport: str = "pipe",
        listen: Optional[tuple] = None,
        heartbeat_timeout: float = 5.0,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if transport not in ("pipe", "tcp"):
            raise ValueError(
                f"transport must be 'pipe' or 'tcp', got {transport!r}"
            )
        if listen is not None and transport != "tcp":
            raise ValueError("listen requires transport='tcp'")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 or None")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if verify not in ("off", "warn", "strict"):
            raise ValueError(
                f"verify must be 'off', 'warn' or 'strict', got {verify!r}"
            )
        if replay_mode not in ("off", "record", "strict"):
            raise ValueError(
                f"replay_mode must be 'off', 'record' or 'strict', "
                f"got {replay_mode!r}"
            )
        if replay_log is not None and replay_mode == "off":
            raise ValueError("replay_log requires replay_mode != 'off'")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal path")
        if status_interval <= 0:
            raise ValueError("status_interval must be > 0")
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.verify = verify
        #: Analysis report of the last verified guest (None under "off").
        self.last_report = None
        self.transport_name = transport
        self.listen = tuple(listen) if listen is not None else None
        #: ``(host, port)`` the TCP acceptor is bound to, set as soon as
        #: :meth:`run` starts listening (None for pipe transport) — what
        #: an external worker passes to ``run_guest --connect``.
        self.transport_address: Optional[tuple] = None
        self.heartbeat_timeout = heartbeat_timeout
        self.num_workers = workers
        self.strategy_name = strategy  # TaskFrontier validates the name
        self.batch_size = batch_size
        self.max_solutions = max_solutions
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self.journal_path = journal
        self.resume = resume
        self.fsync = fsync
        self.chaos = chaos
        self.replay_mode = replay_mode
        #: After :meth:`run`: the merged nondet-event log of the whole
        #: run (seed events + everything workers recorded); None when
        #: replay is off.
        self.replay_log = (
            replay_log.copy() if replay_log is not None
            else (NondetLog() if replay_mode != "off" else None)
        )
        self.min_workers = min_workers
        self.status_port = status_port
        self.status_log = status_log
        self.status_interval = status_interval
        self.flight_dir = flight_dir
        #: True when any live-telemetry surface was requested; gates the
        #: coordinator's refresh work so telemetry-off runs pay nothing.
        self._telemetry = (
            status_port is not None or status_log is not None
            or flight_dir is not None
        )
        #: Live model of the current/last :meth:`run` (always set by
        #: run; finalized to the exact end-of-run registry state).
        self.status: Optional[RunStatus] = None
        #: The HTTP exporter of the current run (``status_port`` only).
        self.status_server: Optional[StatusServer] = None
        #: The flight recorder of the current run (``flight_dir`` only);
        #: ``flight_recorder.dumps`` lists post-mortems written.
        self.flight_recorder: Optional[FlightRecorder] = None
        self.config = ClusterConfig(
            strategy=strategy,
            max_steps_per_extension=max_steps_per_extension,
            subtree_depth=subtree_depth,
            task_step_budget=task_step_budget,
            chaos=chaos,
            replay_mode=replay_mode,
            input_script=input_script,
            hostfs_files=(
                tuple(sorted(hostfs.snapshot_files().items()))
                if hostfs is not None else None
            ),
            hostfs_block_size=(
                hostfs.block_size if hostfs is not None
                else ClusterConfig.hostfs_block_size
            ),
            heartbeat_interval=(
                min(0.25, status_interval) if self._telemetry else None
            ),
            flight_events=_FLIGHT_EVENTS if flight_dir is not None else 0,
        )
        # fork where available: fast worker startup.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self.registry = MetricsRegistry("cluster-engine")
        self._next_wid = 0

    # ------------------------------------------------------------------

    def run(self, guest: Union[str, Program]) -> SearchResult:
        program = assemble(guest) if isinstance(guest, str) else guest
        sites: Optional[tuple[tuple[int, str], ...]] = None
        if self.verify != "off":
            from repro.analysis.verifier import nondet_sites, verify_program

            self.last_report = verify_program(
                program, self.verify, replay_mode=self.replay_mode
            )
            sites = nondet_sites(self.last_report)
        coordinator = _Coordinator(self, program, sites)
        try:
            coordinator.run()
        finally:
            coordinator.close()
        return coordinator.result()


class _Coordinator:
    """One :meth:`ProcessParallelEngine.run`, as explicit state.

    Scheduling is written once against the transport interface: every
    batch is granted by :meth:`_dispatch`, every result accounted by
    :meth:`_settle`, and every task that will not report decided by
    :meth:`_lose`.  Degraded mode is not a second loop: it swaps the
    pool's transport for an in-process endpoint and carries on.
    """

    def __init__(self, engine: ProcessParallelEngine, program: Program,
                 sites: Optional[tuple[tuple[int, str], ...]],
                 clock: Callable[[], float] = time.monotonic):
        self.engine = engine
        self.program = program
        #: The run's one clock: every coordinator deadline reads it.
        self.clock = clock
        engine.registry.reset()
        self.reg = reg = engine.registry
        # Workers ship ``search.*`` with every result; start the run's
        # sums from zero so the status shows them from the first scrape.
        record_into(reg, "search", SearchStats())
        self.c_dispatches = reg.counter("parallel.dispatches")
        self.c_tasks = reg.counter("parallel.tasks_dispatched")
        self.c_done = reg.counter("parallel.tasks_completed")
        self.c_spilled = reg.counter("parallel.tasks_spilled")
        self.c_crashes = reg.counter("parallel.worker_crashes")
        self.c_timeouts = reg.counter("parallel.task_timeouts")
        self.c_retries = reg.counter("parallel.tasks_retried")
        self.c_dropped = reg.counter("parallel.tasks_dropped")
        self.c_trace_merged = reg.counter("parallel.trace_events_merged")
        self.c_trace_dropped = reg.counter("parallel.trace_dropped")
        self.c_respawns = reg.counter("parallel.respawns")
        self.c_poisoned = reg.counter("parallel.poisoned_tasks")
        self.c_degraded = reg.counter("parallel.degraded_runs")
        self.c_proto = reg.counter("parallel.protocol_errors")
        self.c_resume_filtered = reg.counter("parallel.resume_spills_filtered")
        self.c_heartbeats = reg.counter("telemetry.heartbeats")
        self.c_flight = reg.counter("telemetry.flight_dumps")
        self.c_steals = reg.counter("parallel.steals")
        self.c_lease_expired = reg.counter("parallel.leases_expired")
        self.c_fenced = reg.counter("parallel.fenced_stale")
        self.c_joins = reg.counter("parallel.worker_joins")
        self.g_workers = reg.gauge("parallel.workers")

        # Trace propagation: workers collect iff the coordinator traces
        # when the run starts.
        self.config = dataclasses.replace(
            engine.config, collect_trace=_TRACER.enabled, nondet_sites=sites
        )

        self.span = next(_run_spans)
        self.status = engine.status = RunStatus(
            workers=engine.num_workers, span=self.span,
            strategy=engine.strategy_name, clock=clock,
        )
        self.server: Optional[StatusServer] = None
        self.logger: Optional[StatusLogger] = None
        self.flight: Optional[FlightRecorder] = None
        self.last_refresh = self.last_sample = 0.0
        #: The run's search stats, recorded when :meth:`close` seals it.
        self.stats: Optional[SearchStats] = None
        self.frontier = TaskFrontier(order=engine.strategy_name)
        self.solutions: list[Solution] = []
        self.stop_reason: Optional[str] = None
        self.degraded = False
        self.poisoned: list[tuple[PrefixTask, list]] = []
        self.sup = WorkerSupervisor(
            engine.num_workers, max_task_retries=engine.max_task_retries,
            min_workers=engine.min_workers, clock=clock,
        )
        self.nlog = engine.replay_log  # the run's merged nondet-event log
        self.journal: Optional[JournalWriter] = None
        #: Task keys already completed in the journaled run: a resumed
        #: coordinator drops re-spills of these so a re-explored parent
        #: (its own completion record lost to corruption) can never
        #: double-count a child's already-durable solutions.
        self.resume_completed: set[tuple[int, ...]] = set()
        self.recovered = None
        if engine.resume:
            self.recovered = rec = recover(engine.journal_path)
            check_resume(rec, program_digest(program), sites,
                         replay_mode=engine.replay_mode)
            if self.nlog is not None and rec.nondet_events:
                self.nlog.merge_records(rec.nondet_events)
            for spath, status, text in rec.solutions:
                self.solutions.append(
                    Solution(value=(status, text), path=spath)
                )
            self.resume_completed = set(rec.completed_keys)
            for task, evidence in rec.poisoned:
                self.sup.quarantine(task.key())
                self.poisoned.append((task, evidence))
            self.frontier.extend(rec.pending)
        else:
            self.frontier.push(PrefixTask(span=self.span))
        #: Every task key settled this run (superset of the resumed
        #: completed set): the second line of defence against double
        #: counting, behind fence matching.
        self.completed_keys: set[tuple[int, ...]] = set(self.resume_completed)

        self.leases = LeaseTable(
            start_fence=(
                self.recovered.last_fence + 1 if self.recovered else 1
            ),
            clock=clock,
        )
        #: The pool's transport, and the one in use: the same object
        #: until degraded mode swaps in the in-process endpoint.
        self.pool = self.transport = None
        #: Supervisor slots by the id of the worker in them.
        self.by_wid: dict[int, WorkerSlot] = {}
        #: wids with unfulfilled steal announcements, FIFO.
        self.steal_queue: deque[int] = deque()

    # -- lifecycle -------------------------------------------------------

    def _start(self) -> None:
        """Open the run's telemetry, journal and worker pool."""
        e = self.engine
        if e.status_port is not None:
            self.server = StatusServer(self.status, port=e.status_port).start()
        e.status_server = self.server
        if e.flight_dir is not None:
            self.flight = FlightRecorder(
                e.flight_dir, capacity=self.config.flight_events,
                clock=self.clock,
            )
        e.flight_recorder = self.flight
        rec, sites = self.recovered, self.config.nondet_sites
        if e.journal_path is not None:
            self.journal = JournalWriter(
                e.journal_path, fsync=e.fsync,
                start_epoch=rec.last_epoch + 1 if rec else 0,
                truncate_to=rec.valid_bytes if rec else None,
                fault_hook=(e.chaos.journal_hook
                            if e.chaos is not None else None),
                registry=self.reg,
            )
        if rec is not None:
            self._journal(
                "resume", span=self.span, pending=len(rec.pending),
                solutions=len(self.solutions), skipped=rec.skipped,
                torn=rec.torn,
            )
        else:
            self._journal(
                "run_begin",
                version=JOURNAL_VERSION,
                program=program_digest(self.program),
                span=self.span,
                strategy=e.strategy_name,
                workers=e.num_workers,
                batch_size=e.batch_size,
                subtree_depth=e.config.subtree_depth,
                task_step_budget=e.config.task_step_budget,
                max_steps=e.config.max_steps_per_extension,
                max_solutions=e.max_solutions,
                replay_mode=e.replay_mode,
                transport=e.transport_name,
                certified=(None if sites is None else not sites),
                nondet_sites=(
                    None if sites is None
                    else [[pc, lint] for pc, lint in sites]
                ),
                root=PrefixTask(span=self.span).to_record(),
            )

        if e.transport_name == "tcp":
            host, port = e.listen if e.listen is not None else (
                "127.0.0.1", 0,
            )
            net_hook = (
                e.chaos.net_hook
                if e.chaos is not None and e.chaos.has_net_faults else None
            )
            transport = TcpTransport(
                e._ctx, host=host, port=port,
                worker_entry=_tcp_worker_entry, net_hook=net_hook,
                heartbeat_timeout=e.heartbeat_timeout,
                start_wid=e._next_wid, clock=self.clock,
            )
        else:
            transport = PipeTransport(
                e._ctx, _worker_main, start_wid=e._next_wid,
            )
        self.pool = self.transport = transport.start(self.program,
                                                     self.config)
        e.transport_address = transport.address
        for slot in self.sup.slots:
            self._seat(slot, transport.spawn())
        self.g_workers.set(e.num_workers)
        if e.status_log is not None:
            self.logger = StatusLogger(self.status, e.status_log)
        self._refresh(force=True)

    def run(self) -> None:
        """Schedule until the frontier is exhausted or a stop condition
        holds, then seal the journal.  Any exception path (worker error,
        chaos kill) skips the seal, leaving the journal resumable."""
        e = self.engine
        self._start()
        poll = 0.02 if e.task_timeout is None else min(
            0.02, e.task_timeout / 4
        )
        while True:
            if self._remaining() == 0:
                self.stop_reason = "max_solutions"
                break
            self._refresh()
            if not self.degraded:
                for slot in self.sup.respawn_ready():
                    self._seat(slot, self.transport.spawn())
                    self.sup.mark_running(slot)
                    self.c_respawns.inc()
                    if _TRACER.enabled:
                        _TRACER.emit(
                            _events.PARALLEL_RESPAWN, worker=slot.ep.wid,
                            slot=slot.index, failures=slot.failures,
                        )
                if self.sup.collapsed() and (self.frontier or self.leases):
                    self._degrade()
            self._dispatch()

            busy = bool(self.leases)
            if not busy and not self.frontier:
                break  # frontier exhausted, nothing in flight
            timeout = poll
            if not busy:
                # Everything runnable is mid-backoff (or tasks were just
                # requeued): wait to the nearest respawn deadline instead
                # of spinning.  The transport still gets polled — a TCP
                # pool can gain an external joiner while every local
                # slot is down.
                due = self.sup.next_respawn_due()
                if due is not None:
                    timeout = min(poll, max(0.0, due - self.clock()))
            for ev in self.transport.poll(max(0.0, timeout)):
                self._on_event(ev)
            self._check_workers()

        if self.stop_reason is None and self.poisoned:
            self.stop_reason = "tasks_poisoned"
        if self.stop_reason is None and self.c_dropped.value:
            self.stop_reason = "task_retries_exhausted"
        if e.max_solutions is not None:
            del self.solutions[e.max_solutions:]
        self._journal(
            "run_end", stop_reason=self.stop_reason,
            exhausted=self.stop_reason is None,
            solutions=len(self.solutions),
        )

    def close(self) -> None:
        """Release workers and journal, seal the run, and close its
        telemetry, on every exit path."""
        if self.transport is not None:
            self._close_transport()
            # Worker ids stay unique across an engine's runs even though
            # each run builds a fresh transport.
            self.engine._next_wid = self.pool._next_wid
        self.g_workers.set(0)
        if self.journal is not None:
            self.journal.close()
        self._finalize()
        if self.logger is not None:
            self.logger.close(self.clock())
        if self.server is not None:
            self.server.stop()

    def _close_transport(self) -> None:
        """Signal busy workers at once (their tasks are lost by
        construction); the transport's close poisons the idle ones and
        reaps every local process."""
        for slot in self.sup.slots:
            if slot.ep is not None and self.leases.busy(slot.ep.wid):
                slot.ep.kill()
        self.transport.close()

    def _degrade(self) -> None:
        """Close the collapsed pool and finish on an in-process endpoint
        that serves batches with the workers' own :func:`_serve_batch`
        (without the fault plan: an injected worker fault would kill the
        coordinator), in a slot the supervisor never respawns.
        """
        self._close_transport()
        # Requeue in-flight tasks untouched and fence off every live
        # lease: nothing the old pool still delivers can count.
        for lease in self.leases.drain():
            self._lose(lease.task, suspect=False)
        for slot in self.sup.slots:
            slot.ep = None
        self.by_wid.clear()
        self.steal_queue.clear()
        self.g_workers.set(0)
        self.degraded = True
        self.c_degraded.inc()
        if _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_DEGRADED, pending=len(self.frontier))
        self._journal("degraded", pending=len(self.frontier))
        local = _SubtreeWorker(self.program,
                               dataclasses.replace(self.config, chaos=None))
        # The in-process worker emits straight into this tracer; the
        # unattached sink drains an empty segment, which says that no
        # worker-side event was lost.
        self.transport = LocalTransport(
            functools.partial(_serve_batch, local, collector=MemorySink())
        ).start(self.program, self.config)
        self._seat(self.sup.add_slot(respawnable=False),
                   self.transport.spawn())

    # -- scheduling --------------------------------------------------------

    def _seat(self, slot: WorkerSlot, ep) -> None:
        """Put worker endpoint *ep* in *slot*."""
        slot.ep = ep
        self.by_wid[ep.wid] = slot

    def _dispatch(self) -> None:
        """Fulfil steal announcements off the frontier.

        Workers *pull*: an idle worker announces capacity and the
        coordinator grants it a leased batch — nothing is pushed
        unsolicited, so a slow worker never queues work it cannot start
        while a fast one sits idle.
        """
        while self.steal_queue and self.frontier:
            wid = self.steal_queue.popleft()
            slot = self.by_wid.get(wid)
            if slot is None or self.leases.busy(wid):
                continue  # died or was re-dispatched meanwhile
            if slot.state is not SlotState.RUNNING:
                continue
            if not slot.ep.alive():
                self._fail(slot, "crash", "worker died while idle")
                continue
            granted = [
                self.leases.grant(task, wid).task
                for task in self.frontier.take_batch(self.engine.batch_size)
            ]
            if not self._send_work(slot, granted):
                continue
            self.c_dispatches.inc()
            self.c_tasks.inc(len(granted))
            for task in granted:
                self._journal("dispatch", task=task.to_record(), worker=wid)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_DISPATCH, worker=wid,
                             tasks=len(granted))

    def _send_work(self, slot: WorkerSlot, batch: list) -> bool:
        """Send *batch* to *slot*'s worker; False when the channel is
        closed (the worker is then failed)."""
        try:
            slot.ep.send(("work", batch, self._remaining(),
                          self._batch_events(batch)))
        except EndpointDown:
            self._fail(slot, "crash", "dispatch channel closed")
            return False
        return True

    def _remaining(self) -> Optional[int]:
        """Solutions the run still wants (None: no limit)."""
        cap = self.engine.max_solutions
        return None if cap is None else max(cap - len(self.solutions), 0)

    def _batch_events(self, batch) -> list:
        """Recorded events every task in *batch* may replay through."""
        if self.nlog is None:
            return []
        picked: dict = {}
        for task in batch:
            for event in self.nlog.events_for_task(task.prefix):
                picked[event.key()] = event
        return list(picked.values())

    def _on_event(self, ev) -> None:
        """Account one transport event."""
        if ev.kind == "net_fault":
            if _TRACER.enabled:
                action, direction, seq = ev.payload
                _TRACER.emit(_events.CHAOS_NET_FAULT, action=action,
                             direction=direction, worker=ev.endpoint.wid,
                             seq=seq)
            return
        if ev.kind == "join":
            # An external worker completed the handshake: give it a
            # non-respawnable slot and let it steal.
            self._seat(self.sup.add_slot(respawnable=False), ev.endpoint)
            self.c_joins.inc()
            self.g_workers.set(
                sum(slot.ep is not None for slot in self.sup.slots)
            )
            self._journal("join", worker=ev.endpoint.wid, detail=ev.detail)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_JOIN, worker=ev.endpoint.wid,
                             detail=ev.detail)
            return
        wid = ev.endpoint.wid
        slot = self.by_wid.get(wid)
        if slot is None or slot.ep is not ev.endpoint:
            return  # failed/replaced earlier this sweep
        if ev.kind == "down":
            if ev.protocol_error:
                self.c_proto.inc()
            self._fail(slot, ev.fail_kind or "crash", ev.detail)
            return
        msg = ev.payload
        if (
            not isinstance(msg, tuple)
            or len(msg) < 3
            or msg[0] not in ("task", "error", "hb", "steal")
            or (msg[0] == "task" and len(msg) != 9)
            or (msg[0] == "hb"
                and not (len(msg) == 3
                         and isinstance(msg[2], HeartbeatRecord)))
            or (msg[0] == "steal"
                and not (len(msg) == 3 and isinstance(msg[2], int)))
        ):
            self.c_proto.inc()
            self._fail(slot, "crash",
                       f"malformed result message {msg!r}"[:200])
            return
        if msg[0] == "steal":
            owed = self.leases.owned_by(wid)
            if owed and max(lease.fence for lease in owed) > msg[2]:
                # The worker has not received the batch it owes: the
                # steal crossed its dispatch, or the work frame was
                # lost.  Send it again under the same fences (a worker
                # skips a batch it already has).  A re-send is not a
                # dispatch: no counter, no journal record, no progress,
                # so a batch that never arrives still ends at the stall
                # timeout.
                self._send_work(slot, [lease.task for lease in owed])
                return
            # The worker received every fence it owes and is idle: its
            # results were lost in flight (dropped or reordered frames).
            # Reclaim at once; the revoked fences turn any late delivery
            # into a discarded stale.
            for lease in self.leases.revoke_worker(wid):
                self.c_lease_expired.inc()
                self._journal("expire", task=lease.task.to_record(),
                              fence=lease.fence, worker=wid)
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_LEASE_EXPIRED,
                                 task=list(lease.task.prefix),
                                 fence=lease.fence, worker=wid)
                self._lose(lease.task)
            if wid not in self.steal_queue:
                self.steal_queue.append(wid)
                self.c_steals.inc()
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_STEAL, worker=wid,
                                 want=self.engine.batch_size)
        elif msg[0] == "hb":
            record: HeartbeatRecord = msg[2]
            self.c_heartbeats.inc()
            progressed = self.status.observe_heartbeat(record)
            if self.flight is not None and record.events:
                self.flight.extend(wid, record.events)
            if progressed:
                # The worker's steps grew: its task is alive, so the
                # stall timeout and its leases start over.  (A stalled
                # worker cannot beat, so real stalls still trip.)
                self.leases.progress(wid)
        elif msg[0] == "error":
            if str(msg[2]).startswith("ReplayDivergenceError:"):
                # Surface a worker's replay divergence as itself: callers
                # catch the typed error the same way whichever engine
                # detected it.
                raise ReplayDivergenceError(f"worker {msg[1]}: {msg[2]}")
            raise WorkerError(msg[1], msg[2])
        else:
            self._settle(slot, msg)

    def _settle(self, slot: WorkerSlot, msg: tuple) -> None:
        """Account one ``task`` result: fence check, registry merge,
        status, spills, nondet events, the ``complete`` record,
        solutions and the trace splice."""
        (_kind, _wid, key, fence, task_solutions, spilled,
         state, segment, fresh_events) = msg
        key = tuple(key)
        wid = slot.ep.wid
        completed = self.leases.settle(key, fence, wid)
        if completed is None:
            # A fenced-off result: the worker was declared down or its
            # steal reclaimed the lease, and the task was re-dispatched,
            # or this is a duplicated delivery.  Discard it *wholesale*
            # — no registry merge, no solutions, no spills, no journal
            # complete — so the accepted execution remains the only
            # accounting of this subtree.
            self.c_fenced.inc()
            self._journal("stale", task={"prefix": list(key)},
                          fence=fence, worker=wid)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_FENCED_STALE,
                             worker=wid, task=list(key), fence=fence)
            return
        self.completed_keys.add(key)
        self.sup.record_success(slot)
        self.c_done.inc()
        self.c_spilled.inc(len(spilled))
        self.reg.merge_state(state)
        self.status.on_task_complete(
            wid, state, completed.task.fanouts,
            [t.fanouts for t in spilled],
        )
        for child in spilled:
            if child.key() in self.completed_keys:
                if child.key() in self.resume_completed:
                    self.c_resume_filtered.inc()
            elif not self.sup.is_poisoned(child.key()):
                # (a quarantined subtree is never re-dispatched)
                self.frontier.push(child)
        if self.nlog is not None and fresh_events:
            # The ``nondet`` record must land *before* the task's
            # ``complete`` record: if the completion is later lost, the
            # re-explored subtree replays these events and reproduces
            # the durable solutions instead of re-rolling them.
            self.nlog.merge(fresh_events)
            self._journal(
                "nondet", events=[e.to_record() for e in fresh_events]
            )
        self._journal(
            "complete", task=completed.task.to_record(), worker=wid,
            solutions=[[list(path), status, text]
                       for path, status, text in task_solutions],
            spilled=[t.to_record() for t in spilled],
        )
        for spath, status, text in task_solutions:
            self.solutions.append(Solution(value=(status, text), path=spath))
        if _TRACER.enabled:
            # Splice the worker's buffered segment in between its
            # dispatch and its result event, so the merged stream stays
            # causally ordered.
            if segment:
                self.c_trace_merged.inc(
                    _TRACER.ingest(segment, worker=wid)
                )
            elif segment is None:
                # The worker never collected: its events for this task
                # are gone.  Count the loss.
                self.c_trace_dropped.inc()
            _TRACER.emit(
                _events.PARALLEL_RESULT, worker=wid,
                solutions=len(task_solutions), spilled=len(spilled),
            )

    # -- lost tasks --------------------------------------------------------

    def _check_workers(self) -> None:
        """Fail every busy worker whose process died or that has gone
        ``task_timeout`` without progress: the one clock rule for lost
        work."""
        timeout = self.engine.task_timeout
        for slot in self.sup.slots:
            if slot.ep is None or not self.leases.busy(slot.ep.wid):
                continue  # failed or drained earlier this sweep
            if not slot.ep.alive():
                self._fail(slot, "crash", "worker process died")
            elif (timeout is not None
                  and self.leases.quiet(slot.ep.wid) > timeout):
                self._fail(slot, "timeout",
                           f"no progress for {timeout:.1f}s")

    def _fail(self, slot: WorkerSlot, kind: str, detail: str = "") -> None:
        """Account one worker death: blame, requeue, schedule respawn."""
        ep = slot.ep
        # Fence off everything the worker still owed us: whatever it
        # delivers from here on settles as stale.  Workers run their
        # batch in grant order and report per task, so the first lease
        # owed is the task that was executing: the suspect.
        owed = [lease.task for lease in self.leases.revoke_worker(ep.wid)]
        suspect = owed[0] if owed else None
        if self.flight is not None:
            self.flight.record_failure(
                ep.wid, kind, detail,
                task=list(suspect.prefix) if suspect is not None else None,
            )
            self.c_flight.inc()
        self.status.on_worker_failed(ep.wid)
        if kind == "timeout":
            self.c_timeouts.inc()
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_TIMEOUT, worker=ep.wid)
        else:
            self.c_crashes.inc()
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_CRASH, worker=ep.wid)
        # Sever trust in the endpoint: close its channel and terminate a
        # local process; an external worker exits when its connection
        # closes.  Nothing it sent is delivered from here on, and the
        # transport's close reaps the process.
        ep.kill()
        self.sup.record_failure(
            slot, ep.wid, kind,
            suspect.key() if suspect is not None else None, detail,
        )
        requeued = sum(self._lose(task, suspect=i == 0)
                       for i, task in enumerate(owed))
        slot.ep = None
        if self.by_wid.get(ep.wid) is slot:
            del self.by_wid[ep.wid]
        if requeued and _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_RETRY, worker=ep.wid,
                         tasks=requeued)

    def _lose(self, task: PrefixTask, suspect: bool = True) -> bool:
        """Skip, give up or requeue a task that will not report; returns
        whether it was requeued.  Only a *suspect* (the task a dead
        worker was running, or whose result a steal showed lost) is
        attempt-bumped and can be given up, by the supervisor's verdict;
        collateral tasks requeue untouched."""
        key = task.key()
        if key in self.completed_keys or self.sup.is_poisoned(key):
            return False
        if suspect:
            verdict = self.sup.verdict(task)
            if verdict == POISON:
                evidence = self.sup.evidence[key]
                self.c_poisoned.inc()
                self.poisoned.append((task, evidence))
                self._journal("poisoned", task=task.to_record(),
                              evidence=evidence)
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_POISONED,
                                 task=list(task.prefix), kills=len(evidence))
                return False
            if verdict == DROP:
                self.c_dropped.inc()
                self._journal("drop", task=task.to_record())
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_DROP, tasks=1)
                return False
            task = task.retried()
        self.c_retries.inc()
        self.frontier.push(task)
        return True

    # -- status and result -------------------------------------------------

    def _journal(self, rtype: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(rtype, **fields)

    def _health(self) -> list[dict]:
        health = self.sup.health()
        for entry in health:
            entry["busy"] = (entry["worker"] is not None
                             and self.leases.busy(entry["worker"]))
        return health

    def _refresh(self, force: bool = False) -> None:
        if not self.engine._telemetry:
            return
        now = self.clock()
        # The status refreshes as often as the workers beat.
        if (not force and now - self.last_refresh
                < self.config.heartbeat_interval):
            return
        self.last_refresh = now
        self.status.refresh(
            self.reg.state_dict(),
            pending=len(self.frontier),
            in_flight=len(self.leases),
            solutions=len(self.solutions),
            health=self._health(),
        )
        due = now - self.last_sample >= self.engine.status_interval
        if self.logger is not None and (force or due):
            self.last_sample = now
            self.logger.sample(now)

    def _finalize(self) -> None:
        """Seal the run, once: record the search stats with the peak
        task frontier, then seal the status, which drops the uncommitted
        heartbeat states, so its metrics mirror the engine registry."""
        reg = self.reg
        self.stats = stats = SearchStats(**{
            field: reg.get(f"search.{field}").value
            for field in SearchStats.FIELDS
        })
        stats.peak_frontier = max(stats.peak_frontier, self.frontier.peak)
        record_into(reg, "search", stats)
        self.status.finalize(
            reg.state_dict(), pending=len(self.frontier),
            solutions=len(self.solutions), health=self._health(),
            stop_reason=self.stop_reason, degraded=self.degraded,
        )

    def result(self) -> SearchResult:
        e, reg, rec, stats = self.engine, self.reg, self.recovered, self.stats
        stats.extra.update({
            "workers": e.num_workers,
            "transport": e.transport_name,
            "strategy_order": e.strategy_name,
            "tasks_dispatched": self.c_tasks.value,
            "tasks_completed": self.c_done.value,
            "tasks_spilled": self.c_spilled.value,
            "tasks_retried": self.c_retries.value,
            "tasks_dropped": self.c_dropped.value,
            "tasks_poisoned": len(self.poisoned),
            "worker_crashes": self.c_crashes.value,
            "task_timeouts": self.c_timeouts.value,
            "respawns": self.c_respawns.value,
            "protocol_errors": self.c_proto.value,
            "degraded": bool(self.c_degraded.value),
            "min_workers": e.min_workers,
            "steals": self.c_steals.value,
            "leases_expired": self.c_lease_expired.value,
            "fenced_stale": self.c_fenced.value,
            "worker_joins": self.c_joins.value,
            "peak_task_frontier": self.frontier.peak,
            "replay_steps": reg.counter("parallel.replay_steps").value,
            "guest_instructions": reg.counter("parallel.guest_steps").value,
            "trace_events_merged": self.c_trace_merged.value,
            "trace_dropped": self.c_trace_dropped.value,
            "trace_span": self.span,
            "snapshots_taken": reg.counter("snapshot.taken").value,
            "snapshots_restored": reg.counter("snapshot.restored").value,
            "frames_copied": reg.counter("mem.frames_copied").value,
        })
        if e.transport_name == "tcp":
            stats.extra["transport_stats"] = dict(self.pool.stats)
        if self.nlog is not None:
            stats.extra.update({
                "replay_mode": e.replay_mode,
                "nondet_events": len(self.nlog),
                "nondet_conflicts": self.nlog.conflicts,
            })
        if e.journal_path is not None:
            stats.extra.update({
                "journal": e.journal_path,
                "journal_records": reg.counter("journal.records").value,
                "journal_fsyncs": reg.counter("journal.fsyncs").value,
                "resumed": rec is not None,
                "resume_pending": len(rec.pending) if rec else 0,
                "resume_solutions": len(rec.solutions) if rec else 0,
                "journal_skipped": rec.skipped if rec else 0,
                "journal_torn": rec.torn if rec else 0,
                "resume_spills_filtered": self.c_resume_filtered.value,
            })
        if self.poisoned:
            stats.extra["poisoned_tasks"] = [
                {"task": task.to_record(), "evidence": evidence}
                for task, evidence in self.poisoned
            ]
        if e._telemetry:
            stats.extra["heartbeats"] = self.c_heartbeats.value
            if self.server is not None:
                stats.extra["status_url"] = self.server.url
            if e.status_log is not None:
                stats.extra["status_log"] = e.status_log
            if self.flight is not None:
                stats.extra["flight_dumps"] = list(self.flight.dumps)
        return SearchResult(
            solutions=self.solutions,
            stats=stats,
            strategy=e.strategy_name,
            exhausted=self.stop_reason is None,
            stop_reason=self.stop_reason,
        )
