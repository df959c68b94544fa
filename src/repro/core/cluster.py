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
pools whose workers join and leave mid-run.  Because a TCP "death" is
only ever a suspicion (a partitioned worker keeps computing), every
dispatch carries a lease with a monotonic fencing token
(:mod:`~repro.core.lease`): late results under a stale fence are
counted (``parallel.fenced_stale``) and discarded wholesale, so the
solution multiset and the exact work-conservation invariant hold even
when a presumed-dead worker resurfaces.

Robustness: a per-task wall-clock timeout, worker-crash detection with
bounded retry of the lost tasks, lease expiry re-dispatch, and graceful
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
import itertools
import multiprocessing
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.errors import ReplayDivergenceError
from repro.core.lease import LeaseTable
from repro.core.transport import (
    EndpointDown,
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
    SlotState,
    SupervisorPolicy,
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
from repro.obs.registry import MetricsRegistry
from repro.obs.status import HeartbeatRecord, RunStatus
from repro.obs.trace import TRACER as _TRACER, MemorySink
from repro.search import get_strategy
from repro.search.shard import PrefixTask, TaskFrontier, spill_extension
from repro.snapshot.snapshot import SnapshotManager
from repro.snapshot.tree import SnapshotTree
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
    """Picklable knobs shipped to every worker process."""

    strategy: str = "dfs"
    max_steps_per_extension: int = 5_000_000
    #: Spill choice points deeper than this many guesses below the task
    #: root (None = no depth limit; rely on the step budget).
    subtree_depth: Optional[int] = None
    #: Guest instructions of *new* exploration per task before the local
    #: frontier is spilled back (replay of the prefix is not charged).
    task_step_budget: Optional[int] = 25_000
    #: Test hook, called as ``fault_hook(task)`` in the worker before
    #: each task — fault-injection tests and the chaos harness crash or
    #: stall here.
    fault_hook: Optional[Callable[[PrefixTask], None]] = None
    #: Chaos seam in the pipe protocol, called as ``pipe_hook(conn,
    #: task)`` in the worker just before a task result is sent — the
    #: chaos harness writes garbage bytes into the result pipe here to
    #: exercise the coordinator's protocol-corruption handling.
    pipe_hook: Optional[Callable] = None
    #: Workers buffer their trace events per task and ship the segment
    #: back with the result, so the coordinator can merge one causally
    #: ordered trace.  Off by default; the engine switches it on for a
    #: run whenever the coordinator's tracer has a sink attached.
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
    #: pipe alongside task results (None disables heartbeats — the
    #: engine enables them whenever any live-telemetry surface is on).
    heartbeat_interval: Optional[float] = None
    #: Capacity of the per-worker flight-recorder ring of recent trace
    #: events, shipped inside heartbeats (0 disables the ring).
    flight_events: int = 0
    #: Tasks a worker asks for per ``steal`` announcement (the engine
    #: sets it to its batch_size; the coordinator may fulfil with less).
    steal_batch: int = 4


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
                 replay_log: Optional[NondetLog] = None, worker_id: int = -1):
        self.program = program
        self.config = config
        #: The id trace events name (-1: the coordinator's in-process
        #: worker of degraded mode).
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
        self.recorder = recorder_for(config.replay_mode, replay_log)
        self.libos.dispatcher.nondet = self.recorder
        self.pool = FramePool()
        self.registry = MetricsRegistry("cluster-worker")
        self.manager = SnapshotManager(self.pool, registry=self.registry)
        self.vcpu = VCpu()
        self.stats = SearchStats(registry=self.registry)
        self._steps_counter = self.registry.counter("parallel.guest_steps")
        self._replay_counter = self.registry.counter("parallel.replay_steps")
        self._task_timer = self.registry.timer("parallel.task_time")
        # FramePool keeps its stats on the pool object, not in a registry;
        # ship per-task deltas so the coordinator sees copy totals.
        self._frames_copied = self.registry.counter("mem.frames_copied")
        self._spills_counter = self.registry.counter("parallel.worker_spills")
        self._last_copied = 0
        #: Heartbeat hook called between VM exits (set by
        #: ``_worker_main`` when live telemetry is on; it is rate-limited
        #: internally, so calling it often is cheap).
        self.heartbeat: Optional[Callable[[], None]] = None
        # Guest strategy selection is coordinator policy in the cluster
        # engine: the stepper acknowledges and ignores it.
        self.stepper = ExtensionStepper(
            self.libos, self.vcpu, self.pool, get_strategy(config.strategy),
            config.max_steps_per_extension, manager=self.manager,
            allow_guest_strategy=False, spill=self._spill,
            prefix_replay=True, nondet_sites=config.nondet_sites,
        )
        self.stepper.stats = self.stats
        # The running task, read by the spill hook.
        self._task = PrefixTask()
        self._solutions_budget: Optional[int] = None
        self._spilled: list[PrefixTask] = []
        #: Fresh (non-replay) guest instructions of the task's finished
        #: paths: what ``task_step_budget`` limits.
        self._explored = 0

    def sync_frame_stats(self) -> None:
        """Mirror the pool's copy count into the registry.

        Called at every task end and before every heartbeat, so mid-task
        uncommitted registry states carry the COW work done so far.
        """
        copied = self.pool.stats.copied
        if copied != self._last_copied:
            self._frames_copied.inc(copied - self._last_copied)
            self._last_copied = copied

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
        stepper.tree = tree = SnapshotTree(self.manager)
        stepper.solutions = solutions = []
        self._task = task
        self._solutions_budget = solutions_budget
        self._spilled = spilled = []
        self._explored = 0

        self._run(stepper.boot(self.program, task.prefix, task.fanouts))
        while True:
            if self.heartbeat is not None:
                self.heartbeat()
            if self._over_budget(0):
                break
            ext = stepper.strategy.next()
            if ext is None:
                break
            self._run(stepper.resume(ext))

        # Convert whatever local frontier remains into replayable tasks
        # and unwind its pins so the snapshot tree (and its frames) die.
        while True:
            ext = stepper.strategy.next()
            if ext is None:
                break
            cand = ext.candidate
            spilled.append(
                PrefixTask(
                    prefix=cand.path + (ext.number,),
                    fanouts=cand.fanouts,
                    hint=ext.hint,
                    span=task.span,
                )
            )
            tree.unpin(cand.snapshot)
        # Worker-local frontier peaks are per-task numbers; summing them
        # through the gauge merge would be meaningless, so the engine's
        # peak_frontier reports the coordinator task frontier instead.
        self.sync_frame_stats()
        if spilled:
            self._spills_counter.inc(len(spilled))
        return [(s.path, *s.value) for s in solutions], spilled

    def _run(self, pending: Pending) -> None:
        """Step *pending* to its boundary one VM exit at a time, keeping
        the live step counters and the heartbeat current."""
        step = self.stepper.step
        while True:
            used, replayed = pending.steps_used, pending.replay_steps
            outcome = step(pending, once=True)
            replay = pending.replay_steps - replayed
            if replay:
                self._replay_counter.inc(replay)
            else:
                self._steps_counter.inc(pending.steps_used - used)
            if outcome is not None:
                break
            if self.heartbeat is not None:
                self.heartbeat()
        self._explored += pending.steps_used - pending.replay_steps

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


#: Seconds between an idle worker's re-announcements of its steal
#: capacity.  Over a pipe the first announcement always arrives; over a
#: chaos-injected network a ``steal`` (or the ``work`` answering it) can
#: be dropped, and the periodic re-announcement is what un-wedges the
#: run: the coordinator treats a steal from a worker it believes busy as
#: proof the worker's results were lost, reclaims the leases, and
#: re-dispatches.
_STEAL_REANNOUNCE_S = 1.0


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
            ring=ring, sync=worker.sync_frame_stats,
        )
    try:
        conn.send(("steal", worker_id, config.steal_batch))
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
                    conn.send(("steal", worker_id, config.steal_batch))
                    last_steal = now
            msg = conn.recv()
            if msg is None:
                break
            if not (isinstance(msg, tuple) and len(msg) == 4
                    and msg[0] == "work"):
                continue  # duplicated/unknown control frame: ignore
            _, batch, solutions_budget, shipped_events = msg
            if worker.recorder is not None and shipped_events:
                worker.recorder.log.merge(shipped_events)
            for task in batch:
                if _TRACER.enabled:
                    _TRACER.emit(
                        _events.TASK_BEGIN, worker=worker_id,
                        task=list(task.prefix), depth=task.depth,
                        span=task.span, attempt=task.attempt,
                    )
                if emitter is not None:
                    # Force a beat before the fault hook can kill us:
                    # the shipped ring (with task.begin) is what the
                    # flight recorder dumps for this death.
                    worker.heartbeat = (
                        lambda t=task: emitter.beat(task=t.prefix, span=t.span)
                    )
                    emitter.beat(task=task.prefix, span=task.span, force=True)
                if config.fault_hook is not None:
                    config.fault_hook(task)
                try:
                    solutions, spilled = worker.explore(task, solutions_budget)
                except Exception as exc:  # engine/guest error: report and die
                    conn.send(("error", worker_id,
                               f"{type(exc).__name__}: {exc}"))
                    return
                if solutions_budget is not None:
                    solutions_budget = max(
                        0, solutions_budget - len(solutions)
                    )
                state = worker.registry.state_dict()
                if emitter is not None:
                    worker.heartbeat = None
                    # Bank the lifetime counters this reset will zero.
                    emitter.note_task_result(state)
                worker.registry.reset()
                segment = collector.drain() if collector is not None else None
                fresh_events = (
                    worker.recorder.drain_fresh()
                    if worker.recorder is not None else []
                )
                if config.pipe_hook is not None:
                    config.pipe_hook(conn, task)
                conn.send(
                    ("task", worker_id, task.key(), task.fence, solutions,
                     spilled, state, segment, fresh_events)
                )
            conn.send(("steal", worker_id, config.steal_batch))
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


class _WorkerHandle:
    __slots__ = ("ep", "slot_index", "pending", "last_progress", "want")

    def __init__(self, ep, slot_index: int):
        #: The transport endpoint this worker is reached through.
        self.ep = ep
        #: Index of the supervisor slot this worker occupies.
        self.slot_index = slot_index
        #: Leased tasks dispatched and not yet settled, in worker order
        #: (each carries the fence it travelled under).
        self.pending: list[PrefixTask] = []
        self.last_progress = 0.0
        #: Outstanding steal capacity (0 = no unfulfilled steal).
        self.want = 0

    @property
    def wid(self) -> int:
        return self.ep.wid

    @property
    def busy(self) -> bool:
        return bool(self.pending)


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
        Per-task wall-clock limit in seconds.  A worker that makes no
        progress for this long is killed and its unreported tasks are
        retried elsewhere (None disables the timeout).
    max_task_retries:
        How many times a task lost to a crash or timeout is re-dispatched
        before being dropped (a drop marks the result not exhausted).
    mp_context:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast worker startup), else ``spawn``.
    fault_hook:
        Test-only fault injector run in workers (see :class:`ClusterConfig`).
    collect_trace:
        Whether workers buffer their trace events and ship them back for
        merging into the coordinator's trace.  ``None`` (the default)
        follows the coordinator's tracer: collection is on exactly when
        a sink is attached at :meth:`run` time.  Passing ``False`` while
        the coordinator traces drops every worker-side event — the
        engine then warns and counts the losses in
        ``parallel.trace_dropped`` rather than losing them silently.
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
        Graceful-degradation floor: when the supervisor can no longer
        keep at least this many worker slots serviceable, the remaining
        frontier is finished on an in-process engine instead of
        aborting the run.
    supervisor:
        Full :class:`~repro.core.supervisor.SupervisorPolicy`
        (respawn backoff, poison threshold, slot failure limit).  When
        given it wins over the *min_workers* convenience parameter.
    chaos:
        A :class:`~repro.chaos.FaultPlan` wired into the three
        injection seams (worker fault hook, result-pipe hook, journal
        writer hook).  An explicitly passed *fault_hook* keeps
        precedence over the plan's worker faults.
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
        ``repro.tools.top --status-log`` and ``trace_report``.
    status_interval:
        Seconds between status-log samples (and the floor of the
        coordinator's internal status refresh cadence).
    heartbeat_interval:
        Seconds between worker heartbeats.  ``None`` (default) means
        0.25 whenever any telemetry surface above is enabled, else off.
        Heartbeats also defer the per-task timeout while a worker's
        step counter demonstrably grows — a stalled worker cannot beat,
        so stalls still time out.
    flight_dir:
        Directory for flight-recorder post-mortems: each worker's most
        recent *flight_events* trace events (shipped inside heartbeats,
        so they survive ``kill -9``) are dumped to a JSONL file when
        the supervisor observes that worker crash or stall.
    flight_events:
        Ring capacity per worker for *flight_dir* (default 256).
    transport:
        The wire between coordinator and workers: ``"pipe"`` (default;
        local worker processes over duplex multiprocessing pipes) or
        ``"tcp"`` (framed sockets via an asyncio acceptor; workers may
        additionally join elastically from other hosts/processes with
        ``run_guest --connect``).  Scheduling, supervision, journaling
        and chaos semantics are identical across transports — the
        differential battery pins that down.
    listen:
        TCP only: ``(host, port)`` to accept workers on.  Defaults to
        ``("127.0.0.1", 0)`` — loopback, ephemeral port; read
        :attr:`transport_address` once :meth:`run` is underway.
    lease_timeout:
        Seconds a dispatched task's lease lives without observed
        progress before the coordinator re-dispatches it (the late
        result, if any, is fenced off and discarded).  ``None``
        (default) derives 1.5 × *task_timeout* — the stall detector
        fires first and remains the primary recovery path; the lease is
        the backstop for results lost in flight and for partitioned
        workers that still look healthy.  When *task_timeout* is None,
        leases never expire (fencing still applies).
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
        mp_context: Optional[str] = None,
        fault_hook: Optional[Callable[[PrefixTask], None]] = None,
        collect_trace: Optional[bool] = None,
        verify: str = "off",
        journal: Optional[str] = None,
        resume: bool = False,
        fsync: str = "batch",
        min_workers: int = 1,
        supervisor: Optional[SupervisorPolicy] = None,
        chaos=None,
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        input_script: Optional[bytes] = None,
        hostfs: Optional[HostFS] = None,
        status_port: Optional[int] = None,
        status_log: Optional[str] = None,
        status_interval: float = 0.5,
        heartbeat_interval: Optional[float] = None,
        flight_dir: Optional[str] = None,
        flight_events: int = 256,
        transport: str = "pipe",
        listen: Optional[tuple] = None,
        lease_timeout: Optional[float] = None,
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
        if lease_timeout is not None and lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
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
        if heartbeat_interval is not None and heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if flight_events < 1:
            raise ValueError("flight_events must be >= 1")
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
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.num_workers = workers
        self.strategy_name = strategy  # TaskFrontier validates the name
        self.batch_size = batch_size
        self.max_solutions = max_solutions
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self.collect_trace = collect_trace
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
        self.supervisor_policy = (
            supervisor if supervisor is not None
            else SupervisorPolicy(min_workers=min_workers)
        )
        self.status_port = status_port
        self.status_log = status_log
        self.status_interval = status_interval
        self.flight_dir = flight_dir
        #: True when any live-telemetry surface was requested; gates the
        #: coordinator's refresh work so telemetry-off runs pay nothing.
        self._telemetry = (
            status_port is not None or status_log is not None
            or flight_dir is not None or heartbeat_interval is not None
        )
        hb_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else (0.25 if self._telemetry else None)
        )
        #: Live model of the current/last :meth:`run` (always set by
        #: run; finalized to the exact end-of-run registry state).
        self.status: Optional[RunStatus] = None
        #: The HTTP exporter of the current run (``status_port`` only).
        self.status_server: Optional[StatusServer] = None
        #: The flight recorder of the current run (``flight_dir`` only);
        #: ``flight_recorder.dumps`` lists post-mortems written.
        self.flight_recorder: Optional[FlightRecorder] = None
        if chaos is not None and fault_hook is None:
            fault_hook = chaos.worker_hook
        self.config = ClusterConfig(
            strategy=strategy,
            max_steps_per_extension=max_steps_per_extension,
            subtree_depth=subtree_depth,
            task_step_budget=task_step_budget,
            fault_hook=fault_hook,
            pipe_hook=chaos.pipe_hook if chaos is not None else None,
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
            heartbeat_interval=hb_interval,
            flight_events=(
                flight_events
                if flight_dir is not None and hb_interval is not None else 0
            ),
            steal_batch=batch_size,
        )
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
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
        self.registry.reset()
        stats = SearchStats(registry=self.registry)
        reg = self.registry
        c_dispatches = reg.counter("parallel.dispatches")
        c_tasks = reg.counter("parallel.tasks_dispatched")
        c_done = reg.counter("parallel.tasks_completed")
        c_spilled = reg.counter("parallel.tasks_spilled")
        c_crashes = reg.counter("parallel.worker_crashes")
        c_timeouts = reg.counter("parallel.task_timeouts")
        c_retries = reg.counter("parallel.tasks_retried")
        c_dropped = reg.counter("parallel.tasks_dropped")
        c_trace_merged = reg.counter("parallel.trace_events_merged")
        c_trace_dropped = reg.counter("parallel.trace_dropped")
        c_respawns = reg.counter("parallel.respawns")
        c_poisoned = reg.counter("parallel.poisoned_tasks")
        c_degraded = reg.counter("parallel.degraded_runs")
        c_proto = reg.counter("parallel.protocol_errors")
        c_resume_filtered = reg.counter("parallel.resume_spills_filtered")
        c_heartbeats = reg.counter("telemetry.heartbeats")
        c_flight = reg.counter("telemetry.flight_dumps")
        c_steals = reg.counter("parallel.steals")
        c_lease_expired = reg.counter("parallel.leases_expired")
        c_fenced = reg.counter("parallel.fenced_stale")
        c_joins = reg.counter("parallel.worker_joins")
        g_workers = reg.gauge("parallel.workers")

        # Trace propagation: workers collect iff the coordinator traces,
        # unless explicitly overridden.  An override to False while a
        # sink is attached means worker events are lost — make that loud.
        collect = (
            _TRACER.enabled if self.collect_trace is None
            else self.collect_trace
        )
        run_config = dataclasses.replace(
            self.config, collect_trace=collect, nondet_sites=sites
        )
        if _TRACER.enabled and not collect:
            warnings.warn(
                "tracing is enabled on the coordinator but workers are not "
                "collecting (collect_trace=False): worker-side trace events "
                "will be dropped",
                RuntimeWarning,
                stacklevel=2,
            )

        span = next(_run_spans)
        run_status = RunStatus(
            workers=self.num_workers, span=span, strategy=self.strategy_name,
        )
        self.status = run_status
        server: Optional[StatusServer] = None
        logger: Optional[StatusLogger] = None
        flight: Optional[FlightRecorder] = None
        if self.status_port is not None:
            server = StatusServer(run_status, port=self.status_port).start()
        self.status_server = server
        if self.flight_dir is not None and run_config.flight_events > 0:
            flight = FlightRecorder(
                self.flight_dir, capacity=run_config.flight_events,
            )
        self.flight_recorder = flight
        frontier = TaskFrontier(order=self.strategy_name)
        solutions: list[Solution] = []
        stop_reason: Optional[str] = None
        degraded = False
        #: Task keys already completed in the journaled run: a resumed
        #: coordinator drops re-spills of these so a re-explored parent
        #: (its own completion record lost to corruption) can never
        #: double-count a child's already-durable solutions.
        resume_completed: set[tuple[int, ...]] = set()
        poisoned: list[tuple[PrefixTask, list]] = []
        recovered = None
        journal: Optional[JournalWriter] = None
        digest = program_digest(program)
        jhook = self.chaos.journal_hook if self.chaos is not None else None
        sup = WorkerSupervisor(self.num_workers, self.supervisor_policy)

        nlog = self.replay_log  # coordinator's merged nondet-event log

        if self.resume:
            recovered = recover(self.journal_path)
            check_resume(recovered, digest, sites,
                         replay_mode=self.replay_mode)
            if nlog is not None and recovered.nondet_events:
                nlog.merge_records(recovered.nondet_events)
            journal = JournalWriter(
                self.journal_path, fsync=self.fsync,
                start_epoch=recovered.last_epoch + 1,
                truncate_to=recovered.valid_bytes,
                fault_hook=jhook, registry=reg,
            )
            for spath, status, text in recovered.solutions:
                solutions.append(Solution(value=(status, text), path=spath))
            resume_completed = set(recovered.completed_keys)
            for task, evidence in recovered.poisoned:
                sup.quarantine(task.key())
                poisoned.append((task, evidence))
            frontier.extend(recovered.pending)
            journal.append(
                "resume", span=span, pending=len(recovered.pending),
                solutions=len(solutions), skipped=recovered.skipped,
                torn=recovered.torn,
            )
        else:
            root = PrefixTask(span=span)
            if self.journal_path is not None:
                journal = JournalWriter(
                    self.journal_path, fsync=self.fsync,
                    fault_hook=jhook, registry=reg,
                )
                journal.append(
                    "run_begin",
                    version=JOURNAL_VERSION,
                    program=digest,
                    span=span,
                    strategy=self.strategy_name,
                    workers=self.num_workers,
                    batch_size=self.batch_size,
                    subtree_depth=self.config.subtree_depth,
                    task_step_budget=self.config.task_step_budget,
                    max_steps=self.config.max_steps_per_extension,
                    max_solutions=self.max_solutions,
                    replay_mode=self.replay_mode,
                    transport=self.transport_name,
                    lease_timeout=self.lease_timeout,
                    certified=(None if sites is None else not sites),
                    nondet_sites=(
                        None if sites is None
                        else [[pc, lint] for pc, lint in sites]
                    ),
                    root=root.to_record(),
                )
            frontier.push(root)

        poll = 0.02 if self.task_timeout is None else min(
            0.02, self.task_timeout / 4
        )

        # -- transport, leases, steal pool ------------------------------
        if self.transport_name == "tcp":
            host, port = self.listen if self.listen is not None else (
                "127.0.0.1", 0,
            )
            net_hook = (
                self.chaos.net_hook
                if self.chaos is not None
                and getattr(self.chaos, "has_net_faults", False)
                else None
            )
            transport = TcpTransport(
                self._ctx, host=host, port=port,
                worker_entry=_tcp_worker_entry, net_hook=net_hook,
                heartbeat_timeout=self.heartbeat_timeout,
                start_wid=self._next_wid,
            )
        else:
            transport = PipeTransport(
                self._ctx, _worker_main, start_wid=self._next_wid,
            )
        transport.start(program, run_config)
        self.transport_address = transport.address
        #: Wire-level observations (chaos net faults) arrive from the
        #: transport's loop thread; the tracer is single-threaded, so
        #: they are buffered here and drained into the trace by the
        #: coordinator loop.  deque.append is atomic under the GIL.
        wire_events: deque = deque()
        if self.transport_name == "tcp" and _TRACER.enabled:
            transport.on_wire_event = (
                lambda kind, **f: wire_events.append((kind, f))
            )

        #: Leases expire a bit *after* the stall detector would have
        #: fired: the stall path (which kills the worker) stays primary;
        #: lease expiry is the backstop for results lost in flight and
        #: for partitioned workers that still look healthy.
        lease_s = self.lease_timeout
        if lease_s is None and self.task_timeout is not None:
            lease_s = self.task_timeout * 1.5
        leases = LeaseTable(
            duration=lease_s,
            start_fence=(
                recovered.last_fence + 1 if recovered is not None else 1
            ),
        )
        #: Every task key settled this run (superset of the resumed
        #: completed set): the second line of defence against double
        #: counting, behind fence matching.
        completed_keys: set[tuple[int, ...]] = set(resume_completed)
        #: wids with unfulfilled steal announcements, FIFO.
        steal_queue: deque[int] = deque()
        by_wid: dict[int, _WorkerHandle] = {}

        def make_handle(ep, slot_index: int) -> _WorkerHandle:
            handle = _WorkerHandle(ep, slot_index)
            handle.last_progress = time.monotonic()
            by_wid[ep.wid] = handle
            return handle

        handles: list[Optional[_WorkerHandle]] = [
            make_handle(transport.spawn(), i)
            for i in range(self.num_workers)
        ]
        g_workers.set(self.num_workers)

        track_status = self._telemetry
        status_every = min(0.25, self.status_interval)
        last_refresh = 0.0

        def worker_health() -> list[dict]:
            health = sup.health()
            for entry in health:
                handle = handles[entry["slot"]]
                entry["worker"] = handle.wid if handle is not None else None
                entry["busy"] = bool(handle is not None and handle.busy)
            return health

        def maybe_refresh(force: bool = False) -> None:
            nonlocal last_refresh
            if not track_status:
                return
            now = time.monotonic()
            if not force and now - last_refresh < status_every:
                return
            last_refresh = now
            run_status.refresh(
                reg.state_dict(),
                pending=len(frontier),
                in_flight=sum(
                    len(h.pending) for h in handles if h is not None
                ),
                solutions=len(solutions),
                health=worker_health(),
            )

        maybe_refresh(force=True)
        if self.status_log is not None:
            logger = StatusLogger(
                run_status, self.status_log, interval=self.status_interval,
            ).start()

        def journal_append(rtype: str, **fields) -> None:
            if journal is not None:
                journal.append(rtype, **fields)

        def solutions_payload(task_solutions) -> list:
            return [
                [list(path), status, text]
                for path, status, text in task_solutions
            ]

        def batch_events(batch) -> list:
            """Recorded events every task in *batch* may replay through."""
            if nlog is None:
                return []
            picked: dict = {}
            for task in batch:
                for event in nlog.events_for_task(task.prefix):
                    picked[event.key()] = event
            return list(picked.values())

        def absorb_events(fresh_events) -> None:
            """Merge worker-recorded events and make them durable.

            The ``nondet`` record must land *before* the task's
            ``complete`` record: if the completion is later lost, the
            re-explored subtree replays these events and reproduces the
            durable solutions instead of re-rolling them.
            """
            if nlog is None or not fresh_events:
                return
            nlog.merge(fresh_events)
            journal_append(
                "nondet", events=[e.to_record() for e in fresh_events]
            )

        def push_tasks(tasks) -> None:
            for task in tasks:
                key = task.key()
                if key in completed_keys:
                    if key in resume_completed:
                        c_resume_filtered.inc()
                    continue
                if sup.is_poisoned(key):
                    continue  # quarantined: never re-dispatched
                frontier.push(task)

        def reclaim(handle: _WorkerHandle, reason: str) -> None:
            """Revoke *handle*'s leases, requeue the tasks (no blame).

            Used when the worker is believed healthy but its results
            were lost in flight (it announced a steal while the
            coordinator still held leases for it): the revocation
            fences off any late duplicate, the requeue re-executes.
            """
            tasks, handle.pending = list(handle.pending), []
            for task in tasks:
                lease = leases.revoke(task.key())
                if lease is None or lease.fence != task.fence:
                    continue  # superseded already (expired, re-granted)
                c_lease_expired.inc()
                journal_append("expire", task=task.to_record(),
                               fence=task.fence, worker=handle.wid,
                               reason=reason)
                if _TRACER.enabled:
                    _TRACER.emit(
                        _events.PARALLEL_LEASE_EXPIRED,
                        task=list(task.prefix), fence=task.fence,
                        worker=handle.wid,
                    )
                if (task.key() in completed_keys
                        or sup.is_poisoned(task.key())):
                    continue
                if task.attempt >= self.max_task_retries:
                    c_dropped.inc()
                    journal_append("drop", task=task.to_record())
                    if _TRACER.enabled:
                        _TRACER.emit(_events.PARALLEL_DROP, tasks=1)
                    continue
                c_retries.inc()
                frontier.push(task.retried())

        def fail_worker(slot, handle: _WorkerHandle, kind: str,
                        detail: str = "") -> None:
            """Account one worker death: blame, requeue, schedule respawn."""
            if flight is not None:
                flight.record_failure(
                    handle.wid, kind, detail,
                    task=(
                        list(handle.pending[0].prefix)
                        if handle.pending else None
                    ),
                )
                c_flight.inc()
            run_status.on_worker_failed(handle.wid)
            if kind == "timeout":
                c_timeouts.inc()
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_TIMEOUT, worker=handle.wid)
            else:
                c_crashes.inc()
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_CRASH, worker=handle.wid)
            # Sever trust in the endpoint.  For pipes this also
            # terminates the process; for TCP it only disconnects — a
            # partitioned worker cannot be signalled either, and its
            # possible resurfacing (with now-stale fences) is exactly
            # the case the lease table exists for.
            handle.ep.kill()
            # Fence off everything the worker still owed us: whatever
            # it delivers from here on settles as stale.
            leases.revoke_worker(handle.wid)
            # Workers run their batch in dispatch order and report per
            # task, so the first unreported task is the one that was
            # executing: the suspect.  Batch-mates are requeued without
            # an attempt bump — they are collateral, not culprits.
            suspect = handle.pending[0] if handle.pending else None
            decision = sup.record_failure(
                slot, handle.wid, kind,
                suspect.key() if suspect is not None else None, detail,
            )
            requeue: list[PrefixTask] = []
            if suspect is not None:
                if decision.poison:
                    c_poisoned.inc()
                    poisoned.append((suspect, decision.evidence))
                    journal_append("poisoned", task=suspect.to_record(),
                                   evidence=decision.evidence)
                    if _TRACER.enabled:
                        _TRACER.emit(
                            _events.PARALLEL_POISONED,
                            task=list(suspect.prefix),
                            kills=len(decision.evidence),
                        )
                elif suspect.attempt >= self.max_task_retries:
                    c_dropped.inc()
                    journal_append("drop", task=suspect.to_record())
                    if _TRACER.enabled:
                        _TRACER.emit(_events.PARALLEL_DROP, tasks=1)
                else:
                    requeue.append(suspect.retried())
                requeue.extend(handle.pending[1:])
            handle.pending = []
            handles[slot.index] = None
            if by_wid.get(handle.wid) is handle:
                del by_wid[handle.wid]
            if requeue:
                c_retries.inc(len(requeue))
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_RETRY, worker=handle.wid,
                                 tasks=len(requeue))
                # Requeue lost tasks ahead of everything else so retries
                # bound the damage a flaky worker can do to latency.
                for task in requeue:
                    frontier.push(task)

        def register_join(ep, detail: str = "") -> None:
            """An external (or resurfaced) worker completed the
            handshake: give it a non-respawnable slot and let it steal."""
            slot = sup.add_slot(respawnable=False)
            handles.append(make_handle(ep, slot.index))
            c_joins.inc()
            g_workers.set(
                sum(1 for h in handles if h is not None)
            )
            journal_append("join", worker=ep.wid, detail=detail)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_JOIN, worker=ep.wid,
                             detail=detail)

        def run_degraded() -> None:
            """Finish the frontier in-process after pool collapse.

            The in-process engine is the same :class:`_SubtreeWorker`
            stack the workers run, so semantics are identical; fault
            and pipe hooks are stripped (injected worker faults would
            kill the coordinator, and there is no pipe).
            """
            local_config = dataclasses.replace(
                run_config, fault_hook=None, pipe_hook=None,
                collect_trace=False,
            )
            # The in-process worker records straight into the
            # coordinator's log; drained fresh events are journaled the
            # same way a remote worker's shipped events are.
            local = _SubtreeWorker(program, local_config, replay_log=nlog)
            while frontier:
                if (
                    self.max_solutions is not None
                    and len(solutions) >= self.max_solutions
                ):
                    break
                task = frontier.pop()
                journal_append("dispatch", task=task.to_record(), worker=-1)
                if _TRACER.enabled:
                    _TRACER.emit(
                        _events.TASK_BEGIN, worker=-1,
                        task=list(task.prefix), depth=task.depth,
                        span=task.span, attempt=task.attempt,
                    )
                remaining = (
                    None if self.max_solutions is None
                    else max(self.max_solutions - len(solutions), 0)
                )
                task_solutions, spilled = local.explore(task, remaining)
                reg.merge_state(local.registry.state_dict())
                local.registry.reset()
                c_done.inc()
                c_spilled.inc(len(spilled))
                run_status.on_task_complete(
                    -1, task.fanouts, len(task_solutions),
                    [t.fanouts for t in spilled],
                )
                push_tasks(spilled)
                maybe_refresh()
                if local.recorder is not None:
                    fresh = local.recorder.drain_fresh()
                    if fresh:  # already merged: it records into nlog
                        journal_append(
                            "nondet",
                            events=[e.to_record() for e in fresh],
                        )
                journal_append(
                    "complete", task=task.to_record(),
                    solutions=solutions_payload(task_solutions),
                    spilled=[t.to_record() for t in spilled],
                )
                for spath, status, text in task_solutions:
                    solutions.append(Solution(value=(status, text), path=spath))

        try:
            while True:
                if (
                    self.max_solutions is not None
                    and len(solutions) >= self.max_solutions
                ):
                    stop_reason = "max_solutions"
                    break
                maybe_refresh()

                now = time.monotonic()
                for slot in sup.respawn_ready(now):
                    replacement = make_handle(transport.spawn(), slot.index)
                    handles[slot.index] = replacement
                    sup.mark_running(slot)
                    c_respawns.inc()
                    if _TRACER.enabled:
                        _TRACER.emit(
                            _events.PARALLEL_RESPAWN, worker=replacement.wid,
                            slot=slot.index, failures=slot.failures,
                        )

                if sup.collapsed() and (
                    frontier
                    or any(h is not None and h.busy for h in handles)
                ):
                    degraded = True
                    break

                # Fulfil steal announcements off the frontier.  Workers
                # *pull*: an idle worker announces capacity and the
                # coordinator grants it a leased batch — nothing is
                # pushed unsolicited, so a slow worker never queues work
                # it cannot start while a fast one sits idle.
                while steal_queue and frontier:
                    wid = steal_queue.popleft()
                    handle = by_wid.get(wid)
                    if handle is None or handle.busy:
                        continue  # died or was re-dispatched meanwhile
                    slot = sup.slots[handle.slot_index]
                    if slot.state is not SlotState.RUNNING:
                        continue
                    if not handle.ep.alive():
                        fail_worker(slot, handle, "crash",
                                    "worker died while idle")
                        continue
                    want = max(1, min(handle.want, self.batch_size))
                    handle.want = 0
                    batch = frontier.take_batch(want)
                    remaining = (
                        None if self.max_solutions is None
                        else max(self.max_solutions - len(solutions), 0)
                    )
                    granted = [
                        leases.grant(task, handle.wid).task for task in batch
                    ]
                    handle.pending = list(granted)
                    handle.last_progress = time.monotonic()
                    try:
                        handle.ep.send(("work", granted, remaining,
                                        batch_events(granted)))
                    except EndpointDown:
                        fail_worker(slot, handle, "crash",
                                    "dispatch channel closed")
                        continue
                    c_dispatches.inc()
                    c_tasks.inc(len(granted))
                    for task in granted:
                        journal_append("dispatch", task=task.to_record(),
                                       worker=handle.wid)
                    if _TRACER.enabled:
                        _TRACER.emit(_events.PARALLEL_DISPATCH,
                                     worker=handle.wid, tasks=len(granted))

                busy_count = sum(
                    1 for h in handles if h is not None and h.busy
                )
                if not busy_count and not frontier:
                    break  # frontier exhausted, nothing in flight
                timeout = poll
                if not busy_count:
                    # Everything runnable is mid-backoff (or tasks were
                    # just requeued): wait to the nearest respawn
                    # deadline instead of spinning.  The transport still
                    # gets polled — a TCP pool can gain an external
                    # joiner while every local slot is down.
                    due = sup.next_respawn_due()
                    if due is not None:
                        timeout = min(poll, max(0.0, due - time.monotonic()))

                events = transport.poll(max(0.0, timeout))
                now = time.monotonic()
                while wire_events:
                    kind, f = wire_events.popleft()
                    if kind == "net_fault" and _TRACER.enabled:
                        _TRACER.emit(
                            _events.CHAOS_NET_FAULT,
                            action=f.get("kind"),
                            direction=f.get("direction"),
                            worker=f.get("worker"), seq=f.get("seq"),
                        )
                for ev in events:
                    if ev.kind == "join":
                        register_join(ev.endpoint, ev.detail)
                        continue
                    handle = by_wid.get(ev.endpoint.wid)
                    if handle is None or handle.ep is not ev.endpoint:
                        continue  # failed/replaced earlier this sweep
                    slot = sup.slots[handle.slot_index]
                    if ev.kind == "down":
                        if ev.protocol_error:
                            c_proto.inc()
                        fail_worker(slot, handle, ev.fail_kind or "crash",
                                    ev.detail)
                        continue
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
                            and not (len(msg) == 3
                                     and isinstance(msg[2], int)))
                    ):
                        c_proto.inc()
                        fail_worker(slot, handle, "crash",
                                    f"malformed result message {msg!r}"[:200])
                        continue
                    if msg[0] == "steal":
                        if handle.busy:
                            if (now - handle.last_progress
                                    < _STEAL_REANNOUNCE_S):
                                # Sent before our latest dispatch reached
                                # the worker (the two crossed in flight):
                                # it will steal again once that batch is
                                # done.
                                continue
                            # The worker says it is idle while the
                            # coordinator still holds leases for it: its
                            # results were lost in flight (dropped
                            # frames, a reconnect).  Reclaim eagerly —
                            # the requeue re-executes, and the revoked
                            # fences turn any late duplicate delivery
                            # into a discarded stale.
                            reclaim(handle, "steal while leases held")
                        handle.want = msg[2]
                        if handle.wid not in steal_queue:
                            steal_queue.append(handle.wid)
                            c_steals.inc()
                            if _TRACER.enabled:
                                _TRACER.emit(
                                    _events.PARALLEL_STEAL,
                                    worker=handle.wid, want=msg[2],
                                )
                        continue
                    if msg[0] == "hb":
                        record: HeartbeatRecord = msg[2]
                        c_heartbeats.inc()
                        progressed = run_status.observe_heartbeat(record)
                        if flight is not None and record.events:
                            flight.extend(handle.wid, record.events)
                        if progressed and handle.busy:
                            # The worker's step counter grew: its task
                            # is alive, defer the stall timeout.  (A
                            # stalled worker cannot beat, so real
                            # stalls still trip it.)  Leases ride the
                            # same signal — observed progress renews
                            # ownership.
                            handle.last_progress = now
                            leases.extend_worker(handle.wid, now)
                        continue
                    if msg[0] == "error":
                        if str(msg[2]).startswith(
                            "ReplayDivergenceError:"
                        ):
                            # Surface a worker's replay divergence as
                            # itself: callers catch the typed error the
                            # same way whichever engine detected it.
                            raise ReplayDivergenceError(
                                f"worker {msg[1]}: {msg[2]}"
                            )
                        raise WorkerError(msg[1], msg[2])
                    (_kind, _wid, key, fence, task_solutions, spilled,
                     state, segment, fresh_events) = msg
                    key = tuple(key)
                    handle.last_progress = now
                    if leases.settle(key, fence) == "stale":
                        # A fenced-off result: the lease expired (or the
                        # worker was declared down) and the task was
                        # re-dispatched, or this is a duplicated
                        # delivery.  Discard it *wholesale* — no
                        # registry merge, no solutions, no spills, no
                        # journal complete — so the accepted execution
                        # remains the only accounting of this subtree.
                        c_fenced.inc()
                        journal_append(
                            "stale", task={"prefix": list(key)},
                            fence=fence, worker=handle.wid,
                        )
                        if _TRACER.enabled:
                            _TRACER.emit(
                                _events.PARALLEL_FENCED_STALE,
                                worker=handle.wid, task=list(key),
                                fence=fence,
                            )
                        for i, task in enumerate(handle.pending):
                            if task.key() == key and task.fence == fence:
                                handle.pending.pop(i)
                                break
                        continue
                    completed: Optional[PrefixTask] = None
                    for i, task in enumerate(handle.pending):
                        if task.key() == key:
                            completed = handle.pending.pop(i)
                            break
                    completed_keys.add(key)
                    sup.record_success(slot)
                    c_done.inc()
                    c_spilled.inc(len(spilled))
                    reg.merge_state(state)
                    run_status.on_task_complete(
                        handle.wid,
                        completed.fanouts if completed is not None else (),
                        len(task_solutions),
                        [t.fanouts for t in spilled],
                    )
                    push_tasks(spilled)
                    absorb_events(fresh_events)
                    journal_append(
                        "complete",
                        task=(
                            completed.to_record() if completed is not None
                            else {"prefix": list(key), "fanouts": []}
                        ),
                        worker=handle.wid,
                        solutions=solutions_payload(task_solutions),
                        spilled=[t.to_record() for t in spilled],
                    )
                    for spath, status, text in task_solutions:
                        solutions.append(
                            Solution(value=(status, text), path=spath)
                        )
                    if _TRACER.enabled:
                        # Splice the worker's buffered segment in between
                        # its dispatch and its result event, so the merged
                        # stream stays causally ordered.
                        if segment:
                            c_trace_merged.inc(
                                _TRACER.ingest(segment, worker=handle.wid)
                            )
                        elif segment is None:
                            # The worker never collected: its events for
                            # this task are gone.  Count the loss.
                            c_trace_dropped.inc()
                        _TRACER.emit(
                            _events.PARALLEL_RESULT, worker=handle.wid,
                            solutions=len(task_solutions),
                            spilled=len(spilled),
                        )
                for slot in sup.slots:
                    handle = handles[slot.index]
                    if handle is None or not handle.busy:
                        continue  # failed or drained earlier this sweep
                    if not handle.ep.alive():
                        fail_worker(slot, handle, "crash",
                                    "worker process died")
                    elif (
                        self.task_timeout is not None
                        and now - handle.last_progress > self.task_timeout
                    ):
                        fail_worker(
                            slot, handle, "timeout",
                            f"no progress for {self.task_timeout:.1f}s",
                        )

                # Lease expiry is the *backstop* behind the stall
                # detector above (leases outlive the task timeout by
                # design): it fires when results were lost in flight or
                # a partitioned worker still looks alive.  The expired
                # fence is retired, the task requeued under a fresh one;
                # whatever the old holder eventually delivers settles
                # stale.
                for lease in leases.expired(now):
                    c_lease_expired.inc()
                    journal_append(
                        "expire", task=lease.task.to_record(),
                        fence=lease.fence, worker=lease.wid,
                        reason="lease expired",
                    )
                    if _TRACER.enabled:
                        _TRACER.emit(
                            _events.PARALLEL_LEASE_EXPIRED,
                            task=list(lease.key), fence=lease.fence,
                            worker=lease.wid,
                        )
                    holder = by_wid.get(lease.wid)
                    if holder is not None:
                        holder.pending = [
                            t for t in holder.pending
                            if not (t.key() == lease.key
                                    and t.fence == lease.fence)
                        ]
                    if (lease.key in completed_keys
                            or sup.is_poisoned(lease.key)):
                        continue
                    if lease.task.attempt >= self.max_task_retries:
                        c_dropped.inc()
                        journal_append("drop", task=lease.task.to_record())
                        if _TRACER.enabled:
                            _TRACER.emit(_events.PARALLEL_DROP, tasks=1)
                        continue
                    c_retries.inc()
                    frontier.push(lease.task.retried())

            if degraded:
                # Reclaim in-flight tasks, drop the dead pool, and
                # finish what remains on an in-process engine.  Every
                # live lease is drained with it: from here the
                # coordinator is the only executor, so any late remote
                # result is stale by construction.
                for slot in sup.slots:
                    handle = handles[slot.index]
                    if handle is not None and handle.pending:
                        frontier.extend(handle.pending)
                        handle.pending = []
                leases.drain()
                self._shutdown([h for h in handles if h is not None])
                handles = [None] * len(handles)
                by_wid.clear()
                steal_queue.clear()
                g_workers.set(0)
                c_degraded.inc()
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_DEGRADED,
                                 pending=len(frontier))
                journal_append("degraded", pending=len(frontier))
                run_degraded()

            # Normal completion: seal the journal.  Any exception path
            # (worker error, chaos kill) skips this, leaving the journal
            # resumable.
            if (
                stop_reason is None
                and self.max_solutions is not None
                and len(solutions) >= self.max_solutions
            ):
                stop_reason = "max_solutions"
            if stop_reason is None and poisoned:
                stop_reason = "tasks_poisoned"
            if stop_reason is None and c_dropped.value:
                stop_reason = "task_retries_exhausted"
            if self.max_solutions is not None:
                del solutions[self.max_solutions:]
            journal_append(
                "run_end", stop_reason=stop_reason,
                exhausted=stop_reason is None, solutions=len(solutions),
            )
        finally:
            self._shutdown([h for h in handles if h is not None])
            transport.close()
            # Worker ids stay unique across a coordinator's runs even
            # though each run builds a fresh transport.
            self._next_wid = transport._next_wid
            g_workers.set(0)
            if journal is not None:
                journal.close()
            # Seal the status on every exit path (exceptions included):
            # uncommitted heartbeat states are dropped, so from here the
            # status metrics mirror the engine registry.
            run_status.finalize(
                reg.state_dict(), pending=len(frontier),
                solutions=len(solutions), health=worker_health(),
                stop_reason=stop_reason, degraded=degraded,
            )
            if logger is not None:
                logger.stop()
            if server is not None:
                server.stop()

        stats.peak_frontier = max(stats.peak_frontier, frontier.peak)
        stats.extra.update({
            "workers": self.num_workers,
            "transport": self.transport_name,
            "strategy_order": self.strategy_name,
            "tasks_dispatched": c_tasks.value,
            "tasks_completed": c_done.value,
            "tasks_spilled": c_spilled.value,
            "tasks_retried": c_retries.value,
            "tasks_dropped": c_dropped.value,
            "tasks_poisoned": len(poisoned),
            "worker_crashes": c_crashes.value,
            "task_timeouts": c_timeouts.value,
            "respawns": c_respawns.value,
            "protocol_errors": c_proto.value,
            "degraded": bool(c_degraded.value),
            "min_workers": self.supervisor_policy.min_workers,
            "steals": c_steals.value,
            "leases_expired": c_lease_expired.value,
            "fenced_stale": c_fenced.value,
            "worker_joins": c_joins.value,
            "lease_timeout": lease_s,
            "peak_task_frontier": frontier.peak,
            "replay_steps": reg.counter("parallel.replay_steps").value,
            "guest_instructions": reg.counter("parallel.guest_steps").value,
            "trace_events_merged": c_trace_merged.value,
            "trace_dropped": c_trace_dropped.value,
            "trace_span": span,
            "snapshots_taken": reg.counter("snapshot.taken").value,
            "snapshots_restored": reg.counter("snapshot.restored").value,
            "frames_copied": reg.counter("mem.frames_copied").value,
        })
        if self.transport_name == "tcp":
            stats.extra["transport_stats"] = dict(transport.stats)
        if nlog is not None:
            stats.extra.update({
                "replay_mode": self.replay_mode,
                "nondet_events": len(nlog),
                "nondet_conflicts": nlog.conflicts,
            })
        if self.journal_path is not None:
            stats.extra.update({
                "journal": self.journal_path,
                "journal_records": reg.counter("journal.records").value,
                "journal_fsyncs": reg.counter("journal.fsyncs").value,
                "resumed": recovered is not None,
                "resume_pending": len(recovered.pending) if recovered else 0,
                "resume_solutions": (
                    len(recovered.solutions) if recovered else 0
                ),
                "journal_skipped": recovered.skipped if recovered else 0,
                "journal_torn": recovered.torn if recovered else 0,
                "resume_spills_filtered": c_resume_filtered.value,
            })
        if poisoned:
            stats.extra["poisoned_tasks"] = [
                {"task": task.to_record(), "evidence": evidence}
                for task, evidence in poisoned
            ]
        if track_status:
            stats.extra["heartbeats"] = c_heartbeats.value
            if server is not None:
                stats.extra["status_url"] = server.url
            if self.status_log is not None:
                stats.extra["status_log"] = self.status_log
            if flight is not None:
                stats.extra["flight_dumps"] = list(flight.dumps)
        # Re-seal after the peak_frontier gauge write above, so the
        # status metrics equal the registry's true final state exactly.
        run_status.finalize(
            reg.state_dict(), pending=len(frontier),
            solutions=len(solutions), health=worker_health(),
            stop_reason=stop_reason, degraded=degraded,
        )
        return SearchResult(
            solutions=solutions,
            stats=stats,
            strategy=self.strategy_name,
            exhausted=stop_reason is None,
            stop_reason=stop_reason,
        )

    # ------------------------------------------------------------------

    def _shutdown(self, handles: list[_WorkerHandle],
                  grace: float = 2.0) -> None:
        """Stop every worker; escalate poison -> terminate -> kill.

        Idle workers get the poison pill; busy ones are terminated at
        once (their tasks are lost by construction).  Each escalation
        stage shares one deadline across the pool, so shutdown latency
        is bounded by ~2 * grace however many workers are stuck, and
        the final blocking ``join`` after SIGKILL guarantees every
        local child is reaped — no zombies survive this call.
        External (joined) TCP workers have no local process: poisoning
        them asks them to exit and closing the endpoint severs the
        connection, which is all a remote peer can be given.
        """
        for handle in handles:
            if handle.ep.alive() and not handle.busy:
                handle.ep.poison()
            else:
                # No trusted connection (or mid-task): go straight to
                # the signal.  terminate() checks the local process
                # itself — endpoint-level trust is irrelevant here, a
                # distrusted-but-running worker must still be stopped.
                handle.ep.terminate()
        deadline = time.monotonic() + grace
        for handle in handles:
            handle.ep.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles:
            handle.ep.terminate()
        deadline = time.monotonic() + grace
        for handle in handles:
            handle.ep.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles:
            handle.ep.kill_hard()
        for handle in handles:
            # SIGKILL cannot be caught: this join terminates, and it is
            # what actually reaps the local child (no zombie left
            # behind).  Endpoint close severs any remaining connection.
            handle.ep.join()
            handle.ep.close()
