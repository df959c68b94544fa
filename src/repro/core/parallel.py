"""Parallel extension evaluation (the multi-vCPU half of Figure 2).

Figure 2 draws one "extension eval" box per CPU core: "the libOS runs as
a single multi-threaded process, with the number of threads typically
corresponding to the number of hardware threads", each thread evaluating
a different candidate extension.  §3 also contrasts sequential DFS with
"a parallel depth-first-search strategy [that] might simply fork without
waiting".

This engine simulates that: *k* logical workers each own an extension
stepper over a vCPU and an in-flight extension; the scheduler round-robin
time-slices them (a quantum of guest instructions per turn), so many
extension evaluations are live simultaneously over the same snapshot
tree.  Because the simulator is single-threaded Python, this is
concurrency rather than parallelism — but it exercises precisely the
property that makes the design parallel-safe:
**in-flight executions forked from the same snapshot share pages and
never observe each other's writes**.  Worker-occupancy statistics show
the available speedup on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.result import SearchResult, SearchStats, Solution
from repro.core.stepper import ExtensionStepper, Pending
from repro.cpu.assembler import Program, assemble
from repro.interpose.policy import InterpositionPolicy
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.mem.frames import FramePool
from repro.obs import events as _events
from repro.obs.registry import MetricsRegistry, record_into
from repro.obs.trace import TRACER as _TRACER
from repro.search import Strategy, get_strategy
from repro.snapshot.snapshot import SnapshotManager
from repro.snapshot.tree import SnapshotTree
from repro.vmm.vcpu import VCpu


@dataclass
class _Worker:
    """One logical core: a stepper over a vCPU plus its in-flight extension."""

    stepper: ExtensionStepper
    pending: Optional[Pending] = None
    busy_turns: int = 0
    idle_turns: int = 0

    @property
    def busy(self) -> bool:
        return self.pending is not None


class ParallelMachineEngine:
    """Round-robin multi-worker exploration over shared snapshots.

    Parameters
    ----------
    workers:
        Number of logical cores (Figure 2 draws four).
    quantum:
        Guest instructions per scheduling turn per worker.
    strategy:
        Which extension a freed worker picks up next.  With DFS this is
        the paper's parallel-DFS; BFS gives frontier-parallel search.
    """

    def __init__(
        self,
        workers: int = 4,
        quantum: int = 500,
        strategy: Union[str, Strategy] = "dfs",
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_extension: int = 5_000_000,
        max_solutions: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if not isinstance(strategy, Strategy):
            strategy = get_strategy(strategy)
        self.quantum = quantum
        self.libos = LibOS(policy=policy, hostfs=hostfs)
        self.pool = FramePool()
        self.registry = MetricsRegistry("parallel-engine")
        self.manager = SnapshotManager(self.pool)
        self.tree = SnapshotTree(self.manager)
        self.max_steps_per_extension = max_steps_per_extension
        self.max_solutions = max_solutions
        self.workers = [
            _Worker(ExtensionStepper(
                self.libos, VCpu(cpu_id=i), self.pool,
                strategy, max_steps_per_extension, manager=self.manager,
                tree=self.tree, quantum=quantum, tags={"worker": i},
            ))
            for i in range(workers)
        ]
        #: Peak number of simultaneously busy workers (occupancy proof).
        self.peak_busy = 0

    # ------------------------------------------------------------------

    def run(self, guest: Union[str, Program]) -> SearchResult:
        program = assemble(guest) if isinstance(guest, str) else guest
        stats = SearchStats()
        solutions: list[Solution] = []
        stop_reason: Optional[str] = None
        for worker in self.workers:
            worker.stepper.stats = stats
            worker.stepper.solutions = solutions
        boot = self.workers[0]
        boot.pending = boot.stepper.boot(program)

        while True:
            if (
                self.max_solutions is not None
                and len(solutions) >= self.max_solutions
            ):
                stop_reason = "max_solutions"
                break

            # Refill idle workers from the strategy frontier.  Only the
            # boot path can switch strategies (no switch once a candidate
            # exists), so every worker adopts the boot stepper's.
            strategy = boot.stepper.strategy
            for worker in self.workers:
                if worker.busy:
                    continue
                ext = strategy.next()
                if ext is None:
                    break
                worker.stepper.strategy = strategy
                worker.pending = worker.stepper.resume(ext)
                if _TRACER.enabled:
                    _TRACER.emit(
                        _events.PARALLEL_SCHEDULE,
                        worker=worker.stepper.vcpu.cpu_id,
                        ext=ext.number,
                        depth=len(ext.candidate.path),
                    )

            busy = [w for w in self.workers if w.busy]
            self.peak_busy = max(self.peak_busy, len(busy))
            if not busy:
                break
            for worker in self.workers:
                if worker.busy:
                    worker.busy_turns += 1
                else:
                    worker.idle_turns += 1

            for worker in busy:
                self._turn(worker)

        for worker in self.workers:
            if worker.busy:
                worker.stepper.retire(worker.pending)
                worker.pending = None
        result = boot.stepper.result(stop_reason)
        stats.extra.update(self._parallel_stats())
        record_into(self.registry, "snapshot", self.manager.stats)
        record_into(self.registry, "search", stats)
        return result

    # ------------------------------------------------------------------

    def _turn(self, worker: _Worker) -> None:
        """Run one quantum on *worker*, handling at most one VM exit."""
        pending = worker.pending
        outcome = worker.stepper.step(pending, once=True)
        if outcome == "preempt":
            # End of timeslice, not a runaway guest: the extension stays
            # in flight and resumes on the worker's next turn.
            if _TRACER.enabled:
                _TRACER.emit(
                    _events.PARALLEL_PREEMPT,
                    worker=worker.stepper.vcpu.cpu_id,
                    steps=pending.steps_used,
                )
        elif outcome is not None:
            worker.pending = None

    def _parallel_stats(self) -> dict:
        total_busy = sum(w.busy_turns for w in self.workers)
        total_turns = sum(w.busy_turns + w.idle_turns for w in self.workers)
        return {
            "workers": len(self.workers),
            "peak_busy_workers": self.peak_busy,
            "occupancy": total_busy / total_turns if total_turns else 0.0,
            "guest_instructions": sum(
                w.stepper.vcpu.vmcs.guest_instructions for w in self.workers
            ),
            "vm_exits": sum(w.stepper.vcpu.vmcs.exits for w in self.workers),
            "snapshots_taken": self.manager.stats.taken,
            "snapshots_peak_live": self.manager.stats.peak_live,
            "frames_peak": self.pool.peak_live_frames,
        }
