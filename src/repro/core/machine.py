"""The machine engine: faithful system-level backtracking.

This is the reproduction of the paper's headline design.  Guests are
machine-code programs running behind the full Figure 2 stack:

* ``sys_guess`` takes a **lightweight immutable snapshot** (registers +
  COW address space + COW file table + console position) and fans out
  *n* candidate extension steps;
* the **search strategy** schedules which extension runs next; running
  one restores the snapshot in O(1) and sets the extension number in
  ``%rax`` exactly as §4 describes;
* ``sys_guess_fail`` discards the executing extension;
* ``exit`` (or ``hlt``) completes a path: the engine records the solution
  and keeps exploring, so a guest that simply terminates after printing
  its answer enumerates all answers — no bookkeeping in the guest.

Unlike the replay engine, restoring a candidate does **zero** guest
re-execution: the address space *is* the state.

The guess/fail/exit/kill loop itself is the shared
:class:`~repro.core.stepper.ExtensionStepper`; this engine adds the
global budgets and the transcript.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.recorder import NondetLog, recorder_for
from repro.core.result import SearchResult, SearchStats, Solution
from repro.core.stepper import ExtensionStepper
from repro.cpu.assembler import Program, assemble
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.interpose.policy import InterpositionPolicy
from repro.mem.frames import FramePool
from repro.obs.registry import MetricsRegistry, record_into
from repro.search import Strategy, get_strategy
from repro.snapshot.snapshot import SnapshotManager
from repro.vmm.vcpu import VCpu


class MachineEngine:
    """Explore an assembly guest's search space with real snapshots.

    Parameters
    ----------
    strategy:
        Strategy registry name or instance (guests may override it with
        ``sys_guess_strategy`` before their first guess).
    policy / hostfs:
        Interposition policy and backing files, passed to the libOS.
    max_steps_per_extension:
        Instruction budget for a single extension step (runaway guard).
    max_evaluations / max_solutions / max_total_steps:
        Optional global exploration budgets.
    verify:
        Static-analysis gate run on each guest before execution:
        ``"off"`` (default, pre-verifier behaviour), ``"warn"``
        (analyze, warn on findings, run anyway) or ``"strict"``
        (refuse programs with error-severity findings or without the
        determinism certificate — unless record/replay covers the
        nondeterminism, see ``replay_mode``).
    replay_mode:
        ``"off"`` (default), ``"record"`` (record nondeterministic
        syscall outcomes on first execution, replay recorded ones) or
        ``"strict"`` (replay only; missing events raise
        :class:`~repro.core.errors.ReplayDivergenceError`).
    replay_log:
        A :class:`~repro.core.recorder.NondetLog` of previously recorded
        events to replay from (and, in record mode, add to).
    input:
        Scripted stdin for guests that read fd 0 (passed to the libOS).
    """

    def __init__(
        self,
        strategy: Union[str, Strategy] = "dfs",
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_extension: int = 5_000_000,
        max_evaluations: Optional[int] = None,
        max_solutions: Optional[int] = None,
        max_total_steps: Optional[int] = None,
        snapshot_mode: str = "cow",
        verify: str = "off",
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        input=None,
    ):
        if verify not in ("off", "warn", "strict"):
            raise ValueError(
                f"verify must be 'off', 'warn' or 'strict', got {verify!r}"
            )
        self.verify = verify
        self.recorder = recorder_for(replay_mode, replay_log)
        self.replay_mode = (
            self.recorder.mode if self.recorder is not None else "off"
        )
        #: Analysis report of the last verified guest (None under "off").
        self.last_report = None
        if strategy == "coverage":
            # S2E-style coverage-optimized exploration: prefer extensions
            # whose (guess site, branch number) has not been taken yet.
            from repro.search import CoverageStrategy

            strategy = CoverageStrategy(
                coverage_key=lambda ext: (ext.candidate.regs.rip, ext.number)
            )
        elif not isinstance(strategy, Strategy):
            strategy = get_strategy(strategy)
        self.libos = LibOS(policy=policy, hostfs=hostfs, input=input)
        self.libos.dispatcher.nondet = self.recorder
        self.max_steps_per_extension = max_steps_per_extension
        self.max_evaluations = max_evaluations
        self.max_solutions = max_solutions
        self.max_total_steps = max_total_steps
        self.pool = FramePool()
        #: The snapshot lifecycle and search counters of the last run,
        #: copied in when it ends, so one ``as_dict()`` captures it.
        self.registry = MetricsRegistry("machine-engine")
        if snapshot_mode == "cow":
            self.manager = SnapshotManager(self.pool)
        elif snapshot_mode == "eager":
            # The §3 naive-fork baseline: full copies per take/restore.
            from repro.baselines.eager import EagerSnapshotManager

            self.manager = EagerSnapshotManager(self.pool)
        elif snapshot_mode == "dirty-eager":
            # DESIGN.md §5 ablation: pre-copy the dirty working set at
            # take time instead of faulting per page afterwards.
            from repro.baselines.dirty import DirtyEagerSnapshotManager

            self.manager = DirtyEagerSnapshotManager(self.pool)
        else:
            raise ValueError(f"unknown snapshot_mode {snapshot_mode!r}")
        self.snapshot_mode = snapshot_mode
        self.vcpu = VCpu()
        #: Console output of every failed path that printed, in finish
        #: order.  This is the "stdout transcript": Figure 1's
        #: print-then-fail pattern lands here even though failed paths
        #: produce no Solution.
        self.transcript: list[str] = []
        self.stepper = ExtensionStepper(
            self.libos, self.vcpu, self.pool, strategy,
            max_steps_per_extension, manager=self.manager,
            transcript=self.transcript, kill_reasons=True,
        )

    #: When False, guest ``sys_guess_strategy`` calls are acknowledged
    #: but ignored — used by externally-controlled sessions, where the
    #: external entity owns scheduling (§3.1).
    allow_guest_strategy: bool = True

    # ------------------------------------------------------------------

    def run(self, guest: Union[str, Program]) -> SearchResult:
        """Assemble (if needed), load, and explore *guest* exhaustively."""
        program = assemble(guest) if isinstance(guest, str) else guest
        if self.verify != "off":
            from repro.analysis.verifier import verify_program

            self.last_report = verify_program(
                program, self.verify, replay_mode=self.replay_mode
            )
        stats = SearchStats()
        solutions: list[Solution] = []
        stop_reason: Optional[str] = None
        stepper = self.stepper
        stepper.stats = stats
        stepper.solutions = solutions
        self.transcript = stepper.transcript = []
        stepper.allow_guest_strategy = self.allow_guest_strategy

        stepper.step(stepper.boot(program))
        while True:
            if (
                self.max_solutions is not None
                and len(solutions) >= self.max_solutions
            ):
                stop_reason = "max_solutions"
                break
            if (
                self.max_evaluations is not None
                and stats.evaluations >= self.max_evaluations
            ):
                stop_reason = "max_evaluations"
                break
            if (
                self.max_total_steps is not None
                and self.vcpu.vmcs.guest_instructions >= self.max_total_steps
            ):
                stop_reason = "max_total_steps"
                break
            ext = stepper.strategy.next()
            if ext is None:
                break
            stepper.step(stepper.resume(ext))

        result = stepper.result(stop_reason)
        stats.extra.update(self._machine_stats())
        record_into(self.registry, "snapshot", self.manager.stats)
        record_into(self.registry, "search", stats)
        return result

    def _machine_stats(self) -> dict:
        """Cost counters from every layer, for benches and EXPERIMENTS.md."""
        vmcs = self.vcpu.vmcs
        replay = (
            {
                "nondet_recorded": self.recorder.recorded,
                "nondet_replayed": self.recorder.replayed,
            }
            if self.recorder is not None
            else {}
        )
        return {
            **replay,
            "vm_exits": vmcs.exits,
            "vm_exit_counts": {
                reason.value: count for reason, count in vmcs.exit_counts.items()
            },
            "guest_instructions": vmcs.guest_instructions,
            "snapshots_taken": self.manager.stats.taken,
            "snapshots_restored": self.manager.stats.restored,
            "snapshots_peak_live": self.manager.stats.peak_live,
            "frames_live": self.pool.live_frames,
            "frames_peak": self.pool.peak_live_frames,
            "frames_copied": self.pool.stats.copied,
            "file_stats": self.libos.file_stats.as_dict(),
            "syscall_counts": dict(self.libos.dispatcher.counts),
        }

    # ------------------------------------------------------------------

    @property
    def strategy_name(self) -> str:
        return self.stepper.strategy.name

    def failed_output(self) -> list[str]:
        """Output of failed paths (Figure 1's print-then-fail boards)."""
        return list(self.transcript)
