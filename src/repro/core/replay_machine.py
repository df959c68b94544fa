"""Replay-based exploration of machine guests (the no-snapshot baseline).

This engine runs the *same assembly guests* as :class:`MachineEngine`
but without snapshots: a partial candidate is a decision prefix, and
evaluating an extension re-executes the guest binary from its entry
point, feeding recorded guess outcomes until the new territory begins.

It exists as the baseline the snapshot engine is measured against in
E3/E6: replay cost grows with (work per level x depth), which is exactly
the re-execution overhead lightweight snapshots eliminate.  Semantics
are identical — the engines must produce the same solution sets.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.recorder import NondetLog, recorder_for
from repro.core.result import SearchResult, SearchStats, Solution
from repro.core.stepper import ExtensionStepper, Pending
from repro.cpu.assembler import Program, assemble
from repro.interpose.policy import InterpositionPolicy
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.mem.frames import FramePool
from repro.search import PrefixTask, Strategy, get_strategy
from repro.vmm.vcpu import VCpu


class ReplayMachineEngine:
    """Machine-guest exploration by deterministic re-execution."""

    def __init__(
        self,
        strategy: Union[str, Strategy] = "dfs",
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_path: int = 5_000_000,
        max_evaluations: Optional[int] = None,
        max_solutions: Optional[int] = None,
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        input=None,
    ):
        if not isinstance(strategy, Strategy):
            strategy = get_strategy(strategy)
        self.recorder = recorder_for(replay_mode, replay_log)
        self.libos = LibOS(policy=policy, hostfs=hostfs, input=input)
        self.libos.dispatcher.nondet = self.recorder
        self.max_steps_per_path = max_steps_per_path
        self.max_evaluations = max_evaluations
        self.max_solutions = max_solutions
        self.pool = FramePool()
        self.vcpu = VCpu()
        # Every fresh guess spills, so no snapshot is ever taken: a
        # candidate is its decision prefix, and evaluating an extension
        # replays that prefix from the program entry.
        self._stepper = ExtensionStepper(
            self.libos, self.vcpu, self.pool, strategy, max_steps_per_path,
            spill=self._spill,
        )

    def run(self, guest: Union[str, Program]) -> SearchResult:
        program = assemble(guest) if isinstance(guest, str) else guest
        stats = SearchStats()
        solutions: list[Solution] = []
        stop_reason: Optional[str] = None
        stepper = self._stepper
        stepper.stats = stats
        stepper.solutions = solutions

        stepper.step(stepper.boot(program))
        while True:
            if self.max_solutions is not None and len(solutions) >= self.max_solutions:
                stop_reason = "max_solutions"
                break
            if (
                self.max_evaluations is not None
                and stats.evaluations >= self.max_evaluations
            ):
                stop_reason = "max_evaluations"
                break
            ext = stepper.strategy.next()
            if ext is None:
                break
            task: PrefixTask = ext.candidate
            stepper.step(stepper.boot(program, task.prefix + (ext.number,),
                                      task.fanouts))
        result = stepper.result(stop_reason)
        stats.extra["guest_instructions"] = self.vcpu.vmcs.guest_instructions
        stats.extra["vm_exits"] = self.vcpu.vmcs.exits
        if self.recorder is not None:
            stats.extra["nondet_recorded"] = self.recorder.recorded
            stats.extra["nondet_replayed"] = self.recorder.replayed
        return result

    def _spill(self, pending: Pending, n: int,
               hints: Optional[tuple[float, ...]]) -> bool:
        """Queue a fresh choice point's extensions; their candidate is the
        decision prefix alone, with no snapshot (its ``fanouts`` end with
        the choice point's own fan-out)."""
        self._stepper.fan_out(
            PrefixTask(pending.path, pending.fanouts + (n,)),
            len(pending.path), n, hints,
        )
        return True
