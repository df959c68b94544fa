"""The extension stepper: every engine's loop from a restore to a boundary.

The paper's mechanism is one protocol, and this module is its only
implementation.  An extension step enters the guest, lets the libOS turn
each VM exit into an action, and dispatches it:

* ``sys_guess(n)`` takes a snapshot (chained to the snapshot the path was
  restored from while that one is still alive).  The snapshot is the
  partial candidate: it records the path, the fan-outs and the console,
  is pinned once per extension, and each of the *n* extensions the
  search strategy receives is that snapshot plus an extension number.
  A restored extension borrows its snapshot's file table and console
  until a syscall first changes them (:class:`ExecState`).
  A zero fan-out is a dead end, like ``sys_guess_fail``.
* ``sys_guess_fail`` and ``exit`` end the path; a libOS kill (fault,
  exhausted step budget) ends it too.  Every ended path frees its state
  and unpins its parent snapshot, and the snapshots of extensions the
  strategy drops -- to bound its frontier, or because a budget cut the
  run short -- are unpinned too.

A path can also start from the program entry instead of a snapshot and
replay a decision prefix first -- the record/replay lever of user-space
replay systems.  Its first guesses are answered from the prefix after
their fan-outs are checked; a mismatch, or a path that ends before the
prefix is used up, raises :class:`ReplayDivergenceError` with the static
analyzer's verdict on the offending site.

Engines differ only in what they plug in (see :class:`ExtensionStepper`):
the sequential engine adds global budgets and a transcript, the parallel
engine runs one stepper per vCPU a quantum at a time, cluster workers
replay task prefixes and spill choice points past their budgets, and the
replay engine spills every fresh guess so that no snapshot is ever taken
(its partial candidates are :class:`~repro.search.shard.PrefixTask`
records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import GuessError, ReplayDivergenceError
from repro.core.result import SearchResult, SearchStats, Solution
from repro.cpu.assembler import Program
from repro.libos.libos import STEP_BUDGET_EXHAUSTED, ExecState, LibOS
from repro.libos.syscalls import (
    ContinueAction,
    ExitAction,
    GuessAction,
    GuessFailAction,
    KillAction,
    StrategyAction,
)
from repro.mem.frames import FramePool
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER
from repro.search import Extension, Strategy, get_strategy
from repro.snapshot.snapshot import Snapshot, SnapshotManager
from repro.snapshot.tree import SnapshotTree
from repro.vmm.vcpu import VCpu, VmExitReason

_STEP_LIMIT = VmExitReason.STEP_LIMIT


@dataclass(slots=True, eq=False)
class Pending:
    """The extension step currently executing.

    While ``replay_pos < replay_end`` the step is still replaying its
    decision prefix (``path``, checked against ``fanouts``).
    """

    state: ExecState
    path: tuple[int, ...]
    fanouts: tuple[int, ...]
    parent: Optional[Snapshot]
    replay_end: int
    steps_used: int = 0
    #: Guest instructions of ``steps_used`` spent replaying the prefix
    #: (the profiler charges them as rehydration overhead).
    replay_steps: int = 0
    replay_pos: int = 0


class ExtensionStepper:
    """Runs the extension steps of one search to their boundaries.

    The driving engine picks the variation points:

    quantum:
        Time slicing: each VM entry runs at most this many instructions,
        a step-limit exit below ``max_steps`` is a preemption, not a
        kill, and :meth:`step` returns after every VM exit.  ``None``
        lets an entry run to the end of the budget and a step run to
        its boundary.
    allow_guest_strategy:
        Whether ``sys_guess_strategy`` may replace :attr:`strategy`
        (only before the first candidate exists); otherwise it is
        acknowledged and ignored.
    spill:
        Called at every fresh (non-replayed) guess with a non-zero
        fan-out.  Returning True means the hook took the choice point as
        prefix tasks of its own, so no snapshot is taken.  Engines with a
        spill hook rehydrate paths by replay, so their trace events split
        ``steps`` into fresh steps and ``replay_steps``.
    nondet_sites:
        ``(pc, lint_id)`` sites the analyzer flagged, cited by
        divergence errors; ``None`` when no analysis ran.
    tags:
        Extra fields for every ``search.*`` trace event.
    transcript:
        A list that receives the output of every failed path that
        printed, decoded as text.
    kill_reasons:
        Record each kill's reason in ``stats.extra["kill_reasons"]`` and
        in its trace event.

    The driver points :attr:`stats` and :attr:`solutions` at its run's.
    """

    def __init__(
        self,
        libos: LibOS,
        vcpu: VCpu,
        pool: FramePool,
        strategy: Strategy,
        max_steps: int,
        *,
        manager: Optional[SnapshotManager] = None,
        quantum: Optional[int] = None,
        allow_guest_strategy: bool = True,
        spill: Optional[Callable[[Pending, int, Optional[tuple]],
                                 bool]] = None,
        nondet_sites: Optional[tuple[tuple[int, str], ...]] = None,
        tags: Optional[dict] = None,
        transcript: Optional[list[str]] = None,
        kill_reasons: bool = False,
    ):
        self.libos = libos
        self.vcpu = vcpu
        self.pool = pool
        self.strategy = strategy
        self.max_steps = max_steps
        self.manager = manager
        #: Pins and prunes the manager's snapshots (it keeps no state).
        self.tree = SnapshotTree(manager)
        self.quantum = quantum
        self.allow_guest_strategy = allow_guest_strategy
        self.spill = spill
        self.nondet_sites = nondet_sites
        self.tags = tags or {}
        self.transcript = transcript
        self.kill_reasons = kill_reasons
        #: The record/replay recorder attached to the libOS, if any:
        #: every path start opens its segment.
        self.recorder = libos.dispatcher.nondet
        self.stats = SearchStats()
        self.solutions: list[Solution] = []

    # -- starting a path -----------------------------------------------

    def boot(self, program: Program, prefix: tuple[int, ...] = (),
             fanouts: tuple[int, ...] = ()) -> Pending:
        """Load *program* afresh; its first guesses replay *prefix*."""
        state, regs = self.libos.load(program, self.pool)
        self.vcpu.regs.load(regs.frozen())
        if self.recorder is not None:
            # Execution restarts at the root segment; nondet events
            # recorded along the prefix replay under their original keys.
            self.recorder.begin_segment(())
        self.stats.evaluations += 1
        return Pending(state, prefix, fanouts, None, len(prefix))

    def resume(self, ext: Extension) -> Pending:
        """Restore *ext*'s snapshot and prime ``%rax`` with its number."""
        snap: Snapshot = ext.candidate
        regs, space, files = self.manager.restore(snap)
        vregs = self.vcpu.regs
        vregs.load(regs)
        vregs.rax = ext.number
        path = snap.path + (ext.number,)
        if self.recorder is not None:
            self.recorder.begin_segment(path)
        self.stats.evaluations += 1
        # The step borrows the snapshot's file table and console until a
        # syscall first changes them; the lend is charged as a fork.
        state = ExecState(space, files.lend(), snap.console, lent=True)
        return Pending(state, path, snap.fanouts, snap, 0)

    # -- the loop ------------------------------------------------------

    def step(self, p: Pending) -> Optional[str]:
        """Run *p* to its next boundary and say what it was.

        ``"guess"``, ``"spill"``, ``"exit"``, ``"fail"`` and ``"kill"``
        end the step (its state is freed).  A stepper with a quantum
        returns after a single VM exit instead: ``None`` while *p* is
        still in flight, ``"preempt"`` when the quantum ran out.
        """
        vcpu = self.vcpu
        libos = self.libos
        state = p.state
        limit = self.max_steps
        quantum = self.quantum
        replaying = p.replay_pos < p.replay_end
        vcpu.attach(state.space)
        while True:
            exit_event = vcpu.enter(
                max_steps=max(limit - p.steps_used, 1) if quantum is None
                else quantum
            )
            steps = exit_event.steps
            p.steps_used += steps
            if replaying:
                p.replay_steps += steps
            if (quantum is not None and p.steps_used < limit
                    and exit_event.reason is _STEP_LIMIT):
                return "preempt"
            action = libos.handle_exit(exit_event, vcpu, state)
            kind = type(action)
            if kind is GuessAction:
                if not replaying:
                    return self._guess(p, action)
                replaying = self._replay(p, action.n)
            elif kind is StrategyAction:
                self._select_strategy(action.name)
            elif kind is not ContinueAction or p.steps_used >= limit:
                # The path ended: by the guest, by the libOS, or by its
                # budget running out on a syscall the libOS completed.
                if replaying:
                    raise self._divergence(
                        p, "path ended during replay of a prefix of "
                        f"length {p.replay_end}"
                    )
                if kind is GuessFailAction:
                    return self._fail(p)
                if kind is ExitAction:
                    return self._exit(p, action.status)
                return self._kill(
                    p, action.reason if kind is KillAction
                    else STEP_BUDGET_EXHAUSTED
                )
            if quantum is not None:
                return None

    def result(self, stop_reason: Optional[str]) -> SearchResult:
        """Close the run: drain the frontier and report what was found.

        A run cut short by a budget drops the extensions still queued;
        each one releases its pin, so the snapshots it kept alive die.
        """
        strategy = self.strategy
        self._release(strategy.drain())
        self.stats.peak_frontier = strategy.stats.peak_frontier
        return SearchResult(
            solutions=self.solutions,
            stats=self.stats,
            strategy=strategy.name,
            exhausted=stop_reason is None,
            stop_reason=stop_reason,
        )

    def retire(self, p: Pending) -> None:
        """Free *p*'s state and release its pin on its parent snapshot."""
        p.state.free()
        if p.parent is not None:
            self.tree.unpin(p.parent)

    def verdict(self, pc: int) -> Optional[str]:
        """The static analyzer's take on a replay divergence at *pc*."""
        sites = self.nondet_sites
        if sites is None:
            return None  # no analysis ran
        for site_pc, lint_id in sites:
            if site_pc == pc:
                return (
                    f"{lint_id} flagged this syscall site as "
                    "nondeterministic at analysis time"
                )
        if sites:
            listed = ", ".join(f"{lid}@{spc:#x}" for spc, lid in sites[:4])
            return f"program was not certified deterministic ({listed})"
        return (
            "program was certified deterministic — divergence indicates "
            "an engine or snapshot bug, not guest nondeterminism"
        )

    # -- boundaries ----------------------------------------------------

    def _guess(self, p: Pending, action: GuessAction) -> str:
        """Take a snapshot at the guess point and fan out extensions."""
        n = action.n
        hints = action.hints
        if hints is not None and len(hints) != n:
            raise GuessError("hint vector length does not match fan-out")
        if n == 0:
            # A zero-fanout guess is a dead end, exactly like sys_guess_fail.
            return self._fail(p)
        if self.spill is not None and self.spill(p, n, hints):
            if _TRACER.enabled:
                self._emit(_events.SEARCH_SPILL, p, n=n)
            self.retire(p)
            return "spill"
        state = p.state
        parent = p.parent
        snap = self.manager.take(
            state.space,
            regs=self.vcpu.regs.frozen(),
            files=state.files,
            parent=parent if parent is not None and parent.alive else None,
            path=p.path,
            fanouts=p.fanouts + (n,),
            # As it is: a console holds no frames, and the state is
            # abandoned after the take.
            console=state.console,
        )
        self.tree.pin(snap, n)
        if _TRACER.enabled:
            self._emit(_events.SEARCH_GUESS, p, n=n, sid=snap.sid)
        self.fan_out(snap, len(p.path), n, hints)
        # The pre-guess execution is abandoned; the strategy decides
        # which extension (not necessarily one of these) runs next.
        self.retire(p)
        return "guess"

    def fan_out(self, cand: object, depth: int, n: int,
                hints: Optional[tuple[float, ...]]) -> None:
        """Count the partial candidate *cand*, reached by *depth*
        guesses, and queue its *n* extensions with the strategy, which
        may drop some (these or older ones) to bound its frontier."""
        self.stats.candidates += 1
        dropped = self.strategy.add(
            Extension(
                cand,
                number=i,
                hint=hints[i] if hints is not None else None,
                depth=depth,
            )
            for i in range(n)
        )
        if dropped:
            self._release(dropped)

    def _release(self, dropped: list[Extension]) -> None:
        """Unpin the snapshots of extensions the strategy dropped, so the
        snapshots only they kept alive die."""
        if self.manager is not None:
            for ext in dropped:
                self.tree.unpin(ext.candidate)

    def _replay(self, p: Pending, n: int) -> bool:
        """Answer a guess from *p*'s prefix; True while replay goes on."""
        pos = p.replay_pos
        expected = p.fanouts[pos]
        if n != expected:
            raise self._divergence(
                p, f"replayed guess had fan-out {expected}, now {n}",
                expected=expected, actual=n,
            )
        self.vcpu.regs.rax = p.path[pos]
        pos += 1
        p.replay_pos = pos
        self.stats.replayed_decisions += 1
        if self.recorder is not None:
            self.recorder.begin_segment(p.path[:pos])
        return pos < p.replay_end

    def _divergence(self, p: Pending, what: str,
                    **detail) -> ReplayDivergenceError:
        pc = self.vcpu.regs.rip - 1  # rip already points past the SYSCALL
        return ReplayDivergenceError(
            f"nondeterministic guest: {what}",
            prefix=p.path,
            position=p.replay_pos,
            pc=pc,
            verdict=self.verdict(pc),
            **detail,
        )

    def _fail(self, p: Pending) -> str:
        self.stats.fails += 1
        if _TRACER.enabled:
            self._emit(_events.SEARCH_FAIL, p)
        console = p.state.console
        if self.transcript is not None and len(console):
            self.transcript.append(console.text)
        self.retire(p)
        return "fail"

    def _exit(self, p: Pending, status: int) -> str:
        self.stats.completions += 1
        if _TRACER.enabled:
            self._emit(_events.SEARCH_SOLUTION, p)
        self.solutions.append(
            Solution(value=(status, p.state.console.text), path=p.path)
        )
        self.retire(p)
        return "exit"

    def _kill(self, p: Pending, reason: str) -> str:
        self.stats.kills += 1
        if self.kill_reasons:
            self.stats.extra.setdefault("kill_reasons", []).append(reason)
            if _TRACER.enabled:
                self._emit(_events.SEARCH_KILL, p, reason=reason)
        elif _TRACER.enabled:
            self._emit(_events.SEARCH_KILL, p)
        self.retire(p)
        return "kill"

    def _select_strategy(self, name: str) -> None:
        if not self.allow_guest_strategy or name == self.strategy.name:
            return
        if self.stats.candidates:
            # The queued extensions would be stranded in the old strategy.
            raise GuessError(
                f"cannot switch strategy to {name!r} after the first guess"
            )
        self.strategy = get_strategy(name)

    def _emit(self, etype: str, p: Pending, **fields) -> None:
        if self.spill is not None:
            fields["steps"] = p.steps_used - p.replay_steps
            fields["replay_steps"] = p.replay_steps
        else:
            fields["steps"] = p.steps_used
        _TRACER.emit(etype, depth=len(p.path), path=list(p.path),
                     **fields, **self.tags)
