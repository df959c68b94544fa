"""The libOS facade: guest lifecycle and VM-exit handling.

One :class:`LibOS` instance manages one guest program's executions.  It
owns the loader, the syscall dispatcher and the interposition policy; the
engine (:mod:`repro.core.machine`) owns the snapshot manager and the
search strategy and consumes the typed actions produced here.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.assembler import Program
from repro.cpu.registers import RegisterFile
from repro.interpose.policy import (
    AuditLog,
    InterpositionPolicy,
    SoundMinimalPolicy,
)
from repro.libos.console import Console
from repro.libos.files import FileStats, FileTable, HostFS
from repro.libos.loader import load_program
from repro.libos.syscalls import (
    Action,
    ContinueAction,
    ExitAction,
    KillAction,
    SyscallDispatcher,
)
from repro.mem.addrspace import AddressSpace
from repro.mem.frames import FramePool
from repro.vmm.vcpu import VCpu, VmExit, VmExitReason

#: Kill reason of an extension that ran out of its instruction budget.
STEP_BUDGET_EXHAUSTED = "extension step budget exhausted"


class ExecState:
    """The mutable state of one executing extension step.

    The address space is the step's own (a fork is a header until its
    first change, see :meth:`AddressSpace.fork_cow`).  The file table and
    the console are either owned or *lent*: a step resumed from a
    snapshot reads the snapshot's own until a syscall first changes one,
    and :meth:`own_files` / :meth:`own_console` fork it then, in O(1).
    A lent part belongs to the snapshot, which outlives the step (the
    step holds a pin on it), so :meth:`free` leaves it alone.
    """

    __slots__ = ("space", "files", "console", "files_lent", "console_lent")

    def __init__(self, space: AddressSpace, files: FileTable,
                 console: Console, lent: bool = False):
        self.space = space
        self.files = files
        self.console = console
        self.files_lent = lent
        self.console_lent = lent

    def own_files(self) -> FileTable:
        """The file table to change, forked first if it is lent."""
        if self.files_lent:
            self.files = self.files.fork_cow(lent=True)
            self.files_lent = False
        return self.files

    def own_console(self) -> Console:
        """The console to write, forked first if it is lent."""
        if self.console_lent:
            self.console = self.console.fork_cow()
            self.console_lent = False
        return self.console

    def free(self) -> None:
        self.space.free()
        if not self.files_lent:
            self.files.free()


class LibOS:
    """The backtracking libOS of Figure 2 (mechanism only, no policy).

    Parameters
    ----------
    policy:
        Interposition policy; defaults to the paper's sound-but-minimal
        design point.
    hostfs:
        Backing files visible to guests via ``open``.
    input:
        Scripted stdin (:class:`repro.libos.console.InputSource`) for
        guests that read fd 0; without one those reads return EOF.
    """

    def __init__(
        self,
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        input=None,
    ):
        self.policy = policy if policy is not None else SoundMinimalPolicy()
        self.hostfs = hostfs if hostfs is not None else HostFS()
        self.audit = AuditLog()
        #: Aggregate file-layer counters across every fork of the file
        #: table (accounting, like the audit log — not per-path state).
        self.file_stats = FileStats()
        self.dispatcher = SyscallDispatcher(self.policy, input=input)
        #: Page faults the libOS saw escape the COW layer (hard faults).
        self.hard_faults = 0

    def load(self, program: Program, pool: FramePool) -> tuple[ExecState, RegisterFile]:
        """Create the initial execution state for *program*."""
        space, regs = load_program(program, pool)
        files = FileTable(self.hostfs, self.policy, self.audit,
                          stats=self.file_stats)
        return ExecState(space, files, Console()), regs

    def handle_exit(self, exit_event: VmExit, vcpu: VCpu, state: ExecState) -> Action:
        """Turn a VM exit into an engine-visible action.

        ``SYSCALL`` exits are dispatched; ``HLT`` is treated as a clean
        ``exit(rax)`` (the idiom our guests use to finish); faults and
        step-budget expiry kill the offending extension, mirroring how
        the real libOS would reflect an unhandled fault.
        """
        reason = exit_event.reason
        if reason is VmExitReason.SYSCALL:
            return self.dispatcher.dispatch(vcpu, state)
        if reason is VmExitReason.HLT:
            return ExitAction(status=_low32(vcpu.regs.rax))
        if reason is VmExitReason.PAGE_FAULT:
            self.hard_faults += 1
            return KillAction(f"unhandled page fault: {exit_event.fault}")
        if reason is VmExitReason.CPU_EXCEPTION:
            return KillAction(f"cpu exception: {exit_event.fault}")
        if reason is VmExitReason.STEP_LIMIT:
            return KillAction(STEP_BUDGET_EXHAUSTED)
        raise AssertionError(f"unhandled exit {exit_event!r}")  # pragma: no cover


def _low32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & (1 << 31) else value
