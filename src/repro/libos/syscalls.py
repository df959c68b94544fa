"""System-call dispatch.

The libOS "interposes on these calls to ensure that all visible side
effects are contained within the extension" (§4).  POSIX-ish calls are
serviced directly against the per-path COW state (file table, console,
heap); the three guess calls are *not* serviced here — they surface as
typed actions so the engine's scheduler (the search strategy) decides
what runs next, keeping policy out of the libOS mechanism.

Guest ABI (simulated, modelled on Linux x86-64):

=================  =====  ==========================================
call               rax    arguments
=================  =====  ==========================================
read               0      rdi=fd, rsi=buf, rdx=len -> rax=n or -errno
write              1      rdi=fd, rsi=buf, rdx=len -> rax=n or -errno
open               2      rdi=path (cstr), rsi=flags -> rax=fd/-errno
close              3      rdi=fd
lseek              8      rdi=fd, rsi=off, rdx=whence
brk                12     rdi=new break (0 queries) -> rax=break
exit               60     rdi=status (never returns)
fsync              74     rdi=fd -> rax=0 or -errno (per-inode barrier)
rename             82     rdi=src (cstr), rsi=dst (cstr) -> rax=0/-errno
sync               162    -> rax=0 (global barrier, incl. renames)
time               201    -> rax=wall-clock nanoseconds
getrandom          318    rdi=buf, rsi=len -> rax=len or -errno
sys_guess          0x1000 rdi=n -> rax=extension number
sys_guess_fail     0x1001 never returns
sys_guess_strategy 0x1002 rdi=strategy id -> rax=1
sys_guess_hint     0x1003 rdi=n, rsi=ptr to n signed i64 hints
sys_crash_select   0x1100 rdi=log index -> rax=#dimensions or -errno
sys_crash_opts     0x1101 rdi=dim -> rax=#options or -errno
sys_crash_set      0x1102 rdi=dim, rsi=choice -> rax=0 or -errno
sys_crash_commit   0x1103 -> rax=#records kept or -errno
=================  =====  ==========================================

The ``sys_crash_*`` quartet exposes the file layer's persistence model
(docs/CRASH.md): select a crash point in the operation log, fix one
persistence choice per dimension (typically each drawn from
``sys_guess``), then commit — the file table rebases onto the chosen
crash image and the guest's recovery/checker code reads exactly what a
remount after power loss would see.

``time``, ``getrandom`` and ``read(0, ...)`` are the libOS's
nondeterministic surface.  When a :class:`repro.core.recorder.Recorder`
is attached (``dispatcher.nondet``) their outcomes are routed through it
— recorded on first execution, replayed on every re-execution — which is
what lets nondeterministic guests shard and resume (docs/REPLAY.md).
Without a recorder they read the live host clock/entropy/input source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.core import sysno
from repro.core.recorder import live_random, live_time_ns
from repro.core.sysno import STRATEGY_NAMES, syscall_name
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER
from repro.interpose.policy import (
    Containment,
    InterpositionPolicy,
    Verdict,
    ENOSYS,
)
from repro.mem.faults import PageFaultError
from repro.vmm.vcpu import VCpu

if TYPE_CHECKING:
    from repro.libos.libos import ExecState

_EFAULT = 14
_EBADF = 9
_EINVAL_ = 22
_I64_SIGN = 1 << 63

from repro.mem.pagetable import Permission as _Permission

_RW_PERM = _Permission.RW


@dataclass
class ContinueAction:
    """Syscall fully handled; re-enter the guest."""


@dataclass
class ExitAction:
    """Guest called exit(status): the path completed."""

    status: int


@dataclass
class GuessAction:
    """Guest called sys_guess(n): take a snapshot, fan out n extensions."""

    n: int
    hints: Optional[tuple[float, ...]] = None


@dataclass
class GuessFailAction:
    """Guest called sys_guess_fail(): discard this extension."""


@dataclass
class StrategyAction:
    """Guest called sys_guess_strategy(id)."""

    name: str


@dataclass
class KillAction:
    """The path must be terminated by policy or error."""

    reason: str


Action = Union[
    ContinueAction, ExitAction, GuessAction, GuessFailAction,
    StrategyAction, KillAction,
]

_CONTINUE = ContinueAction()
_GUESS_FAIL = GuessFailAction()


class SyscallDispatcher:
    """Decodes and services guest system calls for one libOS instance."""

    #: Longest getrandom request the libOS will service in one call.
    MAX_GETRANDOM = 4096

    def __init__(self, policy: InterpositionPolicy, input=None):
        self.policy = policy
        #: Per-call counts for the F2 accounting benchmark.
        self.counts: dict[int, int] = {}
        #: Scripted stdin (:class:`repro.libos.console.InputSource`) or
        #: None; fd-0 reads return EOF without one.
        self.input = input
        #: Attached :class:`repro.core.recorder.Recorder`, or None for
        #: replay-mode "off".  Set by the engine, not the libOS.
        self.nondet = None
        self._pc: Optional[int] = None

    def dispatch(self, vcpu: VCpu, state: ExecState) -> Action:
        """Service the syscall encoded in the vCPU's registers against
        *state*.  A handler that changes the file table or the console
        takes it from ``state.own_files()`` / ``state.own_console()``,
        which forks a lent one first; the guess family and ``exit``
        change neither, and audit notes go to the libOS's shared log."""
        regs = vcpu.regs
        number = regs.rax
        self._pc = regs.rip
        self.counts[number] = self.counts.get(number, 0) + 1
        if _TRACER.enabled:
            _TRACER.emit(
                _events.LIBOS_SYSCALL, nr=number, name=syscall_name(number)
            )
        try:
            return self._dispatch(number, regs, state)
        except PageFaultError:
            # Guest passed a bad pointer; mirror Linux and return -EFAULT.
            regs.rax = -_EFAULT & ((1 << 64) - 1)
            return _CONTINUE

    def _dispatch(self, number, regs, state) -> Action:
        handler = self._handlers.get(number)
        if handler is not None:
            return handler(self, regs, state)
        # Unknown syscall: the §5 soundness rule decides.
        state.files.audit.note("syscall", f"#{number}", Verdict.DENY)
        if self.policy.check_unknown_syscall(number) == "kill":
            return KillAction(f"refused syscall #{number}")
        regs.rax = -ENOSYS & ((1 << 64) - 1)
        return _CONTINUE

    # -- one handler per syscall number (see ``_handlers`` below) --------

    def _guess(self, regs, state) -> Action:
        return GuessAction(n=regs.rdi)

    def _guess_fail(self, regs, state) -> Action:
        return _GUESS_FAIL

    def _guess_strategy(self, regs, state) -> Action:
        name = STRATEGY_NAMES.get(regs.rdi)
        if name is None:
            return KillAction(f"unknown strategy id {regs.rdi}")
        regs.rax = 1
        return StrategyAction(name)

    def _guess_hint(self, regs, state) -> Action:
        n = regs.rdi
        ptr = regs.rsi
        hints = tuple(
            float(_signed(state.space.read_u64(ptr + 8 * i)))
            for i in range(n)
        )
        return GuessAction(n=n, hints=hints)

    def _exit(self, regs, state) -> Action:
        return ExitAction(status=_signed(regs.rdi))

    def _close(self, regs, state) -> Action:
        regs.rax = state.own_files().close(regs.rdi)
        return _CONTINUE

    def _lseek(self, regs, state) -> Action:
        regs.rax = state.own_files().lseek(regs.rdi, _signed(regs.rsi),
                                           regs.rdx)
        return _CONTINUE

    def _rename(self, regs, state) -> Action:
        space = state.space
        src = space.read_cstr(regs.rdi).decode("utf-8", errors="replace")
        dst = space.read_cstr(regs.rsi).decode("utf-8", errors="replace")
        regs.rax = _errno64(state.own_files().rename(src, dst))
        return _CONTINUE

    def _sync(self, regs, state) -> Action:
        flushed = state.own_files().sync()
        if _TRACER.enabled:
            _TRACER.emit(_events.FILE_SYNC, records=flushed)
        regs.rax = 0
        return _CONTINUE

    def _crash_select(self, regs, state) -> Action:
        result = state.own_files().crash_select(_signed(regs.rdi))
        if _TRACER.enabled and result >= 0:
            _TRACER.emit(_events.CRASH_SELECT,
                         point=_signed(regs.rdi), dims=result)
        regs.rax = _errno64(result)
        return _CONTINUE

    def _crash_opts(self, regs, state) -> Action:
        regs.rax = _errno64(state.files.crash_opts(_signed(regs.rdi)))
        return _CONTINUE

    def _crash_set(self, regs, state) -> Action:
        regs.rax = _errno64(
            state.own_files().crash_set(_signed(regs.rdi), _signed(regs.rsi))
        )
        return _CONTINUE

    def _crash_commit(self, regs, state) -> Action:
        result = state.own_files().crash_commit()
        if _TRACER.enabled and result >= 0:
            _TRACER.emit(_events.CRASH_COMMIT, kept=result)
        regs.rax = _errno64(result)
        return _CONTINUE

    # ------------------------------------------------------------------

    def _write(self, regs, state) -> Action:
        fd, buf, length = regs.rdi, regs.rsi, regs.rdx
        data = state.space.read(buf, length)
        if fd in (1, 2):
            state.files.audit.note(
                "write", f"fd{fd} {length}B", Verdict.ALLOW, Containment.OUTPUT
            )
            regs.rax = state.own_console().write(data)
        else:
            regs.rax = _errno64(state.own_files().write(fd, data))
        return _CONTINUE

    def _read(self, regs, state) -> Action:
        fd, buf, length = regs.rdi, regs.rsi, regs.rdx
        if fd == 0:
            data = self._nondet(
                "input", lambda: self.input.read(length)
                if self.input is not None else b""
            )
            if data:
                state.space.write(buf, data[:length])
            regs.rax = min(len(data), length)
            return _CONTINUE
        if fd in (1, 2):
            regs.rax = 0  # reading the output console makes no sense
            return _CONTINUE
        result = state.own_files().read(fd, length)
        if isinstance(result, int):
            regs.rax = _errno64(result)
        else:
            state.space.write(buf, result)
            regs.rax = len(result)
        return _CONTINUE

    def _fsync(self, regs, state) -> Action:
        result = state.own_files().fsync(regs.rdi)
        if result < 0:
            regs.rax = _errno64(result)
            return _CONTINUE
        if _TRACER.enabled:
            _TRACER.emit(_events.FILE_FSYNC, fd=regs.rdi, records=result)
        regs.rax = 0  # POSIX: success is 0; the record count is trace-only
        return _CONTINUE

    def _time(self, regs, state) -> Action:
        payload = self._nondet("time", live_time_ns)
        regs.rax = int.from_bytes(payload[:8], "little")
        return _CONTINUE

    def _getrandom(self, regs, state) -> Action:
        buf, length = regs.rdi, regs.rsi
        if length == 0 or length > self.MAX_GETRANDOM:
            regs.rax = -_EINVAL_ & ((1 << 64) - 1)
            return _CONTINUE
        payload = self._nondet("random", lambda: live_random(length))
        state.space.write(buf, payload[:length])
        regs.rax = min(len(payload), length)
        return _CONTINUE

    def _nondet(self, kind, generate) -> bytes:
        """Resolve a nondeterministic outcome, via the recorder if any."""
        if self.nondet is not None:
            return self.nondet.intercept(kind, self._pc, generate)
        return generate()

    def _open(self, regs, state) -> Action:
        path = state.space.read_cstr(regs.rdi).decode("utf-8", errors="replace")
        regs.rax = _errno64(state.own_files().open(path, regs.rsi))
        return _CONTINUE

    def _mmap(self, regs, state) -> Action:
        """Anonymous private mappings only: mmap(0, length) -> base.

        Address hints, file-backed mappings and protection flags beyond
        RW are refused (-EINVAL): §5's sound-minimal rule applied to the
        memory API.  Regions grow downward from the libOS-chosen mmap
        base and are demand-zero (COW of the zero frame).
        """
        hint, length = regs.rdi, regs.rsi
        if hint != 0 or length == 0:
            regs.rax = -_EINVAL_ & ((1 << 64) - 1)
            return _CONTINUE
        space = state.space
        size = (length + 4095) & ~4095
        base = (space.mmap_next - size) & ~4095
        space.map_region(base, size, _RW_PERM)
        space.mmap_next = base
        state.files.audit.note(
            "mmap", f"{size // 1024}KiB at {base:#x}", Verdict.ALLOW,
            Containment.COW,
        )
        regs.rax = base
        return _CONTINUE

    def _munmap(self, regs, state) -> Action:
        addr, length = regs.rdi, regs.rsi
        if addr & 4095 or length == 0:
            regs.rax = -_EINVAL_ & ((1 << 64) - 1)
            return _CONTINUE
        state.space.unmap_region(addr, length)
        state.files.audit.note("munmap", f"{addr:#x}", Verdict.ALLOW,
                               Containment.COW)
        regs.rax = 0
        return _CONTINUE

    def _brk(self, regs, state) -> Action:
        target = regs.rdi
        space = state.space
        current = space.brk_end
        if target == 0 or target < space.brk_base:
            regs.rax = current
            return _CONTINUE
        space.sbrk(target - current)
        state.files.audit.note(
            "brk", f"{current:#x} -> {target:#x}", Verdict.ALLOW,
            Containment.LOGGED,
        )
        regs.rax = space.brk_end
        return _CONTINUE

    #: Syscall number -> handler, looked up once per syscall.
    _handlers = {
        sysno.SYS_GUESS: _guess,
        sysno.SYS_GUESS_FAIL: _guess_fail,
        sysno.SYS_WRITE: _write,
        sysno.SYS_READ: _read,
        sysno.SYS_OPEN: _open,
        sysno.SYS_CLOSE: _close,
        sysno.SYS_LSEEK: _lseek,
        sysno.SYS_BRK: _brk,
        sysno.SYS_MMAP: _mmap,
        sysno.SYS_MUNMAP: _munmap,
        sysno.SYS_EXIT: _exit,
        sysno.SYS_FSYNC: _fsync,
        sysno.SYS_RENAME: _rename,
        sysno.SYS_SYNC: _sync,
        sysno.SYS_CRASH_SELECT: _crash_select,
        sysno.SYS_CRASH_OPTS: _crash_opts,
        sysno.SYS_CRASH_SET: _crash_set,
        sysno.SYS_CRASH_COMMIT: _crash_commit,
        sysno.SYS_TIME: _time,
        sysno.SYS_GETRANDOM: _getrandom,
        sysno.SYS_GUESS_STRATEGY: _guess_strategy,
        sysno.SYS_GUESS_HINT: _guess_hint,
    }


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _I64_SIGN else value


def _errno64(value: int) -> int:
    """Encode a possibly-negative errno return as unsigned 64-bit."""
    return value & ((1 << 64) - 1)
