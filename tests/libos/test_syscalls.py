"""Integration tests: guests exercising the syscall surface via the libOS."""

import pytest

from repro.cpu import assemble
from repro.interpose import PermissivePolicy, SoundMinimalPolicy
from repro.libos import HostFS, LibOS
from repro.libos.syscalls import (
    ContinueAction,
    ExitAction,
    GuessAction,
    GuessFailAction,
    KillAction,
    StrategyAction,
)
from repro.mem import FramePool
from repro.vmm import VCpu, VmExitReason


def run_guest(source, policy=None, hostfs=None, max_rounds=100):
    """Run a guest to its first non-Continue action."""
    libos = LibOS(policy=policy or PermissivePolicy(), hostfs=hostfs)
    pool = FramePool()
    state, regs = libos.load(assemble(source), pool)
    vcpu = VCpu()
    vcpu.regs.load(regs.frozen())
    vcpu.attach(state.space)
    for _ in range(max_rounds):
        exit_event = vcpu.enter(max_steps=100_000)
        action = libos.handle_exit(exit_event, vcpu, state)
        if not isinstance(action, (ContinueAction, StrategyAction)):
            return action, state, vcpu, libos
    raise AssertionError("guest never finished")


class TestWriteConsole:
    def test_stdout_capture(self):
        src = """
        .data
        msg: .asciz "hello\\n"
        .text
        mov rax, 1
        mov rdi, 1
        mov rsi, msg
        mov rdx, 6
        syscall
        mov rbx, rax     ; save write's return value
        mov rax, 60
        mov rdi, 0
        syscall
        """
        action, state, vcpu, _ = run_guest(src)
        assert isinstance(action, ExitAction)
        assert state.console.text == "hello\n"
        assert vcpu.regs["rbx"] == 6  # write returned byte count

    def test_stderr_also_captured(self):
        src = """
        .data
        msg: .ascii "E"
        .text
        mov rax, 1
        mov rdi, 2
        mov rsi, msg
        mov rdx, 1
        syscall
        hlt
        """
        action, state, _, _ = run_guest(src)
        assert state.console.text == "E"


class TestExit:
    def test_exit_status(self):
        action, _, _, _ = run_guest("mov rax, 60\nmov rdi, 42\nsyscall")
        assert isinstance(action, ExitAction)
        assert action.status == 42

    def test_hlt_exits_with_rax(self):
        action, _, _, _ = run_guest("mov rax, 7\nhlt")
        assert isinstance(action, ExitAction)
        assert action.status == 7


class TestGuessCalls:
    def test_guess_action(self):
        action, _, _, _ = run_guest("mov rax, 0x1000\nmov rdi, 4\nsyscall\nhlt")
        assert isinstance(action, GuessAction)
        assert action.n == 4
        assert action.hints is None

    def test_guess_fail_action(self):
        action, _, _, _ = run_guest("mov rax, 0x1001\nsyscall")
        assert isinstance(action, GuessFailAction)

    def test_strategy_action_sets_rax(self):
        src = """
        mov rax, 0x1002
        mov rdi, 1      ; BFS
        syscall
        mov rbx, rax    ; save return value
        mov rax, 60
        mov rdi, 0
        syscall
        """
        action, _, vcpu, _ = run_guest(src)
        assert isinstance(action, ExitAction)
        assert vcpu.regs["rbx"] == 1

    def test_bad_strategy_id_kills(self):
        action, _, _, _ = run_guest("mov rax, 0x1002\nmov rdi, 99\nsyscall\nhlt")
        assert isinstance(action, KillAction)

    def test_guess_with_hints(self):
        src = """
        .data
        hints: .quad 3, 1, 2
        .text
        mov rax, 0x1003
        mov rdi, 3
        mov rsi, hints
        syscall
        hlt
        """
        action, _, _, _ = run_guest(src)
        assert isinstance(action, GuessAction)
        assert action.hints == (3.0, 1.0, 2.0)


class TestBrk:
    def test_brk_query_and_grow(self):
        src = """
        mov rax, 12
        mov rdi, 0
        syscall          ; query -> current break
        mov rbx, rax
        mov rdi, rbx
        add rdi, 0x4000
        mov rax, 12
        syscall          ; grow by 16 KiB
        mov rcx, rax     ; new break
        mov r8, 123
        mov [rbx], r8    ; write into the new heap
        mov rax, [rbx]
        hlt
        """
        action, state, vcpu, _ = run_guest(src)
        assert isinstance(action, ExitAction)
        assert vcpu.regs.rax == 123
        assert vcpu.regs["rcx"] == vcpu.regs["rbx"] + 0x4000


class TestMmap:
    def test_mmap_returns_usable_region(self):
        src = """
        mov rax, 9       ; mmap(0, 8192)
        mov rdi, 0
        mov rsi, 8192
        syscall
        mov rbx, rax
        mov r8, 777
        mov [rbx], r8            ; write at both ends
        mov [rbx + 8184], r8
        mov rax, [rbx + 8184]
        hlt
        """
        action, state, vcpu, _ = run_guest(src)
        assert isinstance(action, ExitAction)
        assert vcpu.regs.rax == 777

    def test_mmap_regions_do_not_overlap(self):
        src = """
        mov rax, 9
        mov rdi, 0
        mov rsi, 4096
        syscall
        mov rbx, rax     ; first region
        mov rax, 9
        mov rdi, 0
        mov rsi, 4096
        syscall
        mov rcx, rax     ; second region
        sub rbx, rcx     ; distance
        mov rax, rbx
        hlt
        """
        action, _, vcpu, _ = run_guest(src)
        assert vcpu.regs.rax >= 4096

    def test_mmap_hint_rejected(self):
        src = """
        mov rax, 9
        mov rdi, 0x12345000  ; address hints unsupported -> -EINVAL
        mov rsi, 4096
        syscall
        hlt
        """
        action, _, vcpu, _ = run_guest(src)
        assert vcpu.regs.rax == (-22) & ((1 << 64) - 1)

    def test_munmap(self):
        src = """
        mov rax, 9
        mov rdi, 0
        mov rsi, 4096
        syscall
        mov rbx, rax
        mov rax, 11      ; munmap(region, 4096)
        mov rdi, rbx
        mov rsi, 4096
        syscall
        mov rcx, rax     ; 0 on success
        mov rax, [rbx]   ; faults: the mapping is gone
        hlt
        """
        action, _, _, libos = run_guest(src)
        assert isinstance(action, KillAction)
        assert libos.hard_faults == 1

    def test_mmap_survives_snapshot_fork(self):
        src = """
        mov rax, 9
        mov rdi, 0
        mov rsi, 4096
        syscall
        mov rbx, rax
        mov r8, 42
        mov [rbx], r8
        mov rax, 60
        mov rdi, 0
        syscall
        """
        action, state, vcpu, _ = run_guest(src)
        base = vcpu.regs["rbx"]
        for fork in (state.space.fork_cow(), state.space.fork_eager()):
            assert fork.read_u64(base) == 42
            assert fork.mmap_next == state.space.mmap_next


class TestFileSyscalls:
    HOSTFS = {"/input.txt": b"file-contents"}

    def test_open_read(self):
        src = """
        .data
        path: .asciz "/input.txt"
        buf:  .zero 64
        .text
        mov rax, 2
        mov rdi, path
        mov rsi, 0       ; O_RDONLY
        syscall
        mov rbx, rax     ; fd
        mov rax, 0       ; read
        mov rdi, rbx
        mov rsi, buf
        mov rdx, 4
        syscall          ; rax = 4
        mov rcx, buf
        mov rax, [rcx]   ; first 8 bytes (we only wrote 4)
        hlt
        """
        action, state, vcpu, _ = run_guest(src, hostfs=HostFS(self.HOSTFS))
        assert isinstance(action, ExitAction)
        assert (vcpu.regs.rax & 0xFFFFFFFF).to_bytes(4, "little") == b"file"

    def test_open_denied_by_policy(self):
        src = """
        .data
        path: .asciz "/dev/null"
        .text
        mov rax, 2
        mov rdi, path
        mov rsi, 0
        syscall
        hlt              ; rax = -EACCES
        """
        action, _, vcpu, _ = run_guest(src, policy=SoundMinimalPolicy())
        assert isinstance(action, ExitAction)
        assert vcpu.regs.rax == (-13) & ((1 << 64) - 1)

    def test_write_creates_private_file(self):
        src = """
        .data
        path: .asciz "/out.log"
        msg:  .ascii "LOG"
        .text
        mov rax, 2
        mov rdi, path
        mov rsi, 66      ; O_RDWR|O_CREAT
        syscall
        mov rbx, rax
        mov rax, 1
        mov rdi, rbx
        mov rsi, msg
        mov rdx, 3
        syscall
        mov rax, 60
        mov rdi, 0
        syscall
        """
        action, state, _, _ = run_guest(src)
        assert state.files.contents("/out.log") == b"LOG"


class TestFaultsAndPolicy:
    def test_bad_pointer_returns_efault(self):
        src = """
        mov rax, 1
        mov rdi, 1
        mov rsi, 0x900000000   ; unmapped
        mov rdx, 4
        syscall
        hlt
        """
        action, _, vcpu, _ = run_guest(src)
        assert isinstance(action, ExitAction)
        assert vcpu.regs.rax == (-14) & ((1 << 64) - 1)

    def test_unknown_syscall_enosys_permissive(self):
        action, _, vcpu, _ = run_guest("mov rax, 9999\nsyscall\nhlt")
        assert isinstance(action, ExitAction)
        assert vcpu.regs.rax == (-38) & ((1 << 64) - 1)

    def test_unknown_syscall_kills_under_sound_policy(self):
        action, _, _, _ = run_guest(
            "mov rax, 9999\nsyscall\nhlt", policy=SoundMinimalPolicy()
        )
        assert isinstance(action, KillAction)

    def test_guest_page_fault_kills(self):
        action, _, _, libos = run_guest("mov rbx, 0x900000000\nmov rax, [rbx]\nhlt")
        assert isinstance(action, KillAction)
        assert libos.hard_faults == 1

    def test_step_budget_kills(self):
        libos = LibOS(policy=PermissivePolicy())
        pool = FramePool()
        state, regs = libos.load(assemble("spin: jmp spin"), pool)
        vcpu = VCpu()
        vcpu.regs.load(regs.frozen())
        vcpu.attach(state.space)
        exit_event = vcpu.enter(max_steps=50)
        action = libos.handle_exit(exit_event, vcpu, state)
        assert isinstance(action, KillAction)


class TestSyscallCounting:
    def test_dispatcher_counts(self):
        src = "mov rax, 12\nmov rdi, 0\nsyscall\nmov rax, 60\nmov rdi, 0\nsyscall"
        action, _, _, libos = run_guest(src)
        assert libos.dispatcher.counts[12] == 1
        assert libos.dispatcher.counts[60] == 1
