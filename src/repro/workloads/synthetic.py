"""Synthetic kernels for the E3 granularity/locality sweep.

§5: "The execution granularity, complexity of hand-coded logic, and
page-level memory locality will each play a role to determine when the
approach provides a performance win."  These kernels expose exactly those
knobs:

* ``depth`` / ``fanout`` -- search-tree shape;
* ``work`` -- instructions of pure compute per extension step
  (granularity);
* ``pages`` -- distinct pages written per extension step (locality);

The same workload exists as an assembly guest (for the machine engines:
COW, eager, replay) and as a hand-coded Python search (the native
baseline).  All variants count complete root-to-leaf paths, so results
are cross-checkable.
"""

from __future__ import annotations

from repro.core.sysno import SYS_BRK, SYS_EXIT, SYS_GUESS


def synthetic_asm(depth: int, fanout: int, work: int, pages: int) -> str:
    """Generate the synthetic kernel as an assembly guest.

    Per extension step the guest (a) spins a ``work``-iteration compute
    loop, (b) writes one word into each of ``pages`` distinct pages
    (offset by the current level so siblings dirty the same addresses —
    worst case for COW sharing), then guesses the next branch.  Leaves
    exit with the accumulated path value.
    """
    if fanout < 1 or depth < 1:
        raise ValueError("depth and fanout must be >= 1")
    return f"""
    ; synthetic granularity/locality kernel:
    ; depth={depth} fanout={fanout} work={work} pages={pages}
    _start:
        mov rax, {SYS_BRK}      ; r13 = heap base (the scratch region)
        mov rdi, 0
        syscall
        mov r13, rax
        mov rdi, r13            ; grow the heap by `pages` pages
        add rdi, {max(pages, 1) * 4096}
        mov rax, {SYS_BRK}
        syscall
        mov r15, 0              ; path accumulator
        mov r14, 0              ; level
    level_loop:
        cmp r14, {depth}
        jge done

        ; -- compute granularity: `work` loop iterations ---------------
        mov r10, {work}
        mov r11, r14
    work_loop:
        cmp r10, 0
        je work_done
        imul r11, 3
        add r11, 7
        and r11, 0xffff
        dec r10
        jmp work_loop
    work_done:

        ; -- locality: dirty `pages` distinct pages --------------------
        mov r9, {pages}
        mov r8, r13
    page_loop:
        cmp r9, 0
        je page_done
        mov [r8], r11           ; one word per page
        add r8, 4096
        dec r9
        jmp page_loop
    page_done:

        ; -- branch ----------------------------------------------------
        mov rax, {SYS_GUESS:#x}
        mov rdi, {fanout}
        syscall
        imul r15, {fanout}
        add r15, rax
        inc r14
        jmp level_loop

    done:
        mov rdi, r15
        mov rax, {SYS_EXIT}
        syscall
    """


def stdin_sum_asm(depth: int) -> str:
    """An interactive guest: some branches consume a byte of stdin.

    At each of ``depth`` levels the guest guesses a bit; on 1 it reads
    one byte from fd 0 and adds its value into an accumulator, and each
    leaf exits with the accumulated sum.  The console stream is shared
    search-wide, so *which* byte a branch receives depends on the order
    branches execute — classic value nondeterminism (analyzer lint
    DT001, recordable).  Under ``--replay-mode`` the byte each decision
    path consumed is recorded at the path's key and replayed verbatim,
    so sequential, sharded and resumed runs agree path-for-path.
    Exhausted input reads return 0 bytes and add nothing.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return f"""
    ; stdin-sum: guess-gated console reads, depth = {depth}
    .data
    buf: .zero 1

    .text
    _start:
        mov r15, 0              ; accumulated byte sum
        mov r14, 0              ; level
    level_loop:
        cmp r14, {depth}
        jge done
        mov rax, {SYS_GUESS:#x}
        mov rdi, 2
        syscall
        cmp rax, 0
        je skip_read
        mov rax, 0              ; read(0, buf, 1)
        mov rdi, 0
        mov rsi, buf
        mov rdx, 1
        syscall
        cmp rax, 0              ; stream exhausted -> add nothing
        je skip_read
        mov r8, buf
        movb r9, [r8]
        add r15, r9
    skip_read:
        inc r14
        jmp level_loop

    done:
        mov rdi, r15
        mov rax, {SYS_EXIT}
        syscall
    """


def synthetic_handcoded(depth: int, fanout: int, work: int,
                        pages: int) -> int:
    """The hand-coded native baseline: same tree, explicit state array,
    undo by overwrite.  Returns the number of complete paths."""
    scratch = [0] * max(pages, 1)
    count = 0
    stack: list[int] = [0]
    while stack:
        level = stack.pop()
        if level == depth:
            count += 1
            continue
        value = level
        for _ in range(work):
            value = ((value * 3) + 7) & 0xFFFF
        for p in range(pages):
            scratch[p] = value
        for _ in range(fanout):
            stack.append(level + 1)
    return count


def synthetic_python_guest(sys, depth: int, fanout: int, work: int,
                           pages: int) -> int:
    """The same kernel as a Python guest for the replay engine."""
    scratch = [0] * max(pages, 1)
    acc = 0
    for level in range(depth):
        value = level
        for _ in range(work):
            value = ((value * 3) + 7) & 0xFFFF
        for p in range(pages):
            scratch[p] = value
        acc = acc * fanout + sys.guess(fanout)
    return acc
