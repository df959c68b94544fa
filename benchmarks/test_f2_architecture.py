"""F2 — Figure 2: the architecture walk.

Accounts for every layer of the Figure 2 stack on a real guest run:
ring-3 guest instructions, VM exits by reason, libOS syscall dispatch
counts, page-fault/COW activity in the virtual-memory subsystem, and
snapshot-manager traffic driven by the search-strategy scheduler.  (The
translation cache is downgraded to read-only at every fork and emptied
at free rather than counted;
``tests/mem/test_addrspace.py::TestForkCow::test_tlb_flushed_on_fork``
checks the downgrade.)
"""

from repro.bench import Table
from repro.core.machine import MachineEngine
from repro.core.sysno import (
    SYS_EXIT,
    SYS_GUESS,
    SYS_GUESS_FAIL,
    SYS_GUESS_STRATEGY,
    SYS_WRITE,
)
from repro.workloads.nqueens import KNOWN_SOLUTION_COUNTS, nqueens_asm


def run_instrumented():
    engine = MachineEngine("dfs")
    result = engine.run(nqueens_asm(6))
    return engine, result


def test_f2_layer_accounting(benchmark, show):
    engine, result = benchmark(run_instrumented)
    extra = result.stats.extra
    exits = extra["vm_exit_counts"]
    syscalls = extra["syscall_counts"]

    # Guest ring 3 -> VM exit boundary: every syscall the guest made is
    # one SYSCALL exit handled at (simulated) non-root ring 0.
    assert exits["syscall"] == sum(syscalls.values())
    # The strategy evaluated one extension per restore plus the root.
    assert extra["snapshots_restored"] == result.stats.evaluations - 1
    # Every candidate is one snapshot taken at a sys_guess site.
    assert extra["snapshots_taken"] == syscalls[SYS_GUESS] == result.stats.candidates
    # Terminations: every path ends in exactly one fail or exit.
    assert syscalls[SYS_GUESS_FAIL] == result.stats.fails
    assert syscalls[SYS_EXIT] == len(result.solutions) == KNOWN_SOLUTION_COUNTS[6]
    assert syscalls[SYS_GUESS_STRATEGY] == 1

    table = Table(
        "F2: per-layer accounting, n-queens N=6 (Figure 2 stack)",
        ["layer", "event", "count"],
    )
    table.add("guest (non-root ring 3)", "instructions", extra["guest_instructions"])
    table.add("vmm boundary", "vm entries/exits", extra["vm_exits"])
    table.add("vmm boundary", "syscall exits", exits["syscall"])
    table.add("libOS (non-root ring 0)", "sys_guess", syscalls[SYS_GUESS])
    table.add("libOS (non-root ring 0)", "sys_guess_fail", syscalls[SYS_GUESS_FAIL])
    table.add("libOS (non-root ring 0)", "write(console)", syscalls.get(SYS_WRITE, 0))
    table.add("snapshot manager", "taken", extra["snapshots_taken"])
    table.add("snapshot manager", "restored", extra["snapshots_restored"])
    table.add("snapshot manager", "peak live", extra["snapshots_peak_live"])
    table.add("virtual memory", "frames copied (COW)", extra["frames_copied"])
    table.add("virtual memory", "peak frames", extra["frames_peak"])
    show(table)


def test_f2_cow_faults_bounded_by_writes(benchmark):
    """COW work is bounded by pages *written* per extension, not by the
    address-space size — the property hardware nested paging gives the
    real system."""
    engine, result = benchmark(run_instrumented)
    extra = result.stats.extra
    # n-queens dirties only the few data/stack pages it writes: the
    # frames copied per evaluation must stay in the single digits.
    per_eval = extra["frames_copied"] / max(result.stats.evaluations, 1)
    assert per_eval < 8, f"COW copies per evaluation too high: {per_eval}"
