"""X6 (extension) — the price of live telemetry.

One measurement into ``BENCH_live.json``: the same find-all n-queens
run with telemetry off, and fully instrumented (heartbeats + status
server + status log).  The design claim is that in-flight visibility is
nearly free: heartbeats are rate-limited registry snapshots (a dict of
a few dozen scalars, shipped over a pipe that is already hot with task
traffic); the HTTP server runs on its own thread and only reads, and
the coordinator writes the status log from its own loop.  The
acceptance budget is 5 % wall-clock overhead.

Shared CI hardware makes wall-clock ratios noisy, so each configuration
takes the best of three runs, and the overhead assertion is gated on
having at least 2 usable cores (on one core, the coordinator, the
server thread and the workers genuinely contend — the number is
recorded but not judged).
The telemetry run also re-checks the exactness criterion end to end:
the final status snapshot's metrics must equal the engine registry.
"""

import json
import time
from pathlib import Path

from benchmarks._gates import gates_forced, record_gate, usable_cores
from repro.bench import Table
from repro.core.cluster import ProcessParallelEngine
from repro.workloads.nqueens import (
    KNOWN_SOLUTION_COUNTS,
    boards_from_result,
    nqueens_asm,
)

N = 7
WORKERS = 2
TASK_STEP_BUDGET = 8_000
REPS = 3
OVERHEAD_BUDGET = 0.05
#: Forced-gate bound for serial hardware, where the coordinator, the
#: server thread and the workers genuinely contend: telemetry must not
#: double the wall clock.
OVERHEAD_BUDGET_SERIAL = 1.0
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_live.json"


def _best_of(reps, run):
    best, result, engine = None, None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        result, engine = run()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result, engine


def test_x6_live_telemetry_overhead(show, tmp_path):
    guest = nqueens_asm(N)
    forced = gates_forced() and usable_cores() < 2
    transport = "tcp" if forced else "pipe"

    def run_plain():
        engine = ProcessParallelEngine(
            workers=WORKERS, task_step_budget=TASK_STEP_BUDGET,
            transport=transport,
        )
        return engine.run(guest), engine

    def run_instrumented():
        engine = ProcessParallelEngine(
            workers=WORKERS, task_step_budget=TASK_STEP_BUDGET,
            transport=transport,
            status_port=0,
            status_log=str(tmp_path / "status.jsonl"),
            status_interval=0.25,
            flight_dir=str(tmp_path / "flight"),
        )
        return engine.run(guest), engine

    base_s, base, _ = _best_of(REPS, run_plain)
    expected = sorted(boards_from_result(base))
    assert len(expected) == KNOWN_SOLUTION_COUNTS[N]

    live_s, live, engine = _best_of(REPS, run_instrumented)
    assert sorted(boards_from_result(live)) == expected
    assert live.exhausted

    # Telemetry must not bend the numbers it reports: final snapshot
    # metrics equal the end-of-run registry exactly.
    final = engine.status.snapshot()
    assert final["done"]
    assert final["metrics"] == engine.registry.as_dict()
    assert final["coverage"]["fraction"] == 1.0
    heartbeats = live.stats.extra["heartbeats"]
    assert heartbeats > 0

    cores = usable_cores()
    overhead = live_s / base_s - 1.0 if base_s else 0.0

    table = Table(
        f"X6: live-telemetry overhead, n-queens N={N} find-all",
        ["config", "wall s", "overhead", "heartbeats"],
    )
    table.add("telemetry off", f"{base_s:.3f}", "—", 0)
    table.add(
        f"heartbeats + server + log ({cores} cores)",
        f"{live_s:.3f}", f"{overhead * 100:+.1f}%", heartbeats,
    )
    show(table)

    record = {
        "workload": f"nqueens-{N}-find-all",
        "workers": WORKERS,
        "task_step_budget": TASK_STEP_BUDGET,
        "reps": REPS,
        "cores": cores,
        "baseline_s": round(base_s, 4),
        "telemetry_s": round(live_s, 4),
        "overhead": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "heartbeats": heartbeats,
        "metrics_exact": final["metrics"] == engine.registry.as_dict(),
        "transport": transport,
    }
    gate_ran = cores >= 2 or gates_forced()
    record_gate(
        record, "overhead", gate_ran, forced, transport=transport,
        budget=(OVERHEAD_BUDGET if cores >= 2 else OVERHEAD_BUDGET_SERIAL),
    )
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if cores >= 2:
        assert overhead < OVERHEAD_BUDGET, (
            f"live telemetry costs {overhead:.1%}, over the "
            f"{OVERHEAD_BUDGET:.0%} budget"
        )
    elif gates_forced():
        assert overhead < OVERHEAD_BUDGET_SERIAL, (
            f"forced gate: telemetry over {transport} costs "
            f"{overhead:.1%} on {cores} core(s)"
        )
