"""X8 (extension) — the distributed transport's vital signs.

Three measurements into ``BENCH_distributed.json`` at the repository
root, all over loopback TCP:

* **steal latency** — round-trip of a worker's steal announcement to a
  granted work batch, measured at the transport layer (median and p90
  over many round trips).  This is the idle-worker refill cost the
  work-stealing scheduler pays instead of the old push model's queue
  imbalance.
* **rejoin time** — how long after a worker's socket is severed the
  pool hears from a replacement: the transport reports the endpoint
  ``down``, a fresh worker connection joins, and its steal arrives.
* **scaling** — find-all n-queens over TCP with 1 vs 2 workers.  On a
  1-core container the two-worker leg cannot win, so the strict gate
  needs >= 4 cores; ``REPRO_BENCH_FORCE_GATES=1`` asserts the serial
  bounded-slowdown bar instead of skipping (see ``_gates``).

The latency/rejoin gates are hardware-independent (generous loopback
bounds) and always run.
"""

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from benchmarks._gates import gates_forced, record_gate, usable_cores
from repro.bench import Table
from repro.core.cluster import ProcessParallelEngine
from repro.core.machine import MachineEngine
from repro.core.transport import TcpTransport, TcpWorkerConnection
from repro.workloads.nqueens import boards_from_result, nqueens_asm

N = 6
TASK_STEP_BUDGET = 3_000
STEAL_ROUNDS = 40
MAX_STEAL_MEDIAN_S = 0.25   # loopback round trip, generous for CI
MAX_REJOIN_S = 5.0          # loopback EOF, dial and handshake
SERIAL_SLOWDOWN_CAP = 8.0   # forced gate: 2 workers on 1 core
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_distributed.json"


def _poll_for(transport, kind, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for ev in transport.poll(0.2):
            if ev.kind == kind:
                return ev
    raise AssertionError(f"transport reported no {kind!r} in time")


def _serve(transport, future, timeout=10.0):
    """Poll *transport* until *future*, a worker call running on a
    helper thread, is done (a dial waits for the answer that ``poll``
    gives); returns its result and the events polled.  Each poll waits
    at most 1 ms, so the loop notices the future within that."""
    events = []
    deadline = time.monotonic() + timeout
    while not future.done() and time.monotonic() < deadline:
        events.extend(transport.poll(0.001))
    return future.result(timeout=0), events


def _measure_steal_and_rejoin():
    transport = TcpTransport(host="127.0.0.1", port=0)
    transport.start(program="X8", config={})
    rtts = []
    try:
        with ThreadPoolExecutor(max_workers=1) as helper:
            conn, events = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                ep = next(ev.endpoint for ev in events if ev.kind == "join")
                for _ in range(STEAL_ROUNDS):
                    t0 = time.perf_counter()
                    conn.send(("steal", conn.wid, 1))
                    _poll_for(transport, "msg")
                    ep.send(("work", [], None, []))
                    assert conn.poll(5.0)
                    conn.recv()
                    rtts.append(time.perf_counter() - t0)
                # Rejoin: sever the worker's socket and time how long
                # until the transport reports it down, a fresh worker
                # has joined, and the fresh worker's steal is heard.
                t0 = time.perf_counter()
                conn.close()
                down = _poll_for(transport, "down")
                assert down.endpoint is ep
                fresh, events = _serve(
                    transport,
                    helper.submit(TcpWorkerConnection, transport.address),
                )
                try:
                    assert [ev.kind for ev in events] == ["join"]
                    fresh.send(("steal", fresh.wid, 0))
                    assert _poll_for(transport, "msg").payload[0] == "steal"
                    rejoin_s = time.perf_counter() - t0
                finally:
                    fresh.close()
            finally:
                conn.close()
    finally:
        transport.close()
    return rtts, rejoin_s


def _run_tcp(guest, workers):
    engine = ProcessParallelEngine(
        workers=workers, task_step_budget=TASK_STEP_BUDGET,
        transport="tcp",
    )
    t0 = time.perf_counter()
    result = engine.run(guest)
    return result, time.perf_counter() - t0


def test_x8_distributed_vitals(show):
    guest = nqueens_asm(N)
    cores = usable_cores()
    forced = gates_forced() and cores < 4

    rtts, rejoin_s = _measure_steal_and_rejoin()
    steal_median = statistics.median(rtts)
    steal_p90 = sorted(rtts)[int(len(rtts) * 0.9)]

    expected = sorted(boards_from_result(MachineEngine().run(guest)))
    one, one_s = _run_tcp(guest, workers=1)
    two, two_s = _run_tcp(guest, workers=2)
    assert sorted(boards_from_result(one)) == expected
    assert sorted(boards_from_result(two)) == expected
    speedup = one_s / two_s if two_s else float("inf")

    table = Table(
        f"X8: distributed vitals, loopback TCP ({cores} cores)",
        ["metric", "value"],
    )
    table.add("steal RTT median", f"{steal_median * 1e3:.2f} ms")
    table.add("steal RTT p90", f"{steal_p90 * 1e3:.2f} ms")
    table.add("rejoin", f"{rejoin_s * 1e3:.1f} ms")
    table.add("1 worker wall", f"{one_s:.3f} s")
    table.add("2 workers wall", f"{two_s:.3f} s ({speedup:.2f}x)")
    show(table)

    record = {
        "workload": f"nqueens-{N}-find-all",
        "cores_available": cores,
        "task_step_budget": TASK_STEP_BUDGET,
        "steal_rounds": STEAL_ROUNDS,
        "steal_rtt_median_s": round(steal_median, 6),
        "steal_rtt_p90_s": round(steal_p90, 6),
        "rejoin_s": round(rejoin_s, 4),
        "one_worker_s": round(one_s, 4),
        "two_workers_s": round(two_s, 4),
        "speedup_2w": round(speedup, 3),
        "steals_2w": two.stats.extra["steals"],
    }
    record_gate(record, "steal_latency", True, False,
                bound_s=MAX_STEAL_MEDIAN_S)
    record_gate(record, "rejoin", True, False, bound_s=MAX_REJOIN_S)
    scaling_ran = cores >= 4 or gates_forced()
    record_gate(
        record, "scaling", scaling_ran, forced,
        bound=(1.0 if cores >= 4 else f"<= {SERIAL_SLOWDOWN_CAP}x slowdown"),
    )
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert steal_median < MAX_STEAL_MEDIAN_S, (
        f"steal round trip {steal_median * 1e3:.1f} ms over loopback"
    )
    assert rejoin_s < MAX_REJOIN_S
    assert two.stats.extra["steals"] > 0
    if cores >= 4:
        assert speedup >= 1.0, (
            f"2 TCP workers slower than 1 on {cores} cores "
            f"({speedup:.2f}x)"
        )
    elif gates_forced():
        assert two_s <= one_s * SERIAL_SLOWDOWN_CAP, (
            f"forced gate: 2-worker leg {two_s:.2f}s vs {one_s:.2f}s"
        )
