"""Deterministic chaos sweep: assert solution-set invariance under faults.

Usage::

    python -m repro.tools.chaos --seeds 20 [--kill] [--json]

For each seed the sweep builds a :class:`repro.chaos.FaultPlan` and runs
the process-parallel engine over an N-queens guest while the plan kills
workers, stalls them past the task timeout, and writes garbage into the
result pipe.  The invariant checked is the paper's core soundness claim
for the robustness layer: *injected faults may cost retries, but never
solutions* — every chaos run must produce exactly the solution multiset
of the fault-free baseline, and a run whose coordinator was not killed
must also exhaust its frontier and conserve work exactly: its
``guest_instructions`` equal the fault-free run's.

With ``--kill``, each seed additionally schedules a coordinator kill at
a seed-derived journal epoch: the run dies mid-flight, is resumed from
its journal (with the kill stripped via :meth:`FaultPlan.sterile`), and
the combined run must again match the baseline's multiset — the
crash/resume differential test, swept across seeds.  (A resumed run
re-explores the subtrees whose completions the journal lost, so its
instruction count is not checked.)

Every fault decision is a pure function of the seed, so any failing
seed reproduces locally with the same command line.

Exit status: 0 when every seed holds the invariant, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Optional, Sequence

from repro.chaos import FaultPlan
from repro.core.cluster import ProcessParallelEngine
from repro.core.errors import CoordinatorKilled
from repro.workloads.nqueens import KNOWN_SOLUTION_COUNTS, nqueens_asm


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.chaos",
        description="Sweep chaos seeds; assert solution-set invariance.",
    )
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of seeds to sweep (default: 20)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed (default: 0)")
    parser.add_argument("--workload",
                        choices=["nqueens", "nqueens-random", "stdin-sum"],
                        default="nqueens",
                        help="guest under test: nqueens is deterministic; "
                        "nqueens-random draws per-column entropy and "
                        "stdin-sum consumes scripted console input — both "
                        "are first recorded sequentially and the sweep "
                        "replays the log under --replay-mode=strict, so "
                        "faults must not perturb even nondeterministic "
                        "runs (default: nqueens)")
    parser.add_argument("--n", type=int, default=6,
                        help="instance size: board size for the n-queens "
                        "workloads, tree depth for stdin-sum (default: 6)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--crash-rate", type=float, default=0.2)
    parser.add_argument("--stall-rate", type=float, default=0.05)
    parser.add_argument("--garbage-rate", type=float, default=0.1)
    parser.add_argument("--task-timeout", type=float, default=2.0,
                        help="per-task timeout; stall faults sleep past "
                        "it so they are detected (default: 2.0)")
    parser.add_argument("--transport", choices=["pipe", "tcp"],
                        default="pipe",
                        help="worker transport for the chaos runs; the "
                        "fault-free baseline always uses pipes, so a tcp "
                        "sweep doubles as a pipe-vs-TCP differential "
                        "(default: pipe)")
    parser.add_argument("--net", action="store_true",
                        help="inject the standard network fault mix "
                        "(drop/delay/duplicate/reorder/partition/"
                        "half-open) at the TCP transport seam; requires "
                        "--transport tcp")
    parser.add_argument("--kill", action="store_true",
                        help="also kill the coordinator at a seed-derived "
                        "journal epoch and resume from the journal")
    parser.add_argument("--journal-dir", default=None,
                        help="keep per-seed journals here (default: a "
                        "temporary directory, removed afterwards)")
    parser.add_argument("--json", action="store_true",
                        help="emit the sweep report as JSON")
    return parser


def _solution_multiset(result):
    return sorted((s.path, s.value) for s in result.solutions)


def _engine(args, replay_log=None, baseline=False,
            **kwargs) -> ProcessParallelEngine:
    if replay_log is not None:
        kwargs.update(replay_mode="strict", replay_log=replay_log,
                      verify="warn")
    if not baseline:
        kwargs.setdefault("transport", args.transport)
        if args.net:
            # Partitions look like dead workers and cost retries; give
            # the sweep a short heartbeat and a deep retry budget so
            # every re-dispatched subtree still lands.
            kwargs.setdefault("heartbeat_timeout", 1.5)
            kwargs.setdefault("max_task_retries", 10)
    return ProcessParallelEngine(
        workers=args.workers,
        task_step_budget=3000,
        task_timeout=args.task_timeout,
        max_task_retries=kwargs.pop("max_task_retries", 4),
        **kwargs,
    )


def _build_workload(args):
    """Resolve --workload: returns (guest, baseline multiset, baseline
    guest_instructions, replay log).

    The nondeterministic workloads are recorded once on the sequential
    engine; that run's solutions are the sweep baseline and its nondet
    log seeds every chaos run, which then replays under strict mode.
    The instruction count is always a fault-free run's with the sweep's
    engine settings.
    """
    if args.workload == "nqueens":
        if args.n not in KNOWN_SOLUTION_COUNTS:
            raise SystemExit(f"error: no known solution count for n={args.n}")
        guest = nqueens_asm(args.n)
        result = _engine(args, baseline=True).run(guest)
        baseline = _solution_multiset(result)
        if len(baseline) != KNOWN_SOLUTION_COUNTS[args.n]:
            raise SystemExit(
                f"error: fault-free baseline found {len(baseline)} "
                f"solutions, expected {KNOWN_SOLUTION_COUNTS[args.n]}"
            )
        return guest, baseline, result.stats.extra["guest_instructions"], None

    import warnings

    from repro.core.machine import MachineEngine
    from repro.workloads.nqueens import nqueens_randomized_asm
    from repro.workloads.synthetic import stdin_sum_asm

    if args.workload == "nqueens-random":
        if args.n not in KNOWN_SOLUTION_COUNTS:
            raise SystemExit(f"error: no known solution count for n={args.n}")
        guest, expected = nqueens_randomized_asm(args.n), \
            KNOWN_SOLUTION_COUNTS[args.n]
        recorder_kwargs = {}
    else:
        guest, expected = stdin_sum_asm(args.n), 2 ** args.n
        from repro.libos.console import InputSource

        recorder_kwargs = {"input": InputSource(b"chaos sweep input")}
    seq = MachineEngine(replay_mode="record", verify="warn",
                        **recorder_kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the DT lint is the point here
        result = seq.run(guest)
        replayed = _engine(args, replay_log=seq.recorder.log,
                           baseline=True).run(guest)
    baseline = _solution_multiset(result)
    if len(baseline) != expected:
        raise SystemExit(
            f"error: recording baseline found {len(baseline)} solutions, "
            f"expected {expected}"
        )
    return (guest, baseline, replayed.stats.extra["guest_instructions"],
            seq.recorder.log)


def _plan(args, seed: int) -> FaultPlan:
    """The fault plan of one seed (ValueError on out-of-range rates)."""
    net = dict(
        net_drop_rate=0.08,
        net_delay_rate=0.10,
        net_delay_s=0.05,
        net_dup_rate=0.08,
        net_reorder_rate=0.08,
        partition_rate=0.04,
        partition_frames=6,
        half_open_rate=0.03,
    ) if args.net else {}
    return FaultPlan(
        seed=seed,
        crash_rate=args.crash_rate,
        stall_rate=args.stall_rate,
        garbage_rate=args.garbage_rate,
        stall_seconds=args.task_timeout * 4,
        coordinator_kill_epoch=(15 + seed % 25) if args.kill else None,
        **net,
    )


def run_seed(args, seed: int, guest, baseline, steps, journal_dir,
             replay_log=None) -> dict:
    """One sweep iteration; returns its report row."""
    plan = _plan(args, seed)
    row: dict = {"seed": seed, "kill_epoch": plan.coordinator_kill_epoch}
    journal = (
        os.path.join(journal_dir, f"seed{seed}.journal")
        if (args.kill or args.journal_dir) else None
    )
    started = time.monotonic()
    import contextlib
    import warnings

    quiet = warnings.catch_warnings() if replay_log is not None \
        else contextlib.nullcontext()
    engine = _engine(args, chaos=plan, journal=journal,
                     replay_log=replay_log)
    with quiet:
        if replay_log is not None:
            warnings.simplefilter("ignore")
        try:
            result = engine.run(guest)
            row["killed"] = False
        except CoordinatorKilled:
            row["killed"] = True
            resumed = _engine(
                args, chaos=plan.sterile(), journal=journal, resume=True,
                replay_log=replay_log,
            )
            result = resumed.run(guest)
            row["resume_pending"] = result.stats.extra["resume_pending"]
            row["resume_solutions"] = result.stats.extra["resume_solutions"]
    row["elapsed_s"] = round(time.monotonic() - started, 3)
    extra = result.stats.extra
    problems = []
    if _solution_multiset(result) != baseline:
        problems.append("solution mismatch")
    if not row["killed"]:
        if not result.exhausted:
            problems.append(f"not exhausted ({result.stop_reason})")
        if extra["guest_instructions"] != steps:
            problems.append(f"{extra['guest_instructions']} guest "
                            f"instructions, fault-free {steps}")
    row.update({
        "solutions": len(result.solutions),
        "guest_instructions": extra["guest_instructions"],
        "crashes": extra["worker_crashes"],
        "timeouts": extra["task_timeouts"],
        "protocol_errors": extra["protocol_errors"],
        "retried": extra["tasks_retried"],
        "respawns": extra["respawns"],
        "degraded": extra["degraded"],
        "problems": problems,
        "ok": not problems,
    })
    if args.transport == "tcp":
        row.update({
            "steals": extra["steals"],
            "leases_expired": extra["leases_expired"],
            "fenced_stale": extra["fenced_stale"],
            "joins": extra["worker_joins"],
        })
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.net and args.transport != "tcp":
        print("error: --net requires --transport tcp", file=sys.stderr)
        return 2
    if args.task_timeout <= 0:
        print("error: --task-timeout must be > 0", file=sys.stderr)
        return 2
    try:
        _plan(args, args.seed_base)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        guest, baseline, steps, replay_log = _build_workload(args)
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        journal_dir = args.journal_dir or tmp
        if args.journal_dir:
            os.makedirs(args.journal_dir, exist_ok=True)
        rows = [
            run_seed(args, args.seed_base + i, guest, baseline, steps,
                     journal_dir, replay_log=replay_log)
            for i in range(args.seeds)
        ]

    failures = [row for row in rows if not row["ok"]]
    report = {
        "n": args.n,
        "workload": args.workload,
        "expected_solutions": len(baseline),
        "expected_guest_instructions": steps,
        "seeds": args.seeds,
        "kill_mode": args.kill,
        "transport": args.transport,
        "net_mode": args.net,
        "total_fenced_stale": sum(
            r.get("fenced_stale", 0) for r in rows
        ),
        "failures": [row["seed"] for row in failures],
        "total_crashes": sum(r["crashes"] for r in rows),
        "total_timeouts": sum(r["timeouts"] for r in rows),
        "total_protocol_errors": sum(r["protocol_errors"] for r in rows),
        "total_respawns": sum(r["respawns"] for r in rows),
        "rows": rows,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for row in rows:
            status = "ok" if row["ok"] else (
                "FAILED: " + "; ".join(row["problems"]))
            kill = (
                f" kill@{row['kill_epoch']}"
                + ("+resume" if row["killed"] else " (finished first)")
                if row["kill_epoch"] is not None else ""
            )
            net = (
                f" fenced={row['fenced_stale']} "
                f"leases={row['leases_expired']}"
                if "fenced_stale" in row else ""
            )
            print(
                f"seed {row['seed']:>4}: {status}  "
                f"solutions={row['solutions']} crashes={row['crashes']} "
                f"timeouts={row['timeouts']} "
                f"garbage={row['protocol_errors']} "
                f"respawns={row['respawns']}{net}{kill}"
            )
        fenced = (
            f", {report['total_fenced_stale']} stale results fenced"
            if args.transport == "tcp" else ""
        )
        print(
            f"{args.seeds} seed(s): {len(failures)} failure(s), "
            f"{report['total_crashes']} worker crashes, "
            f"{report['total_timeouts']} timeouts, "
            f"{report['total_protocol_errors']} garbage injections "
            f"survived{fenced}"
        )
    if failures:
        print(
            "chaos invariant violated for seed(s): "
            + ", ".join(str(r["seed"]) for r in failures),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
