"""Assemble and explore a guest program from the command line.

Usage::

    python -m repro.tools.run_guest path/to/guest.s [options]

Options let you pick the engine (snapshot / replay / parallel /
process), the search strategy, budgets, and the snapshot substrate; the
tool prints each solution's exit code, path and console output, plus the
engine's cost counters — a one-command view of the whole system.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from repro.core.cluster import ProcessParallelEngine
from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.cpu.assembler import AssemblyError, assemble
from repro.obs.trace import TRACER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.run_guest",
        description="Explore a guest binary with system-level backtracking.",
    )
    parser.add_argument("source", nargs="?", default=None,
                        help="assembly source file (omitted when joining "
                        "a coordinator with --connect: the program ships "
                        "over the wire)")
    parser.add_argument(
        "--engine", choices=["snapshot", "replay", "parallel", "process"],
        default="snapshot", help="exploration engine (default: snapshot)",
    )
    parser.add_argument(
        "--strategy", default="dfs",
        help="search strategy: dfs, bfs, astar, sma, coverage, random",
    )
    parser.add_argument(
        "--snapshot-mode", choices=["cow", "eager", "dirty-eager"],
        default="cow", help="snapshot substrate (snapshot engine only)",
    )
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count (parallel/process engines)")
    parser.add_argument("--task-step-budget", type=int, default=25_000,
                        help="guest instructions a process worker explores "
                        "per task before spilling (process engine only)")
    parser.add_argument("--subtree-depth", type=int, default=None,
                        help="guess depth a process worker explores per "
                        "task before spilling (process engine only)")
    parser.add_argument("--task-timeout", type=float, default=30.0,
                        help="per-task wall-clock limit in seconds "
                        "(process engine only)")
    parser.add_argument("--batch-size", type=int, default=4,
                        help="tasks per worker dispatch (process engine "
                        "only)")
    parser.add_argument("--transport", choices=["pipe", "tcp"],
                        default="pipe",
                        help="coordinator/worker wire (process engine "
                        "only): pipe = local duplex pipes (default), tcp "
                        "= framed sockets with elastic membership — "
                        "external workers may join with --connect")
    parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                        help="TCP transport: accept workers on this "
                        "address (default 127.0.0.1:0 — loopback, "
                        "ephemeral port)")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="join a running TCP coordinator as a worker "
                        "instead of starting a run; the guest program and "
                        "engine config arrive over the wire, so no source "
                        "file or engine flags are needed")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="write-ahead run journal for crash-tolerant "
                        "runs (process engine only); inspect it with "
                        "repro.tools.journal")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted run from --journal "
                        "instead of starting fresh (process engine only)")
    parser.add_argument("--fsync", choices=["always", "batch", "off"],
                        default="batch",
                        help="journal durability policy (default: batch)")
    parser.add_argument("--min-workers", type=int, default=1,
                        help="graceful-degradation floor: finish the run "
                        "in-process when fewer worker slots stay "
                        "serviceable (process engine only)")
    parser.add_argument("--chaos-kill-epoch", type=int, default=None,
                        metavar="EPOCH",
                        help="chaos injection: kill the coordinator when "
                        "the journal reaches EPOCH (testing only; "
                        "requires --journal)")
    parser.add_argument("--chaos-crash-rate", type=float, default=None,
                        metavar="RATE",
                        help="chaos injection: crash each worker task "
                        "attempt with probability RATE (testing only; "
                        "process engine only; combines with "
                        "--chaos-kill-epoch)")
    parser.add_argument("--status-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live run status over HTTP on "
                        "127.0.0.1:PORT while the run executes — JSON at "
                        "/status, Prometheus text at /metrics (0 picks a "
                        "free port; process engine only); watch it with "
                        "repro.tools.top")
    parser.add_argument("--status-log", metavar="PATH", default=None,
                        help="append periodic status.sample snapshots to "
                        "a JSONL time series (process engine only); "
                        "consumed by repro.tools.top --status-log and "
                        "repro.tools.trace_report")
    parser.add_argument("--status-interval", type=float, default=0.5,
                        help="seconds between --status-log samples "
                        "(default: 0.5)")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="flight recorder: on a worker crash, "
                        "poisoning or timeout, dump that worker's recent "
                        "trace events to a post-mortem JSONL file in DIR "
                        "(process engine only)")
    parser.add_argument("--obs-trace", metavar="PATH", default=None,
                        help="record the run's observability trace to a "
                        "JSONL file (process engine merges every worker's "
                        "events into one causally-ordered stream); inspect "
                        "it with repro.tools.trace_report or "
                        "repro.tools.profile")
    parser.add_argument("--verify", choices=["off", "warn", "strict"],
                        default="warn",
                        help="static analysis gate before execution: warn "
                        "(default) prints the analyzer's summary table and "
                        "runs anyway; strict refuses programs with errors "
                        "or without the determinism certificate; off skips "
                        "analysis entirely")
    parser.add_argument("--replay-mode", choices=["off", "record", "strict"],
                        default="off",
                        help="record/replay of nondeterministic syscall "
                        "outcomes (time, getrandom, console reads): record "
                        "logs first-execution outcomes and replays known "
                        "ones, making nondeterministic guests shardable "
                        "and resumable; strict replays only and fails "
                        "loudly on divergence (see docs/REPLAY.md)")
    parser.add_argument("--replay-log", metavar="PATH", default=None,
                        help="nondet-event log file: loaded before the run "
                        "when it exists (required by --replay-mode=strict), "
                        "written after a completed --replay-mode=record run")
    parser.add_argument("--input", metavar="PATH", default=None,
                        help="file whose bytes are the guest's scripted "
                        "stdin (fd 0)")
    parser.add_argument("--max-solutions", type=int, default=None)
    parser.add_argument("--max-steps", type=int, default=5_000_000,
                        help="instruction budget per extension step")
    parser.add_argument("--transcript", action="store_true",
                        help="also print failed paths' console output")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    return parser


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.connect is not None:
        # Worker mode: no local program, no engine — dial the
        # coordinator, fetch program+config in the handshake, and serve
        # until poisoned or disconnected for good.
        if args.source is not None:
            print("error: --connect takes no source file (the program "
                  "ships over the wire)", file=sys.stderr)
            return 2
        try:
            host, port = _parse_hostport(args.connect)
        except ValueError:
            print(f"error: --connect expects HOST:PORT, got "
                  f"{args.connect!r}", file=sys.stderr)
            return 2
        from repro.core.cluster import tcp_worker

        print(f"joining coordinator at {host}:{port}", file=sys.stderr)
        tcp_worker(host, port)
        return 0
    if args.source is None:
        print("error: a source file is required (or --connect to join a "
              "coordinator as a worker)", file=sys.stderr)
        return 2
    try:
        with open(args.source) as handle:
            source = handle.read()
    except OSError as err:
        print(f"error: cannot read {args.source}: {err}", file=sys.stderr)
        return 2
    try:
        program = assemble(source)
    except AssemblyError as err:
        print(f"assembly error: {err}", file=sys.stderr)
        return 2

    from repro.core.errors import ReplayDivergenceError
    from repro.core.journal import program_digest
    from repro.core.recorder import NondetLog

    if args.replay_mode == "strict" and not args.replay_log:
        print("error: --replay-mode=strict requires --replay-log",
              file=sys.stderr)
        return 2
    if args.replay_mode == "off" and args.replay_log:
        print("error: --replay-log requires --replay-mode=record|strict",
              file=sys.stderr)
        return 2
    if args.replay_mode != "off" and args.engine == "parallel":
        print("error: --replay-mode is not supported by the thread-"
              "parallel engine (use snapshot, replay or process)",
              file=sys.stderr)
        return 2
    if args.engine != "process":
        for flag, value in (
            ("--status-port", args.status_port),
            ("--status-log", args.status_log),
            ("--flight-dir", args.flight_dir),
            ("--chaos-crash-rate", args.chaos_crash_rate),
            ("--listen", args.listen),
        ):
            if value is not None:
                print(f"error: {flag} requires --engine process",
                      file=sys.stderr)
                return 2
        if args.transport != "pipe":
            print("error: --transport requires --engine process",
                  file=sys.stderr)
            return 2
    if args.listen is not None and args.transport != "tcp":
        print("error: --listen requires --transport tcp", file=sys.stderr)
        return 2
    listen = None
    if args.listen is not None:
        try:
            listen = _parse_hostport(args.listen)
        except ValueError:
            print(f"error: --listen expects HOST:PORT, got {args.listen!r}",
                  file=sys.stderr)
            return 2
    if args.task_timeout <= 0:
        print("error: --task-timeout must be > 0", file=sys.stderr)
        return 2
    digest = program_digest(program)
    seed_log = None
    if args.replay_log:
        import os as _os

        if args.replay_mode == "strict" or _os.path.exists(args.replay_log):
            try:
                seed_log = NondetLog.load(args.replay_log, program=digest)
            except ReplayDivergenceError as err:
                print(f"replay log refused: {err}", file=sys.stderr)
                return 4

    input_script = None
    if args.input:
        try:
            with open(args.input, "rb") as handle:
                input_script = handle.read()
        except OSError as err:
            print(f"error: cannot read {args.input}: {err}", file=sys.stderr)
            return 2

    if args.verify != "off":
        # The gate lives here (not in each engine) so every engine choice
        # — including replay and thread-parallel, which take no verify
        # parameter — shares one analysis and one summary table.  The
        # report is memoised, so engines that re-verify pay nothing.
        from repro.analysis import analyze as _analyze
        from repro.analysis.verifier import strict_failure

        report = _analyze(program)
        if not args.quiet:
            print(report.render_human())
            print()
        if args.verify == "strict":
            failure = strict_failure(
                report, allow_recordable=args.replay_mode != "off"
            )
            if failure is not None:
                print(f"error: {failure}", file=sys.stderr)
                return 2

    def input_source():
        if input_script is None:
            return None
        from repro.libos.console import InputSource

        return InputSource(input_script)

    if args.engine == "snapshot":
        engine = MachineEngine(
            strategy=args.strategy,
            snapshot_mode=args.snapshot_mode,
            max_solutions=args.max_solutions,
            max_steps_per_extension=args.max_steps,
            replay_mode=args.replay_mode,
            replay_log=seed_log,
            input=input_source(),
        )
    elif args.engine == "parallel":
        engine = ParallelMachineEngine(
            workers=args.workers,
            strategy=args.strategy,
            max_solutions=args.max_solutions,
            max_steps_per_extension=args.max_steps,
        )
    elif args.engine == "process":
        if args.resume and not args.journal:
            print("error: --resume requires --journal", file=sys.stderr)
            return 2
        chaos = None
        if (args.chaos_kill_epoch is not None
                or args.chaos_crash_rate is not None):
            if args.chaos_kill_epoch is not None and not args.journal:
                print("error: --chaos-kill-epoch requires --journal",
                      file=sys.stderr)
                return 2
            crash_rate = args.chaos_crash_rate or 0.0
            if not 0.0 <= crash_rate <= 1.0:
                print("error: --chaos-crash-rate must be in [0, 1]",
                      file=sys.stderr)
                return 2
            from repro.chaos import FaultPlan

            chaos = FaultPlan(
                coordinator_kill_epoch=args.chaos_kill_epoch,
                crash_rate=crash_rate,
            )
        if args.status_port is not None and args.status_port != 0:
            # Port 0 asks the OS for a free port; its URL is only known
            # once the server binds, so it is reported after the run.
            print(f"status: http://127.0.0.1:{args.status_port}/status",
                  file=sys.stderr)
        engine = ProcessParallelEngine(
            workers=args.workers,
            strategy=args.strategy,
            batch_size=args.batch_size,
            subtree_depth=args.subtree_depth,
            task_step_budget=args.task_step_budget,
            task_timeout=args.task_timeout,
            max_solutions=args.max_solutions,
            max_steps_per_extension=args.max_steps,
            # Re-verifying is free (memoised) and ships the analyzer's
            # nondeterminism sites to the replaying workers.
            verify=args.verify,
            journal=args.journal,
            resume=args.resume,
            fsync=args.fsync,
            min_workers=args.min_workers,
            chaos=chaos,
            replay_mode=args.replay_mode,
            replay_log=seed_log,
            input_script=input_script,
            status_port=args.status_port,
            status_log=args.status_log,
            status_interval=args.status_interval,
            flight_dir=args.flight_dir,
            transport=args.transport,
            listen=listen,
        )
        if args.transport == "tcp" and listen is not None:
            print(f"accepting workers on {listen[0]}:{listen[1]} "
                  "(join with: repro.tools.run_guest --connect "
                  f"{listen[0]}:{listen[1]})", file=sys.stderr)
    else:
        engine = ReplayMachineEngine(
            strategy=args.strategy,
            max_solutions=args.max_solutions,
            max_steps_per_path=args.max_steps,
            replay_mode=args.replay_mode,
            replay_log=seed_log,
            input=input_source(),
        )

    from repro.core.errors import CoordinatorKilled, ResumeMismatchError

    with contextlib.ExitStack() as stack:
        if args.obs_trace:
            stack.enter_context(TRACER.to_file(args.obs_trace))
        try:
            result = engine.run(program)
        except CoordinatorKilled as err:
            # Chaos injection: the run is interrupted, not lost — the
            # journal has everything needed to resume.
            print(f"coordinator killed: {err}", file=sys.stderr)
            print(f"resume with: --engine process --journal {args.journal} "
                  "--resume", file=sys.stderr)
            return 3
        except ResumeMismatchError as err:
            print(f"resume refused: {err}", file=sys.stderr)
            return 2
        except ReplayDivergenceError as err:
            # Strict replay caught the guest deviating from the recorded
            # execution (or the log was incomplete): fail loudly.
            print(f"replay divergence: {err}", file=sys.stderr)
            return 4
    if args.replay_mode == "record" and args.replay_log:
        final_log = getattr(engine, "replay_log", None)
        if final_log is None and getattr(engine, "recorder", None) is not None:
            final_log = engine.recorder.log
        if final_log is not None:
            written = final_log.save(args.replay_log, program=digest)
            print(f"replay log: {written} event(s) written to "
                  f"{args.replay_log}", file=sys.stderr)
    if args.obs_trace:
        print(f"trace written to {args.obs_trace}", file=sys.stderr)
    print(result.summary())
    if not args.quiet:
        for solution in result.solutions:
            status, text = solution.value
            line = f"  path={solution.path} exit={status}"
            if text:
                line += f" output={text.strip()!r}"
            print(line)
        if args.transcript and hasattr(engine, "failed_output"):
            for text in engine.failed_output():
                print(f"  [failed path] {text.strip()!r}")
        extra = result.stats.extra
        if "guest_instructions" in extra:
            print(f"  guest instructions: {extra['guest_instructions']:,}")
        if "snapshots_taken" in extra:
            print(
                f"  snapshots: {extra['snapshots_taken']} taken, "
                f"{extra.get('snapshots_restored', 0)} restored; "
                f"COW pages copied: {extra.get('frames_copied', 0)}"
            )
        if "journal" in extra:
            line = (
                f"  journal: {extra['journal']} "
                f"({extra['journal_records']} records, "
                f"{extra['journal_fsyncs']} fsyncs)"
            )
            if extra.get("resumed"):
                line += (
                    f"; resumed with {extra['resume_pending']} pending, "
                    f"{extra['resume_solutions']} recovered solutions"
                )
            print(line)
        if "steals" in extra:
            line = (
                f"  scheduling [{extra.get('transport', 'pipe')}]: "
                f"{extra['steals']} steals, "
                f"{extra['leases_expired']} leases reclaimed, "
                f"{extra['fenced_stale']} stale results fenced"
            )
            if extra.get("worker_joins"):
                line += f", {extra['worker_joins']} workers joined"
            if extra.get("degraded"):
                line += "; degraded: finished in-process"
            print(line)
        if "heartbeats" in extra:
            line = f"  telemetry: {extra['heartbeats']} heartbeats"
            if "status_url" in extra:
                line += f"; served at {extra['status_url']}"
            if args.status_log:
                line += f"; samples in {args.status_log}"
            print(line)
        for dump in extra.get("flight_dumps", []):
            print(f"  flight dump: {dump}")
    return 0 if result.solutions or result.exhausted else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
