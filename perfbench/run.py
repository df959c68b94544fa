#!/usr/bin/env python3
"""The repository benchmark: four workloads over the sequential and
process engines, end to end and (traced) layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload nqueens-9 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced repetitions with repetitions whose
layer entry points are wrapped in spans (``perfbench/tracing.py``) and
reports per-layer calls, self times and counts, plus the tracing
overhead.  Both check every output and the pinned simulated counters
(``perfbench/pins.json``) on every repetition.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``perfbench/README.md`` explains the
workloads and which layer metric should move which end-to-end metric.

``--toy`` shrinks every workload to a few seconds (the smoke test);
``--write-pins`` re-records ``pins.json`` from the current program.
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"
OUT_DIR = ROOT / ".perfbench"

#: ``synth-coarse`` draws its compute and locality knobs from this family
#: (depth and fanout stay fixed, so every seed runs the same tree).
SYNTH_WORK = (296, 298, 300, 302, 304)
SYNTH_PAGES = (15, 16, 17)
#: ``crashfs-corpus`` sweeps every plan this many times per repetition.
CRASH_SWEEPS = 12
CRASH_TOY_PLANS = ("journaled_append_clean", "journaled_append_missing_fsync")
#: Set-up-only samples taken before each timed repetition (at least this
#: many, for at least this long), so that they spread over the whole run.
SETUP_PER_REP = 3
SETUP_ROUND_S = 0.05
#: A sequential search is cut into about this many slices of equal guest
#: work for ``wall_s`` (see :func:`sliced_wall`).
SLICES = 1024

now = time.perf_counter


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {src}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# What one repetition produced
# ----------------------------------------------------------------------


@dataclass
class Rep:
    """One timed repetition, after its outputs were checked."""

    searches: int
    extensions: int
    instructions: int
    #: Searches whose outputs or pinned counters were wrong.
    failed: int = 0
    diffs: list[str] = field(default_factory=list)
    #: Simulated counters summed over the repetition's searches.
    counts: dict = field(default_factory=dict)


def _jsonable(value):
    return json.loads(json.dumps(value))


def machine_counters(result) -> dict:
    """The simulated cost counters of one ``MachineEngine`` search."""
    x = result.stats.extra
    return _jsonable({
        "solutions": len(result.solutions),
        "extensions": result.stats.evaluations,
        "guest_instructions": x["guest_instructions"],
        "vm_exit_counts": x["vm_exit_counts"],
        "syscall_counts": {str(k): v for k, v in sorted(x["syscall_counts"].items())},
        "snapshots_taken": x["snapshots_taken"],
        "snapshots_restored": x["snapshots_restored"],
        "snapshots_peak_live": x["snapshots_peak_live"],
        "frames_copied": x["frames_copied"],
        "frames_peak": x["frames_peak"],
        "peak_frontier": result.stats.peak_frontier,
        "file_stats": x["file_stats"],
    })


CLUSTER_KEYS = ("tasks_dispatched", "tasks_completed", "tasks_spilled",
                "replay_steps", "guest_instructions",
                "snapshots_taken", "snapshots_restored", "frames_copied")
CLUSTER_FAILURE_KEYS = ("tasks_retried", "worker_crashes", "task_timeouts",
                        "tasks_dropped", "protocol_errors")


def cluster_counters(result) -> dict:
    """The simulated counters of one ``ProcessParallelEngine`` search.
    (Steals and the peak frontier depend on worker timing, so they are
    not here.)"""
    x = result.stats.extra
    out = {k: x[k] for k in CLUSTER_KEYS}
    out.update(solutions=len(result.solutions),
               extensions=result.stats.evaluations,
               failures=sum(x[k] for k in CLUSTER_FAILURE_KEYS))
    return _jsonable(out)


def merge_counts(into: dict, counts: dict) -> None:
    """Sum counters (maxima for peaks), recursing into nested tables."""
    for key, value in counts.items():
        if isinstance(value, dict):
            merge_counts(into.setdefault(key, {}), value)
        elif "peak" in key:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def pin_diff(pins: dict, key: str, got: dict) -> list[str]:
    """Differences between pinned and observed counters, one per line."""
    want = pins.get(key)
    if want is None:
        return [f"{key}: no pinned counters (re-record with --write-pins)"]
    lines = [f"  {name}: pinned {want.get(name)!r}, got {got.get(name)!r}"
             for name in sorted(set(want) | set(got))
             if want.get(name) != got.get(name)]
    return [f"{key}: simulated counters drifted\n" + "\n".join(lines)] if lines else []


def board_digest(values) -> str:
    return hashlib.sha256(
        "\n".join(sorted(repr(v) for v in values)).encode()
    ).hexdigest()


def board_diffs(n: int, values, pins: dict) -> list[str]:
    """Every n-queens board must be valid, distinct, complete in number,
    and the multiset must equal the sequential engine's."""
    from repro.workloads.nqueens import KNOWN_SOLUTION_COUNTS

    diffs = []
    boards = [text.strip() for _status, text in values]
    bad = [b for b in boards if not _valid_board(n, b)]
    if bad:
        diffs.append(f"{len(bad)} invalid {n}-queens boards, e.g. {bad[:3]}")
    if any(status != 0 for status, _ in values):
        diffs.append("a board path exited with a non-zero status")
    want = KNOWN_SOLUTION_COUNTS[n]
    if len(boards) != want or len(set(boards)) != want:
        diffs.append(f"expected {want} distinct boards, got {len(boards)} "
                     f"({len(set(boards))} distinct)")
    pinned = pins.get(f"boards:{n}")
    if pinned != board_digest(values):
        diffs.append(f"board multiset digest {board_digest(values)[:16]} "
                     f"!= sequential {str(pinned)[:16]}")
    return diffs


def _valid_board(n: int, board: str) -> bool:
    if len(board) != n or not board.isdigit():
        return False
    rows = [int(ch) for ch in board]
    return (len(set(rows)) == n and max(rows) < n
            and len({r + c for c, r in enumerate(rows)}) == n
            and len({r - c for c, r in enumerate(rows)}) == n)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class NQueens:
    """Figure 1: find-all n-queens on the sequential ``MachineEngine``."""

    sliced = True

    def __init__(self, n: int):
        self.n = n
        self.key = f"nqueens:{n}"

    def setup(self):
        from repro.core.machine import MachineEngine
        from repro.cpu.assembler import assemble
        from repro.workloads.nqueens import nqueens_asm

        return assemble(nqueens_asm(self.n)), MachineEngine()

    def run(self, prepared):
        program, engine = prepared
        return engine.run(program)

    def pins(self, result) -> dict:
        return {self.key: machine_counters(result),
                f"boards:{self.n}": board_digest(result.solution_values)}

    def check(self, result, pins: dict) -> Rep:
        counts = machine_counters(result)
        diffs = board_diffs(self.n, result.solution_values, pins)
        diffs += pin_diff(pins, self.key, counts)
        return Rep(1, counts["extensions"], counts["guest_instructions"],
                   int(bool(diffs)), diffs, counts)


class Synthetic:
    """The E3 kernel: coarse extensions, compute and COW faults dominate."""

    fanout = 4
    sliced = True

    def __init__(self, depth: int, work: int, pages: int):
        self.depth, self.work, self.pages = depth, work, pages
        self.key = f"synth:{depth}:{self.fanout}:{work}:{pages}"

    def setup(self):
        from repro.core.machine import MachineEngine
        from repro.cpu.assembler import assemble
        from repro.workloads.synthetic import synthetic_asm

        guest = synthetic_asm(self.depth, self.fanout, self.work, self.pages)
        return assemble(guest), MachineEngine()

    def run(self, prepared):
        program, engine = prepared
        return engine.run(program)

    def pins(self, result) -> dict:
        return {self.key: machine_counters(result)}

    def check(self, result, pins: dict) -> Rep:
        counts = machine_counters(result)
        leaves = collections.Counter(status for status, _ in result.solution_values)
        expected = collections.Counter(range(self.fanout ** self.depth))
        diffs = []
        if leaves != expected:
            missing = sorted((expected - leaves).elements())
            extra = sorted((leaves - expected).elements())
            diffs.append(f"leaf values: missing {missing[:8]} ({len(missing)}), "
                         f"unexpected or repeated {extra[:8]} ({len(extra)})")
        diffs += pin_diff(pins, self.key, counts)
        return Rep(1, counts["extensions"], counts["guest_instructions"],
                   int(bool(diffs)), diffs, counts)


class CrashCorpus:
    """``run_crashfind`` over the seeded crash corpus, sweeps in a
    seed-shuffled order (the same order in every repetition of a run).
    ``run_crashfind`` generates, assembles and runs each guest itself;
    set-up times that same preparation."""

    sliced = True

    def __init__(self, plan_names, sweeps: int, seed: int):
        from repro.workloads.crashfs import CORPUS

        plans = [CORPUS[name] for name in plan_names]
        rng = random.Random(seed)
        self.plans = plans
        self.orders = [rng.sample(plans, len(plans)) for _ in range(sweeps)]

    def setup(self):
        from repro.core.machine import MachineEngine
        from repro.cpu.assembler import assemble
        from repro.crashsim.harness import crash_asm
        from repro.crashsim.model import hostfs_for, simulate

        for plan in self.plans:
            assemble(crash_asm(plan, simulate(plan)))
            MachineEngine(hostfs=hostfs_for(plan))
        return self.orders

    def run(self, orders):
        from repro.core.machine import MachineEngine
        from repro.crashsim import harness

        results = []

        class Recording(MachineEngine):
            def run(self, guest):
                results.append(super().run(guest))
                return results[-1]

        harness.MachineEngine = Recording
        try:
            reports = [harness.run_crashfind(plan) for order in orders
                       for plan in order]
        finally:
            harness.MachineEngine = MachineEngine
        return list(zip(reports, results))

    @staticmethod
    def _counts(report, result) -> dict:
        counts = machine_counters(result)
        counts.update(survivors=len(report.survivors),
                      crash_points=report.crash_points)
        return counts

    def pins(self, searches) -> dict:
        return {f"crash:{report.plan_name}": self._counts(report, result)
                for report, result in searches}

    def check(self, searches, pins: dict) -> Rep:
        rep = Rep(len(searches), 0, 0)
        for report, result in searches:
            counts = self._counts(report, result)
            diffs = pin_diff(pins, f"crash:{report.plan_name}", counts)
            if not report.verdict_ok:
                blames = sorted({tag for s in report.survivors for tag in s.blame})
                diffs.append(
                    f"{report.plan_name}: expected "
                    f"{'a bug blaming ' + str(sorted(report.expected_blame)) if report.expect_bug else 'clean'}"
                    f", got {len(report.survivors)} survivors blaming {blames}")
            rep.failed += int(bool(diffs))
            rep.diffs += diffs
            rep.extensions += counts["extensions"]
            rep.instructions += counts["guest_instructions"]
            merge_counts(rep.counts, counts)
        return rep


class NQueensProcess:
    """The same n-queens guest on two pipe-connected worker processes."""

    #: The guest runs in the workers, so the search is timed whole.
    sliced = False

    def __init__(self, n: int):
        self.n = n
        self.key = f"proc2:nqueens:{n}"

    def setup(self):
        from repro.core.cluster import ProcessParallelEngine
        from repro.cpu.assembler import assemble
        from repro.workloads.nqueens import nqueens_asm

        return (assemble(nqueens_asm(self.n)),
                ProcessParallelEngine(workers=2, transport="pipe"))

    def run(self, prepared):
        program, engine = prepared
        return engine.run(program)

    def pins(self, result) -> dict:
        return {self.key: cluster_counters(result)}

    def check(self, result, pins: dict) -> Rep:
        counts = cluster_counters(result)
        diffs = board_diffs(self.n, result.solution_values, pins)
        sequential = pins.get(f"nqueens:{self.n}", {}).get("guest_instructions")
        if counts["guest_instructions"] != sequential:
            diffs.append(f"work conservation: guest_instructions "
                         f"{counts['guest_instructions']} != sequential {sequential}")
        diffs += pin_diff(pins, self.key, counts)
        counts.update(peak_frontier=result.stats.peak_frontier,
                      steals=result.stats.extra["steals"])
        return Rep(1, counts["extensions"], counts["guest_instructions"],
                   int(bool(diffs)), diffs, counts)


WORKLOADS = ("nqueens-9", "synth-coarse", "crashfs-corpus", "nqueens-9-proc2")


def make_workload(name: str, seed: int, toy: bool):
    if name == "nqueens-9":
        return NQueens(6 if toy else 9)
    if name == "synth-coarse":
        rng = random.Random(seed)
        return Synthetic(3 if toy else 6, rng.choice(SYNTH_WORK),
                         rng.choice(SYNTH_PAGES))
    if name == "crashfs-corpus":
        from repro.workloads.crashfs import CORPUS

        names = CRASH_TOY_PLANS if toy else tuple(CORPUS)
        return CrashCorpus(names, 1 if toy else CRASH_SWEEPS, seed)
    if name == "nqueens-9-proc2":
        return NQueensProcess(6 if toy else 9)
    raise ValueError(f"unknown workload {name!r}")


def write_pins() -> None:
    """Record the simulated counters of every workload variant."""
    from repro.workloads.crashfs import CORPUS

    variants = [NQueens(9), NQueens(6), NQueensProcess(9), NQueensProcess(6),
                CrashCorpus(tuple(CORPUS), 1, 0)]
    variants += [Synthetic(depth, work, pages) for depth in (6, 3)
                 for work in SYNTH_WORK for pages in SYNTH_PAGES]
    pins: dict = {}
    for workload in variants:
        pins.update(workload.pins(workload.run(workload.setup())))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pinned counter sets to {PINS_PATH}")


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


@dataclass
class Timings:
    setup: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)
    #: Set-up plus run of each untraced / traced repetition.
    rep: list[float] = field(default_factory=list)
    traced_rep: list[float] = field(default_factory=list)
    #: Per untraced repetition: its start, every ``VCpu.enter`` call, its end.
    marks: list[array] = field(default_factory=list)


class EnterClock:
    """Stamps every ``VCpu.enter`` call (one per VM exit), so a sequential
    search can be cut into slices of equal guest work.  The wrapper costs
    one call and one clock read per VM exit, the same in every run."""

    def __init__(self) -> None:
        from repro.vmm.vcpu import VCpu

        self.stamps = array("d")
        self._vcpu = VCpu
        self._enter = enter = vars(VCpu)["enter"]
        stamps = self.stamps

        @functools.wraps(enter)
        def stamped(*args, **kwargs):
            stamps.append(now())
            return enter(*args, **kwargs)

        VCpu.enter = stamped

    def restore(self) -> None:
        self._vcpu.enter = self._enter


def sample_setup(workload, timings: Timings) -> None:
    """Time set-up alone, at least :data:`SETUP_PER_REP` times and for at
    least :data:`SETUP_ROUND_S` seconds."""
    spent = 0.0
    for i in itertools.count():
        if i >= SETUP_PER_REP and spent >= SETUP_ROUND_S:
            return
        t0 = now()
        workload.setup()
        timings.setup.append(now() - t0)
        spent += timings.setup[-1]


def measure(workload, seconds: float, pins: dict, tracer=None):
    """Repeat set-up + run until *seconds* are spent; with a *tracer*,
    every second repetition is traced.  Returns (timings, reps, summary)."""
    timings, reps = Timings(), []
    summary = None
    if tracer is not None:
        from tracing import Summary

        summary = Summary()
    clock = EnterClock() if tracer is None and workload.sliced else None
    start, durations = now(), []
    try:
        while True:
            round_start = now()
            sample_setup(workload, timings)
            gc.collect()
            t0 = now()
            traced = tracer is not None and len(reps) % 2 == 1
            if traced:
                tracer.clear()
                result = tracer.run_root(lambda: workload.run(workload.setup()))
                timings.traced_rep.append(now() - t0)
                rep_summary = tracer.summarize()
                summary.add(rep_summary)
            else:
                prepared = workload.setup()
                if clock is not None:
                    del clock.stamps[:]
                t1 = now()
                result = workload.run(prepared)
                t2 = now()
                marks = array("d", [t1])
                if clock is not None:
                    marks.extend(clock.stamps)
                marks.append(t2)
                timings.marks.append(marks)
                timings.setup.append(t1 - t0)
                timings.run.append(t2 - t1)
                timings.rep.append(t2 - t0)
            reps.append(workload.check(result, pins))
            if traced:
                trace_diffs = _check_trace(rep_summary, timings.traced_rep[-1])
                reps[-1].failed += int(bool(trace_diffs))
                reps[-1].diffs += trace_diffs
            durations.append(now() - round_start)
            elapsed = now() - start
            if elapsed + statistics.median(durations) > seconds and (
                    tracer is None or timings.traced_rep):
                break
    finally:
        if clock is not None:
            clock.restore()
    return timings, reps, summary


def _check_trace(summary, outside_s: float) -> list[str]:
    """Self times must add up to the wall time measured outside the
    root span, and spans must nest."""
    diffs = [f"malformed trace: {error}" for error in summary.errors]
    total_s = sum(summary.self_ns.values()) / 1e9
    if abs(total_s - outside_s) > 0.01 * outside_s + 1e-3:
        diffs.append(f"layer self times sum to {total_s:.6f} s but the "
                     f"repetition took {outside_s:.6f} s")
    return diffs


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sliced_wall(marks: list[array]) -> float:
    """The search time with host noise taken out, from every repetition's
    marks (start, each ``VCpu.enter`` call, end).

    The search is deterministic, so every repetition makes the same calls
    and the k-th call marks the same point of the guest's work.  The marks
    cut each repetition into :data:`SLICES` slices of equal work, each
    slice takes its second-fastest time over the repetitions, and the
    slices add up.  Noise on a shared host comes in bursts of tens to
    hundreds of milliseconds that only slow the program down: a whole
    repetition of a few seconds always catches some, a slice of ~10 ms
    mostly does not.  When repetitions differ in their number of calls, or
    the guest runs in other processes, a whole repetition is one slice."""
    if len({len(m) for m in marks}) != 1:
        marks = [array("d", (m[0], m[-1])) for m in marks]
    steps = len(marks[0]) - 1
    cuts = list(range(0, steps, max(1, steps // SLICES))) + [steps]
    return sum(min(m[b] - m[a] for m in marks) for a, b in zip(cuts, cuts[1:]))


def end_to_end(timings: Timings, reps: list[Rep]) -> dict:
    wall = sliced_wall(timings.marks)
    attempted = sum(r.searches for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "setup_s": (statistics.median(timings.setup), "s"),
        "wall_s": (wall, "s"),
        "ext_per_s": (reps[0].extensions / wall, "1/s"),
        "insn_per_s": (reps[0].instructions / wall, "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


#: Per-layer time metrics: metric name -> span kinds ("layer:function",
#: or a layer prefix ending in ":") whose self time it sums.
LAYER_TIMES = {
    "cpu.self_s": "cpu:",
    "mem.self_s": "mem:",
    "mem.fork_cow.self_s": "mem:fork_cow",
    "mem.free.self_s": "mem:free",
    "snapshot.self_s": "snapshot:",
    "snapshot.take.self_s": "snapshot:take",
    "snapshot.restore.self_s": "snapshot:restore",
    "snapshot.discard.self_s": "snapshot:discard",
    "snapshot.pin.self_s": "snapshot:pin",
    "snapshot.unpin.self_s": "snapshot:unpin",
    "libos.self_s": "libos:",
    "libos.handle_exit.self_s": "libos:handle_exit",
    "libos.load.self_s": "libos:load",
    "libos.files.fork_cow.self_s": "libos:files.fork_cow",
    "libos.files.free.self_s": "libos:files.free",
    "search.self_s": "search:",
    "cpu.assembler.self_s": "cpu.assembler:",
    "crashsim.self_s": "crashsim:",
    "transport.self_s": "core.transport:",
    "transport.poll.wait_s": "core.transport.wait:",
    "engine.self_s": "bench.rep",
}
#: Per-layer call counts: metric name -> span kind.
LAYER_CALLS = {
    "cpu.calls": "cpu:enter",
    "mem.fork_cow.calls": "mem:fork_cow",
    "mem.free.calls": "mem:free",
    "snapshot.take.calls": "snapshot:take",
    "snapshot.restore.calls": "snapshot:restore",
    "snapshot.discard.calls": "snapshot:discard",
    "snapshot.pin.calls": "snapshot:pin",
    "snapshot.unpin.calls": "snapshot:unpin",
    "libos.handle_exit.calls": "libos:handle_exit",
    "libos.load.calls": "libos:load",
    "libos.files.fork_cow.calls": "libos:files.fork_cow",
    "libos.files.free.calls": "libos:files.free",
}
VM_EXIT_REASONS = ("syscall", "hlt", "page_fault", "cpu_exception", "step_limit")
FILE_STATS = ("cow_bytes", "records", "fsyncs", "syncs", "renames",
              "flushed_records", "crash_selects", "crash_commits")


def per_layer(summary, timings: Timings, rep: Rep) -> dict:
    """The traced run's per-layer metrics, per repetition."""
    nreps = len(timings.traced_rep)

    def self_s(kinds: str) -> float:
        match = (lambda k: k.startswith(kinds)) if kinds.endswith(":") else kinds.__eq__
        return sum(ns for k, ns in summary.self_ns.items() if match(k)) / nreps / 1e9

    out = {name: (self_s(kinds), "s") for name, kinds in LAYER_TIMES.items()}
    out.update({name: (summary.calls.get(kind, 0) / nreps, "count")
                for name, kind in LAYER_CALLS.items()})
    c = rep.counts
    insns = rep.instructions
    cpu_s = out["cpu.self_s"][0]
    # Means, like the self times: the self times add up to ``traced``.
    untraced = statistics.mean(timings.rep)
    traced = summary.root_ns / nreps / 1e9
    out.update({
        "cpu.ns_per_insn": (cpu_s * 1e9 / insns if insns and cpu_s else 0.0, "ns"),
        "engine.ext_fixed_us": ((untraced - cpu_s) / rep.extensions * 1e6, "us"),
        "mem.frames_copied": (c.get("frames_copied", 0), "count"),
        "mem.frames_peak": (c.get("frames_peak", 0), "count"),
        "snapshot.peak_live": (c.get("snapshots_peak_live", 0), "count"),
        "search.peak_frontier": (c.get("peak_frontier", 0), "count"),
        "libos.syscalls": (sum(c.get("syscall_counts", {}).values()), "count"),
        "cluster.tasks_dispatched": (c.get("tasks_dispatched", 0), "count"),
        "cluster.tasks_spilled": (c.get("tasks_spilled", 0), "count"),
        "cluster.steals": (c.get("steals", 0), "count"),
        "cluster.replay_steps": (c.get("replay_steps", 0), "count"),
        "cluster.replay_ratio": (c.get("replay_steps", 0) / insns, "ratio"),
        "cluster.failures": (c.get("failures", 0), "count"),
        "trace.rep_s": (traced, "s"),
        "trace.untraced_rep_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.spans": (summary.spans / nreps, "count"),
    })
    out.update({f"vmm.exits.{reason}": (c.get("vm_exit_counts", {}).get(reason, 0), "count")
                for reason in VM_EXIT_REASONS})
    out.update({f"libos.files.{stat}": (c.get("file_stats", {}).get(stat, 0), "count")
                for stat in FILE_STATS})
    return out


def environment() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} loadavg={load}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (n-queens 6, depth 3, two crash plans)")
    parser.add_argument("--write-pins", action="store_true",
                        help=f"re-record {PINS_PATH.name} and exit")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.write_pins:
        write_pins()
        return 0

    pins = json.loads(PINS_PATH.read_text())
    workload = make_workload(args.workload, args.seed, args.toy)
    tracer = None
    if args.trace:
        from tracing import SpanTracer

        tracer = SpanTracer()
        tracer.instrument()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} toy={args.toy} {environment()}", flush=True)
    try:
        timings, reps, summary = measure(workload, args.seconds, pins, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    for rep in reps:
        for diff in rep.diffs:
            print(f"CHECK FAILED: {diff}", file=sys.stderr)
    attempted = sum(r.searches for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        metrics = per_layer(summary, timings, reps[0])
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.dump(f"{stem}.spans")
        wall = metrics["trace.rep_s"][0]
        print(f"# {len(timings.traced_rep)} traced / {len(timings.rep)} untraced "
              f"repetitions; tracing overhead "
              f"{metrics['trace.overhead_s'][0]:+.4f} s "
              f"({metrics['trace.overhead_s'][0] / metrics['trace.untraced_rep_s'][0]:+.1%})")
        for name, (value, unit) in metrics.items():
            share = f"{value / wall:6.1%}" if name.endswith(("self_s", "wait_s")) else ""
            print(f"  {name:30s} {value:16.6f} {unit:6s} {share}")
    else:
        metrics = end_to_end(timings, reps)
        print(f"# {len(timings.run)} repetitions, {attempted} searches; run time "
              f"min {min(timings.run):.4f} s, max {max(timings.run):.4f} s")
        print("# run times (s): " + " ".join(f"{t:.4f}" for t in timings.run))
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
