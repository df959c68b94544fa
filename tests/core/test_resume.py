"""Crash/resume differential tests: the journal keeps every solution.

The invariant throughout: a run interrupted at *any* point — chaos kill
at a journal epoch, a torn final write, silent bit rot, or a real
``SIGKILL`` of the coordinator process — and then resumed from its
journal produces **exactly** the solution multiset of an uninterrupted
run.  Nothing lost, nothing doubled.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.chaos import FaultPlan
from repro.core.cluster import ProcessParallelEngine
from repro.core.errors import CoordinatorKilled, ResumeMismatchError
from repro.core.journal import recover
from repro.core.machine import MachineEngine
from repro.workloads.nqueens import nqueens_asm


def solution_multiset(result):
    return sorted((s.path, s.value) for s in result.solutions)


@pytest.fixture(scope="module")
def baseline_6():
    return solution_multiset(MachineEngine().run(nqueens_asm(6)))


def engine(journal, resume=False, chaos=None, **kwargs):
    params = dict(workers=2, task_step_budget=3000, fsync="off")
    params.update(kwargs)
    return ProcessParallelEngine(
        journal=journal, resume=resume, chaos=chaos, **params
    )


class TestKillAndResume:
    @pytest.mark.parametrize("epoch", [3, 10, 25])
    def test_resumed_multiset_matches_uninterrupted(
        self, tmp_path, baseline_6, epoch
    ):
        journal = str(tmp_path / "run.journal")
        plan = FaultPlan(coordinator_kill_epoch=epoch)
        with pytest.raises(CoordinatorKilled):
            engine(journal, chaos=plan).run(nqueens_asm(6))
        result = engine(journal, resume=True).run(nqueens_asm(6))
        assert solution_multiset(result) == baseline_6
        assert result.exhausted
        assert result.stats.extra["resumed"] is True

    def test_double_kill_double_resume(self, tmp_path, baseline_6):
        """Epochs continue across resume, so a second kill lands later."""
        journal = str(tmp_path / "run.journal")
        with pytest.raises(CoordinatorKilled):
            engine(
                journal, chaos=FaultPlan(coordinator_kill_epoch=5)
            ).run(nqueens_asm(6))
        with pytest.raises(CoordinatorKilled):
            engine(
                journal, resume=True,
                chaos=FaultPlan(coordinator_kill_epoch=15),
            ).run(nqueens_asm(6))
        result = engine(journal, resume=True).run(nqueens_asm(6))
        assert solution_multiset(result) == baseline_6

    def test_torn_write_is_dropped_and_survived(self, tmp_path, baseline_6):
        journal = str(tmp_path / "run.journal")
        plan = FaultPlan(journal_tear_epoch=12)
        with pytest.raises(CoordinatorKilled):
            engine(journal, chaos=plan).run(nqueens_asm(6))
        recovered = recover(journal)
        assert recovered.torn == 1
        result = engine(journal, resume=True).run(nqueens_asm(6))
        assert solution_multiset(result) == baseline_6
        # The resumed writer truncated the torn bytes away.
        assert recover(journal).torn == 0

    def test_worker_chaos_during_resumed_run(self, tmp_path, baseline_6):
        """Resume itself must survive worker faults (sterile keeps them)."""
        journal = str(tmp_path / "run.journal")
        plan = FaultPlan(seed=4, crash_rate=0.4, coordinator_kill_epoch=10)
        with pytest.raises(CoordinatorKilled):
            engine(
                journal, chaos=plan, max_task_retries=4, task_timeout=10.0
            ).run(nqueens_asm(6))
        result = engine(
            journal, resume=True, chaos=plan.sterile(),
            max_task_retries=4, task_timeout=10.0,
        ).run(nqueens_asm(6))
        assert solution_multiset(result) == baseline_6

    def test_resume_refuses_a_different_program(self, tmp_path):
        journal = str(tmp_path / "run.journal")
        with pytest.raises(CoordinatorKilled):
            engine(
                journal, chaos=FaultPlan(coordinator_kill_epoch=5)
            ).run(nqueens_asm(6))
        with pytest.raises(ResumeMismatchError):
            engine(journal, resume=True).run(nqueens_asm(5))

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            ProcessParallelEngine(resume=True)


class TestCorruptionNeverDoubles:
    def test_corrupted_complete_record_is_re_explored_not_doubled(
        self, tmp_path, baseline_6
    ):
        """Bit rot on a ``complete`` loses the record, not correctness.

        The re-explored task re-spills children whose own completions
        are durable; the resume filter must drop those re-spills or
        their solutions would be counted twice.
        """
        journal = str(tmp_path / "run.journal")
        first = engine(journal).run(nqueens_asm(6))
        assert solution_multiset(first) == baseline_6

        with open(journal) as fh:
            lines = fh.readlines()
        target = None
        for i, line in enumerate(lines):
            if '"type":"complete"' in line and '"spilled":[{' in line:
                target = i
                if '"solutions":[[' in line:
                    break  # prefer one that also carried solutions
        assert target is not None
        lines[target] = lines[target].replace(
            '"type":"complete"', '"type":"cOmplete"', 1
        )
        with open(journal, "w") as fh:
            fh.writelines(lines)

        recovered = recover(journal)
        assert recovered.skipped == 1
        assert len(recovered.pending) == 1  # exactly the corrupted task

        result = engine(journal, resume=True).run(nqueens_asm(6))
        assert solution_multiset(result) == baseline_6
        assert result.stats.extra["journal_skipped"] == 1
        if '"spilled":[{' in "".join(lines):
            assert result.stats.extra["resume_spills_filtered"] >= 1


_CHILD = """
import sys
from repro.core.cluster import ProcessParallelEngine
from repro.workloads.nqueens import nqueens_asm

engine = ProcessParallelEngine(
    workers=2, task_step_budget=1500, journal=sys.argv[1], fsync="off"
)
engine.run(nqueens_asm(6))
"""


class TestRealSigkill:
    def test_sigkill_mid_run_then_resume(self, tmp_path, baseline_6):
        """An actual ``kill -9`` of a live coordinator process."""
        journal = str(tmp_path / "run.journal")
        script = tmp_path / "child.py"
        script.write_text(_CHILD)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.Popen(
            [sys.executable, str(script), journal], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before we could kill it: still fine
                try:
                    with open(journal) as fh:
                        if sum(1 for _ in fh) >= 10:
                            child.send_signal(signal.SIGKILL)
                            break
                except FileNotFoundError:
                    pass
                time.sleep(0.01)
            else:
                pytest.fail("coordinator never journaled 10 records")
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
                child.wait()

        result = engine(
            journal, resume=True, task_step_budget=1500
        ).run(nqueens_asm(6))
        assert solution_multiset(result) == baseline_6
        assert result.exhausted

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_workers_of_a_killed_coordinator_exit(self, tmp_path, transport):
        """Workers notice a ``kill -9``-ed coordinator and exit.

        Each pipe worker must see EOF once the coordinator's pipe ends
        are gone, which fails if a forked worker keeps an inherited copy
        of its own coordinator end or of an earlier worker's.  A TCP
        worker whose connection ends exits at once, as a pipe worker
        does: it does not dial again.
        """
        journal = str(tmp_path / "run.journal")
        script = tmp_path / "coordinator.py"
        script.write_text(
            _CHILD.replace("nqueens_asm(6)", "nqueens_asm(7)")
            .replace('fsync="off"', f'fsync="off", transport="{transport}"')
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.Popen(
            [sys.executable, str(script), journal], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 or _journal_lines(journal) < 10:
                assert child.poll() is None, "coordinator exited before the kill"
                assert time.monotonic() < deadline, "run never got going"
                time.sleep(0.01)
                workers = _children(child.pid)
            assert len(workers) == 2
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not any(_running(pid) for pid in workers):
                    break
                time.sleep(0.05)
            survivors = [pid for pid in workers if _running(pid)]
            assert not survivors, f"orphaned workers still running: {survivors}"
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
                child.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def _journal_lines(path):
    try:
        with open(path) as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0


def _proc_stat(pid):
    """``(state, ppid)`` of *pid* from ``/proc``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return fields[0], int(fields[1])


def _children(pid):
    """PIDs of *pid*'s live child processes."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                out.append(int(entry))
    return sorted(out)


def _running(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestRecordModeResume:
    """Crash tolerance for *nondeterministic* guests (record mode).

    The journal orders every ``nondet`` record before its task's
    ``complete``, so a kill can lose completions but never the events
    their solutions depended on: the resumed run re-explores with the
    recorded outcomes replayed — it reproduces, never re-rolls.
    """

    def run_quiet(self, engine, guest):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return engine.run(guest)

    @pytest.mark.parametrize("epoch", [3, 8, 18])
    def test_killed_recording_run_resumes_self_consistent(
        self, tmp_path, epoch
    ):
        from repro.core.recorder import NondetLog
        from repro.workloads.nqueens import (
            KNOWN_SOLUTION_COUNTS,
            nqueens_randomized_asm,
        )

        guest = nqueens_randomized_asm(5)
        journal = str(tmp_path / "run.journal")
        kwargs = dict(verify="warn", replay_mode="record",
                      task_step_budget=1500)
        with pytest.raises(CoordinatorKilled):
            self.run_quiet(
                engine(journal,
                       chaos=FaultPlan(coordinator_kill_epoch=epoch),
                       **kwargs),
                guest,
            )
        resumed = engine(journal, resume=True, **kwargs)
        result = self.run_quiet(resumed, guest)
        assert len(result.solutions) == KNOWN_SOLUTION_COUNTS[5]
        assert result.exhausted

        # The combined run is reproducible from its own merged log: a
        # strict sequential replay lands on the identical multiset.
        strict = MachineEngine(replay_mode="strict",
                               replay_log=resumed.replay_log)
        replayed = self.run_quiet(strict, guest)
        assert solution_multiset(replayed) == solution_multiset(result)

        # And the journal's nondet tail IS the final in-memory log —
        # nothing the run depended on lives only in process memory.
        recovered = recover(journal)
        rebuilt = NondetLog()
        rebuilt.merge_records(recovered.nondet_events)
        assert rebuilt == resumed.replay_log

    def test_resume_replays_instead_of_rerolling_lost_subtrees(
        self, tmp_path
    ):
        """Force re-exploration by corrupting a ``complete`` record whose
        events survived; the re-explored subtree must reuse them."""
        from repro.core.recorder import NondetLog
        from repro.workloads.nqueens import nqueens_randomized_asm

        guest = nqueens_randomized_asm(4)
        journal = str(tmp_path / "run.journal")
        kwargs = dict(verify="warn", replay_mode="record",
                      task_step_budget=1000)
        first = self.run_quiet(engine(journal, **kwargs), guest)
        baseline = solution_multiset(first)

        with open(journal) as fh:
            lines = fh.readlines()
        target = next(
            i for i, line in enumerate(lines)
            if '"type":"complete"' in line and '"solutions":[[' in line
        )
        lines[target] = lines[target].replace(
            '"type":"complete"', '"type":"cOmplete"', 1
        )
        with open(journal, "w") as fh:
            fh.writelines(lines)

        result = self.run_quiet(engine(journal, resume=True, **kwargs),
                                guest)
        # Identical multiset: the lost subtree's entropy was replayed
        # from the journaled events, not drawn again.
        assert solution_multiset(result) == baseline
        assert result.stats.extra["journal_skipped"] == 1


class TestRunGuestFlags:
    def test_kill_then_resume_via_cli(self, tmp_path, capsys):
        from repro.tools import run_guest

        source = tmp_path / "queens.s"
        source.write_text(nqueens_asm(4))
        journal = str(tmp_path / "run.journal")
        common = [
            str(source), "--engine", "process", "--workers", "2",
            "--task-step-budget", "500", "--verify", "off",
            "--journal", journal,
        ]
        assert run_guest.main(common + ["--chaos-kill-epoch", "6"]) == 3
        err = capsys.readouterr().err
        assert "coordinator killed" in err
        assert "--resume" in err
        assert run_guest.main(common + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 solution(s)" in out
        assert "resumed with" in out

    def test_flag_validation(self, tmp_path, capsys):
        from repro.tools import run_guest

        source = tmp_path / "queens.s"
        source.write_text(nqueens_asm(4))
        base = [str(source), "--engine", "process"]
        assert run_guest.main(base + ["--resume"]) == 2
        capsys.readouterr()
        assert run_guest.main(base + ["--chaos-kill-epoch", "3"]) == 2
        capsys.readouterr()

    def test_record_kill_resume_then_strict_replay_via_cli(
        self, tmp_path, capsys
    ):
        """The full nondet crash story, CLI end to end: record a run,
        kill it mid-flight, resume it, save its replay log, then verify
        the log under --replay-mode=strict on the sequential engine."""
        from repro.workloads.nqueens import nqueens_randomized_asm
        from repro.tools import run_guest

        source = tmp_path / "rqueens.s"
        source.write_text(nqueens_randomized_asm(4))
        journal = str(tmp_path / "run.journal")
        replay_log = str(tmp_path / "run.replay")
        common = [
            str(source), "--engine", "process", "--workers", "2",
            "--task-step-budget", "400", "--verify", "off",
            "--journal", journal, "--replay-mode", "record",
            "--replay-log", replay_log,
        ]
        assert run_guest.main(common + ["--chaos-kill-epoch", "3"]) == 3
        assert "coordinator killed" in capsys.readouterr().err
        assert run_guest.main(common + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "2 solution(s)" in captured.out
        assert "replay log:" in captured.err

        assert run_guest.main([
            str(source), "--engine", "snapshot", "--verify", "off",
            "--replay-mode", "strict", "--replay-log", replay_log,
        ]) == 0
        assert "2 solution(s)" in capsys.readouterr().out

    def test_replay_flag_validation(self, tmp_path, capsys):
        from repro.tools import run_guest

        source = tmp_path / "queens.s"
        source.write_text(nqueens_asm(4))
        # strict without a log file to replay from is meaningless.
        assert run_guest.main(
            [str(source), "--replay-mode", "strict"]
        ) == 2
        capsys.readouterr()
        # A log path without a replay mode is a likely operator error.
        assert run_guest.main(
            [str(source), "--replay-log", str(tmp_path / "x.replay")]
        ) == 2
        capsys.readouterr()
        # strict pointing at a missing file refuses with the typed error.
        assert run_guest.main(
            [str(source), "--replay-mode", "strict",
             "--replay-log", str(tmp_path / "absent.replay")]
        ) == 4
        assert "replay log refused" in capsys.readouterr().err

    def test_tampered_log_file_refused_via_cli(self, tmp_path, capsys):
        from repro.tools import run_guest
        from repro.workloads.nqueens import nqueens_randomized_asm

        source = tmp_path / "rqueens.s"
        source.write_text(nqueens_randomized_asm(4))
        replay_log = str(tmp_path / "run.replay")
        assert run_guest.main([
            str(source), "--verify", "off", "--quiet",
            "--replay-mode", "record", "--replay-log", replay_log,
        ]) == 0
        capsys.readouterr()
        with open(replay_log, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 0x20
        with open(replay_log, "wb") as fh:
            fh.write(blob)
        assert run_guest.main([
            str(source), "--verify", "off", "--quiet",
            "--replay-mode", "strict", "--replay-log", replay_log,
        ]) == 4
        assert "replay log refused" in capsys.readouterr().err
