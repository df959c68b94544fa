"""Tests for the run_guest and solve_cnf command-line tools."""

import pytest

from repro.sat import to_dimacs
from repro.sat.gen import pigeonhole, random_ksat
from repro.tools import chaos, run_guest, solve_cnf
from repro.workloads.nqueens import nqueens_asm


@pytest.fixture
def queens_file(tmp_path):
    path = tmp_path / "queens.s"
    path.write_text(nqueens_asm(4))
    return str(path)


class TestRunGuest:
    def test_basic_run(self, queens_file, capsys):
        assert run_guest.main([queens_file]) == 0
        out = capsys.readouterr().out
        assert "2 solution(s)" in out
        assert "snapshots:" in out

    def test_quiet(self, queens_file, capsys):
        run_guest.main([queens_file, "--quiet"])
        out = capsys.readouterr().out
        assert "snapshots:" not in out

    def test_engines(self, queens_file, capsys):
        for engine in ("snapshot", "replay", "parallel"):
            assert run_guest.main([queens_file, "--engine", engine]) == 0
            assert "2 solution(s)" in capsys.readouterr().out

    def test_process_engine(self, queens_file, capsys):
        assert run_guest.main(
            [queens_file, "--engine", "process", "--workers", "2",
             "--task-step-budget", "500"]
        ) == 0
        assert "2 solution(s)" in capsys.readouterr().out

    def test_process_engine_reports_degraded_run(self, tmp_path, capsys):
        # One worker under a floor of two: the pool is collapsed from
        # the start and the whole run finishes in-process.
        path = tmp_path / "queens5.s"
        path.write_text(nqueens_asm(5))
        assert run_guest.main(
            [str(path), "--engine", "process", "--workers", "1",
             "--min-workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "10 solution(s)" in out
        assert "degraded" in out

    def test_process_engine_rejects_a_zero_task_timeout(self, queens_file,
                                                        capsys):
        assert run_guest.main(
            [queens_file, "--engine", "process", "--workers", "1",
             "--task-timeout", "0"]
        ) == 2
        assert "--task-timeout must be > 0" in capsys.readouterr().err

    def test_snapshot_modes(self, queens_file, capsys):
        for mode in ("cow", "eager", "dirty-eager"):
            assert run_guest.main(
                [queens_file, "--snapshot-mode", mode]
            ) == 0
            capsys.readouterr()

    def test_strategy_option(self, queens_file, capsys):
        assert run_guest.main([queens_file, "--strategy", "bfs"]) == 0
        capsys.readouterr()

    def test_transcript_shows_failed_paths(self, tmp_path, capsys):
        path = tmp_path / "fig1.s"
        path.write_text(nqueens_asm(4, fig1_style=True))
        run_guest.main([str(path), "--transcript"])
        out = capsys.readouterr().out
        assert "[failed path]" in out

    def test_missing_file(self, capsys):
        assert run_guest.main(["/nonexistent.s"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_assembly_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("frobnicate rax")
        assert run_guest.main([str(bad)]) == 2
        assert "assembly error" in capsys.readouterr().err

    def test_max_solutions(self, queens_file, capsys):
        run_guest.main([queens_file, "--max-solutions", "1"])
        assert "1 solution(s)" in capsys.readouterr().out


class TestSolveCnf:
    def write(self, tmp_path, cnf):
        path = tmp_path / "f.cnf"
        path.write_text(to_dimacs(cnf))
        return str(path)

    def test_sat_instance(self, tmp_path, capsys):
        path = self.write(tmp_path, random_ksat(10, 20, seed=1, planted=True))
        assert solve_cnf.main([path]) == 10
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_unsat_instance(self, tmp_path, capsys):
        path = self.write(tmp_path, pigeonhole(3))
        assert solve_cnf.main([path]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_model_line_valid(self, tmp_path, capsys):
        cnf = random_ksat(8, 20, seed=2, planted=True)
        path = self.write(tmp_path, cnf)
        solve_cnf.main([path, "--model"])
        out = capsys.readouterr().out
        vline = next(l for l in out.splitlines() if l.startswith("v "))
        lits = [int(tok) for tok in vline[2:].split() if tok != "0"]
        model = {abs(l): l > 0 for l in lits}
        assert cnf.evaluate(model)

    def test_stats_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, pigeonhole(3))
        solve_cnf.main([path, "--stats"])
        assert "c conflicts" in capsys.readouterr().out

    def test_conflict_budget_unknown(self, tmp_path, capsys):
        path = self.write(tmp_path, pigeonhole(7))
        assert solve_cnf.main([path, "--max-conflicts", "3"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert solve_cnf.main(["/nope.cnf"]) == 2


class TestChaosSweep:
    @pytest.mark.parametrize("rates", [
        ["--crash-rate", "-1", "--stall-rate", "1.5"],
        ["--garbage-rate", "2"],
    ])
    def test_out_of_range_rates_are_refused_before_any_run(self, rates,
                                                           capsys):
        assert chaos.main(["--seeds", "0", *rates]) == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_a_zero_task_timeout_is_refused(self, capsys):
        assert chaos.main(["--seeds", "0", "--task-timeout", "0"]) == 2
        assert "--task-timeout must be > 0" in capsys.readouterr().err
