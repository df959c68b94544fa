"""Tests for the trace_report CLI: loading, summarizing, rendering."""

import json

import pytest

from repro.core.machine import MachineEngine
from repro.obs import events as ev
from repro.obs.trace import TRACER
from repro.tools import trace_report
from repro.workloads.nqueens import nqueens_asm


@pytest.fixture(scope="module")
def nqueens_trace(tmp_path_factory):
    """A real trace: MachineEngine solving 4-queens, written as JSONL."""
    path = str(tmp_path_factory.mktemp("trace") / "nqueens.jsonl")
    with TRACER.to_file(path):
        MachineEngine().run(nqueens_asm(4))
    return path


class TestLoadEvents:
    def test_loads_real_trace(self, nqueens_trace):
        events, skipped = trace_report.load_events(nqueens_trace)
        assert events
        assert skipped == 0
        assert all("type" in e and "seq" in e for e in events)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 0, "ts": 0.0, "type": "x"}\n\n\n')
        events, skipped = trace_report.load_events(str(path))
        assert len(events) == 1
        assert skipped == 0

    def test_bad_json_skipped_and_counted(self, tmp_path):
        # A truncated line (crashed run) must not lose the rest of the
        # trace — skip it, count it, keep going.
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"seq": 0, "ts": 0.0, "type": "x"}\n'
            'not json\n'
            '{"seq": 1, "ts": 0.1, "type": "y"}\n'
            '{"seq": 2, "ts": 0.2, "type": "z"'  # truncated mid-object
        )
        events, skipped = trace_report.load_events(str(path))
        assert [e["type"] for e in events] == ["x", "y"]
        assert skipped == 2

    def test_non_event_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('[1, 2, 3]\n{"seq": 0, "ts": 0.0, "type": "x"}\n')
        events, skipped = trace_report.load_events(str(path))
        assert len(events) == 1
        assert skipped == 1


class TestSummarize:
    def test_real_run_summary(self, nqueens_trace):
        events, _ = trace_report.load_events(nqueens_trace)
        summary = trace_report.summarize(events)

        snap = summary["snapshot"]
        assert snap["taken"] == snap["discarded"] > 0
        assert snap["end_live"] == 0
        assert snap["peak_live"] >= 1
        assert snap["pruned"] > 0

        cow = summary["cow_per_restore"]
        assert cow["restores"] == snap["restored"] > 0
        assert cow["per_restore_max"] >= cow["per_restore_mean"] >= 0
        assert len(cow["hottest"]) <= 5

        search = summary["search"]
        assert search["solutions"] == 2  # 4-queens
        assert search["guesses"] > 0
        assert search["max_depth"] == 4
        assert search["total_fanout"] == 4 * search["guesses"]

        names = {row["name"] for row in summary["syscalls"]}
        assert {"guess", "exit"} <= names
        assert summary["parallel"]["workers"] == []  # serial engine

    def test_cow_join_attributes_faults_to_restores(self):
        events = [
            {"seq": 0, "ts": 0.0, "type": ev.SNAPSHOT_RESTORE, "sid": 1, "asid": 10},
            {"seq": 1, "ts": 0.1, "type": ev.MEM_COW_FAULT,
             "asid": 10, "vpn": 5, "kind": "cow"},
            {"seq": 2, "ts": 0.2, "type": ev.MEM_COW_FAULT,
             "asid": 10, "vpn": 6, "kind": "cow"},
            {"seq": 3, "ts": 0.3, "type": ev.MEM_COW_FAULT,
             "asid": 99, "vpn": 7, "kind": "cow"},
        ]
        cow = trace_report.summarize(events)["cow_per_restore"]
        assert cow["restores"] == 1
        assert cow["cow_faults_in_restored_spaces"] == 2
        assert cow["cow_faults_elsewhere"] == 1
        assert cow["per_restore_mean"] == 2.0
        assert cow["hottest"][0]["cow_faults"] == 2

    def test_zero_fills_counted_separately(self):
        events = [
            {"seq": 0, "ts": 0.0, "type": ev.SNAPSHOT_RESTORE, "sid": 1, "asid": 10},
            {"seq": 1, "ts": 0.1, "type": ev.MEM_COW_FAULT,
             "asid": 10, "vpn": 5, "kind": "zero"},
        ]
        cow = trace_report.summarize(events)["cow_per_restore"]
        assert cow["cow_faults_in_restored_spaces"] == 0
        assert cow["zero_fills_total"] == 1

    def test_empty_stream(self):
        summary = trace_report.summarize([])
        assert summary["events"] == 0
        assert summary["snapshot"]["peak_live"] == 0
        assert summary["cow_per_restore"]["per_restore_mean"] == 0.0


class TestTablesAndCli:
    def test_cli_prints_expected_tables(self, nqueens_trace, capsys):
        assert trace_report.main([nqueens_trace]) == 0
        out = capsys.readouterr().out
        for heading in (
            "Trace events",
            "Snapshot lifecycle",
            "COW faults per restore",
            "Syscalls",
            "Search",
        ):
            assert heading in out
        assert "peak_live" in out
        assert "mean per restore" in out
        assert "guess" in out

    def test_cli_json_mode_round_trips(self, nqueens_trace, capsys):
        assert trace_report.main([nqueens_trace, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert summary["snapshot"]["taken"] > 0

    def test_cli_missing_file_fails(self, tmp_path, capsys):
        assert trace_report.main([str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cli_corrupt_lines_warn_but_report(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            'garbage\n'
            '{"seq": 0, "ts": 0.0, "type": "search.guess", "n": 2, "depth": 0}\n'
        )
        assert trace_report.main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt line" in captured.err
        assert "Search" in captured.out

    def test_cli_all_garbage_reports_empty(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\nmore garbage\n")
        assert trace_report.main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 corrupt line" in captured.err
        assert "empty trace" in captured.out

    def test_cli_empty_file_succeeds(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert trace_report.main([str(path)]) == 0
        assert "empty trace" in capsys.readouterr().out

    def test_cli_json_reports_skipped_count(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('nope\n{"seq": 0, "ts": 0.0, "type": "x"}\n')
        assert trace_report.main([str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["skipped_lines"] == 1
        assert summary["events"] == 1

    def test_parallel_trace_gets_worker_table(self, tmp_path, capsys):
        from repro.core.parallel import ParallelMachineEngine

        path = str(tmp_path / "par.jsonl")
        with TRACER.to_file(path):
            ParallelMachineEngine(workers=2, quantum=64).run(nqueens_asm(4))
        assert trace_report.main([path]) == 0
        out = capsys.readouterr().out
        assert "Parallel workers" in out

    def test_merged_cluster_trace_gets_utilization_table(
            self, tmp_path, capsys):
        from repro.core.cluster import ProcessParallelEngine

        path = str(tmp_path / "cluster.jsonl")
        engine = ProcessParallelEngine(workers=2, task_step_budget=800)
        with TRACER.to_file(path):
            engine.run(nqueens_asm(4))
        assert trace_report.main([path]) == 0
        out = capsys.readouterr().out
        assert "Cluster utilization" in out
        assert "replay share" in out

    def test_cluster_summary_utilization_math(self):
        events = [
            {"seq": 0, "ts": 1.0, "type": ev.TASK_BEGIN,
             "worker": 0, "task": [], "depth": 0},
            {"seq": 1, "ts": 2.0, "type": ev.TASK_END, "worker": 0,
             "task": [], "solutions": 1, "spilled": 0,
             "explore_steps": 90, "replay_steps": 10, "task_s": 0.5},
            {"seq": 2, "ts": 1.5, "type": ev.TASK_BEGIN,
             "worker": 1, "task": [0], "depth": 1},
            {"seq": 3, "ts": 3.0, "type": ev.TASK_END, "worker": 1,
             "task": [0], "solutions": 0, "spilled": 2,
             "explore_steps": 30, "replay_steps": 30, "task_s": 1.5},
        ]
        cluster = trace_report.summarize(events)["cluster"]
        assert cluster["wall_s"] == 2.0  # ts 1.0 .. 3.0
        assert cluster["tasks"] == 2
        by_worker = {row["worker"]: row for row in cluster["workers"]}
        assert by_worker[0]["busy_s"] == 0.5
        assert by_worker[0]["idle_s"] == 1.5
        assert by_worker[0]["utilization"] == 0.25
        assert by_worker[0]["replay_share"] == 0.1
        assert by_worker[1]["replay_share"] == 0.5
        # Skew: max busy (1.5) over mean busy (1.0).
        assert cluster["busy_skew"] == 1.5


class TestFileLayerSummary:
    def test_file_layer_events_get_their_own_table(self, capsys, tmp_path):
        events = [
            {"seq": 0, "ts": 0.1, "type": ev.FILE_FSYNC,
             "fd": 3, "records": 4},
            {"seq": 1, "ts": 0.2, "type": ev.FILE_FSYNC,
             "fd": 3, "records": 2},
            {"seq": 2, "ts": 0.3, "type": ev.FILE_SYNC, "records": 7},
            {"seq": 3, "ts": 0.4, "type": ev.CRASH_SELECT,
             "point": 1, "dims": 3},
            {"seq": 4, "ts": 0.5, "type": ev.CRASH_SELECT,
             "point": 2, "dims": 5},
            {"seq": 5, "ts": 0.6, "type": ev.CRASH_COMMIT, "kept": 2},
        ]
        fl = trace_report.summarize(events)["filelayer"]
        assert fl == {
            "fsyncs": 2, "fsync_records": 6,
            "syncs": 1, "sync_records": 7,
            "crash_selects": 2, "crash_dims_total": 8, "crash_dims_max": 5,
            "crash_commits": 1, "crash_kept_total": 2, "crash_kept_max": 2,
        }
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert trace_report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Versioned file layer" in out
        assert "crash_selects" in out

    def test_no_file_layer_events_no_table(self, nqueens_trace, capsys):
        assert trace_report.main([nqueens_trace]) == 0
        assert "Versioned file layer" not in capsys.readouterr().out


class TestLiveSummary:
    @staticmethod
    def _sample(seq, ts, pending, done, solutions, coverage, rate):
        return {
            "seq": seq, "ts": ts, "type": ev.STATUS_SAMPLE,
            "tasks": {"pending": pending, "done": done},
            "solutions": solutions,
            "coverage": {"fraction": coverage},
            "throughput": {"steps_total": 100, "steps_per_s": rate},
        }

    def test_status_samples_summarized(self, tmp_path, capsys):
        events = [
            self._sample(0, 10.0, 5, 0, 0, 0.0, 0.0),
            self._sample(1, 10.5, 2, 3, 1, 0.6, 8_000.0),
            self._sample(2, 11.0, 0, 5, 4, 1.0, 5_000.0),
        ]
        live = trace_report.summarize(events)["live"]
        assert live["samples"] == 3
        assert live["span_s"] == 1.0
        assert live["final_pending"] == 0
        assert live["final_done"] == 5
        assert live["final_solutions"] == 4
        assert live["final_coverage"] == 1.0
        assert live["final_steps_per_s"] == 5_000.0
        assert live["max_steps_per_s"] == 8_000.0
        path = tmp_path / "s.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert trace_report.main([str(path)]) == 0
        assert "Live telemetry" in capsys.readouterr().out

    def test_real_status_log_is_consumable(self, tmp_path, capsys):
        # The --status-log file a real run writes is itself a valid
        # trace input: report it end to end.
        from repro.core.cluster import ProcessParallelEngine

        log_path = str(tmp_path / "status.jsonl")
        engine = ProcessParallelEngine(
            workers=2, status_log=log_path, status_interval=0.05,
        )
        engine.run(nqueens_asm(4))
        assert trace_report.main([log_path]) == 0
        out = capsys.readouterr().out
        assert "Live telemetry" in out
        summary = trace_report.summarize(
            trace_report.load_events(log_path)[0])
        assert summary["live"]["final_coverage"] == 1.0
