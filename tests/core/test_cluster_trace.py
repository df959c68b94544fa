"""Cross-process trace propagation in ProcessParallelEngine.

Workers buffer their trace events per task and ship the segments back
with each result; the coordinator merges them into one causally-ordered
stream.  These tests pin the merge invariants (worker stamping, local
sequence preservation, causal splicing) and the end-to-end attribution
contract on the merged trace.
"""

import warnings
from dataclasses import dataclass, field

import pytest

from repro.chaos import FaultPlan
from repro.core.cluster import ProcessParallelEngine
from repro.core.machine import MachineEngine
from repro.obs import events as ev
from repro.obs.profile import TERMINAL_TYPES, build_profile
from repro.obs.trace import TRACER, MemorySink
from repro.workloads.nqueens import nqueens_asm


WORKER_TYPES = TERMINAL_TYPES | {
    ev.TASK_BEGIN, ev.TASK_END, ev.SNAPSHOT_TAKE, ev.SNAPSHOT_RESTORE,
    ev.SNAPSHOT_DISCARD, ev.MEM_COW_FAULT, ev.MEM_PAGE_ALLOC,
}


@pytest.fixture(scope="module")
def merged(tmp_path_factory):
    """One traced 5-queens run on a two-worker cluster: (events, result)."""
    engine = ProcessParallelEngine(workers=2, task_step_budget=800)
    with TRACER.capture() as sink:
        result = engine.run(nqueens_asm(5))
    return sink.events, result


class TestMergedTrace:
    def test_every_worker_contributes_events(self, merged):
        events, result = merged
        worker_events = [e for e in events if "wseq" in e]
        assert worker_events
        assert {e["worker"] for e in worker_events} == {0, 1}
        assert result.stats.extra["trace_dropped"] == 0
        assert result.stats.extra["trace_events_merged"] == len(worker_events)

    def test_all_worker_originated_events_stamped(self, merged):
        events, _ = merged
        for e in events:
            if "wseq" in e:
                assert "worker" in e, f"unstamped worker event: {e}"

    def test_global_seq_reassigned_worker_seq_preserved(self, merged):
        events, _ = merged
        # The merged stream has one strictly increasing global seq...
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # ...while each worker's local order survives as wseq.
        for wid in (0, 1):
            wseqs = [e["wseq"] for e in events
                     if e.get("worker") == wid and "wseq" in e]
            assert wseqs == sorted(wseqs)

    def test_segments_spliced_before_result_events(self, merged):
        # Causal order: a task's worker events land in the merged stream
        # before the coordinator's parallel.result for that worker.
        events, _ = merged
        last_result_by_worker = {}
        for e in events:
            if e["type"] == ev.PARALLEL_RESULT:
                last_result_by_worker[e["worker"]] = e["seq"]
        for e in events:
            if "wseq" in e:
                assert e["seq"] < last_result_by_worker[e["worker"]]

    def test_task_begin_end_pairs(self, merged):
        events, _ = merged
        begins = [e for e in events if e["type"] == ev.TASK_BEGIN]
        ends = [e for e in events if e["type"] == ev.TASK_END]
        assert len(begins) == len(ends) > 1
        for e in ends:
            assert e["explore_steps"] >= 0
            assert e["replay_steps"] >= 0
            assert e["task_s"] >= 0.0

    def test_run_span_stamped_on_task_events(self, merged):
        events, result = merged
        spans = {e.get("span") for e in events
                 if e["type"] in (ev.TASK_BEGIN, ev.TASK_END)}
        assert spans == {result.stats.extra["trace_span"]}

    def test_profile_totals_match_registry_counters(self, merged):
        events, result = merged
        profile = build_profile(events)
        extra = result.stats.extra
        # Work conservation across processes: the merged trace accounts
        # for every explored and every replayed instruction.
        assert profile.total_steps == extra["guest_instructions"]
        assert profile.total_replay_steps == extra["replay_steps"]
        assert profile.root.cum["solutions"] == len(result.solutions) == 10
        assert set(profile.workers) == {0, 1}

    def test_merged_matches_sequential_exploration(self, merged):
        events, _ = merged
        profile = build_profile(events)
        with TRACER.capture() as sink:
            MachineEngine().run(nqueens_asm(5))
        sequential = build_profile(sink.events)
        # Same search tree, same explored instructions — replay is the
        # only extra work the cluster does.
        assert profile.total_steps == sequential.total_steps
        assert profile.root.cum["solutions"] == \
            sequential.root.cum["solutions"]


@dataclass(frozen=True)
class _AttachSinkMidRun(FaultPlan):
    """Attaches a sink to the coordinator's tracer from the journal
    writer's seam, after the first dispatch: the run started untraced,
    so its workers are not collecting."""

    sinks: list = field(default_factory=list)

    def journal_hook(self, epoch, line):
        if epoch == 1:
            self.sinks.append(TRACER.attach(MemorySink()))
        return None


class TestCollectionControl:
    def test_sink_attached_mid_run_counts_drops(self, tmp_path):
        plan = _AttachSinkMidRun()
        engine = ProcessParallelEngine(
            workers=2, task_step_budget=800, chaos=plan,
            journal=str(tmp_path / "run.journal"),
        )
        try:
            result = engine.run(nqueens_asm(4))
        finally:
            for sink in plan.sinks:
                TRACER.detach(sink)
        [sink] = plan.sinks
        extra = result.stats.extra
        # Collection is decided when the run starts: every segment that
        # settled after the attach is missing, and counted.
        assert extra["trace_dropped"] == extra["tasks_completed"] > 0
        assert extra["trace_events_merged"] == 0
        assert not any("wseq" in e for e in sink.events)
        # Coordinator-side events still flow.
        assert any(e["type"] == ev.PARALLEL_RESULT for e in sink.events)
        assert len(result.solutions) == 2

    def test_untraced_run_collects_nothing(self):
        engine = ProcessParallelEngine(workers=2, task_step_budget=800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(nqueens_asm(4))
        assert result.stats.extra["trace_events_merged"] == 0
        assert result.stats.extra["trace_dropped"] == 0
        assert len(result.solutions) == 2
