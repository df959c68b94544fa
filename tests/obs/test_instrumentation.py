"""Every instrumented call site emits its events and keeps its counters.

These tests exercise the real subsystems (no mocks): address spaces take
real COW faults, engines run real guests, and the assertions tie the
event stream back to the stats counters.
"""

import pytest

from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.obs import events as ev
from repro.obs.trace import TRACER
from repro.snapshot import SnapshotManager
from repro.snapshot.tree import SnapshotTree
from repro.workloads.nqueens import KNOWN_SOLUTION_COUNTS, nqueens_asm

BASE = 0x40_0000


def events_of(sink, etype):
    return [e for e in sink.events if e["type"] == etype]


class TestSnapshotEvents:
    def test_take_restore_discard_events(self):
        mgr = SnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, 4 * PAGE_SIZE, Permission.RW)
        with TRACER.capture() as sink:
            parent = mgr.take(space)
            child = mgr.take(space, parent=parent)
            _, restored, _ = mgr.restore(child)
            mgr.discard(child)
            mgr.discard(parent)

        takes = events_of(sink, ev.SNAPSHOT_TAKE)
        assert [e["sid"] for e in takes] == [parent.sid, child.sid]
        assert takes[0]["parent"] is None
        assert takes[1]["parent"] == parent.sid
        assert [e["live"] for e in takes] == [1, 2]

        (restore,) = events_of(sink, ev.SNAPSHOT_RESTORE)
        assert restore["sid"] == child.sid
        assert restore["asid"] == restored.asid

        discards = events_of(sink, ev.SNAPSHOT_DISCARD)
        assert [e["sid"] for e in discards] == [child.sid, parent.sid]
        assert [e["live"] for e in discards] == [1, 0]

    def test_event_counts_equal_registry_counters(self):
        mgr = SnapshotManager()
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, PAGE_SIZE, Permission.RW)
        with TRACER.capture() as sink:
            snaps = [mgr.take(space) for _ in range(3)]
            for snap in snaps:
                mgr.restore(snap)
            mgr.discard(snaps[0])
        stats = mgr.stats
        assert len(events_of(sink, ev.SNAPSHOT_TAKE)) == stats.taken
        assert len(events_of(sink, ev.SNAPSHOT_RESTORE)) == stats.restored
        assert len(events_of(sink, ev.SNAPSHOT_DISCARD)) == stats.discarded

    def test_tree_prune_emits_and_counts(self):
        mgr = SnapshotManager()
        tree = SnapshotTree(mgr)
        space = AddressSpace(mgr.pool)
        space.map_region(BASE, PAGE_SIZE, Permission.RW)
        with TRACER.capture() as sink:
            snap = mgr.take(space)
            tree.pin(snap, 1)
            tree.unpin(snap)  # zero pins, no children -> pruned
        (prune,) = events_of(sink, ev.SNAPSHOT_PRUNE)
        assert prune["sid"] == snap.sid
        assert prune["depth"] == 0
        assert mgr.stats.pruned == 1
        # Pruning goes through discard, so both events appear.
        assert len(events_of(sink, ev.SNAPSHOT_DISCARD)) == 1


class TestMemEvents:
    def test_cow_and_zero_fault_kinds(self):
        pool = FramePool()
        space = AddressSpace(pool)
        with TRACER.capture() as sink:
            space.map_region(BASE, 2 * PAGE_SIZE, Permission.RW)
            space.write(BASE, b"first")          # zero-fill fault
            clone = space.fork_cow()
            space.write(BASE, b"again")          # COW fault (shared page)
        (alloc,) = events_of(sink, ev.MEM_PAGE_ALLOC)
        assert alloc["pages"] == 2
        assert alloc["kind"] == "zero"
        assert alloc["asid"] == space.asid
        faults = events_of(sink, ev.MEM_COW_FAULT)
        assert [f["kind"] for f in faults] == ["zero", "cow"]
        assert all(f["asid"] == space.asid for f in faults)
        assert space.faults.demand_zero_faults == 1
        assert space.faults.cow_faults == 1
        clone.free()
        space.free()

    def test_fault_events_match_fault_counters(self):
        pool = FramePool()
        space = AddressSpace(pool)
        space.map_region(BASE, 8 * PAGE_SIZE, Permission.RW)
        with TRACER.capture() as sink:
            for i in range(8):
                space.write(BASE + i * PAGE_SIZE, b"x")
        faults = events_of(sink, ev.MEM_COW_FAULT)
        assert len(faults) == space.faults.pages_copied == 8

    def test_page_alloc_kinds(self):
        space = AddressSpace(FramePool())
        with TRACER.capture() as sink:
            space.map_region(BASE, PAGE_SIZE, Permission.RW, eager=True)
            space.map_region(BASE + PAGE_SIZE, PAGE_SIZE, data=b"hi")
        kinds = [e["kind"] for e in events_of(sink, ev.MEM_PAGE_ALLOC)]
        assert kinds == ["eager", "data"]


class TestEngineEvents:
    def test_machine_engine_emits_search_and_syscall_events(self):
        engine = MachineEngine()
        with TRACER.capture() as sink:
            result = engine.run(nqueens_asm(4))
        assert len(result.solutions) == KNOWN_SOLUTION_COUNTS[4]

        guesses = events_of(sink, ev.SEARCH_GUESS)
        fails = events_of(sink, ev.SEARCH_FAIL)
        solutions = events_of(sink, ev.SEARCH_SOLUTION)
        assert len(guesses) == result.stats.candidates
        assert len(fails) == result.stats.fails
        assert len(solutions) == result.stats.completions
        assert sum(e["n"] for e in guesses) == 4 * len(guesses)
        assert all(e["path"] and len(e["path"]) == e["depth"] for e in solutions)

        syscalls = events_of(sink, ev.LIBOS_SYSCALL)
        names = {e["name"] for e in syscalls}
        assert {"guess", "guess_fail", "write", "exit"} <= names
        by_name = sum(1 for e in syscalls if e["name"] == "guess")
        assert by_name == len(guesses)

        # Snapshot lifecycle balances: everything taken is discarded by
        # end-of-search pruning.
        takes = events_of(sink, ev.SNAPSHOT_TAKE)
        discards = events_of(sink, ev.SNAPSHOT_DISCARD)
        assert len(takes) == len(discards) == engine.manager.stats.taken

    def test_restore_events_correlate_with_cow_faults(self):
        engine = MachineEngine()
        with TRACER.capture() as sink:
            engine.run(nqueens_asm(4))
        restore_asids = {e["asid"] for e in events_of(sink, ev.SNAPSHOT_RESTORE)}
        fault_asids = {e["asid"] for e in events_of(sink, ev.MEM_COW_FAULT)}
        assert restore_asids, "expected restores in an n-queens run"
        # Every extension evaluation writes through a restored space, so
        # COW activity must be attributable to restores.
        assert fault_asids & restore_asids

    def test_engine_registry_spans_subsystems(self):
        engine = MachineEngine()
        result = engine.run(nqueens_asm(4))
        flat = engine.registry.as_dict()
        assert flat["snapshot.taken"] == engine.manager.stats.taken
        assert flat["search.fails"] == result.stats.fails
        assert flat["search.completions"] == result.stats.completions
        assert flat["snapshot.pruned"] > 0

    def test_parallel_engine_emits_schedule_and_preempt(self):
        engine = ParallelMachineEngine(workers=2, quantum=40)
        with TRACER.capture() as sink:
            result = engine.run(nqueens_asm(4))
        assert len(result.solutions) == KNOWN_SOLUTION_COUNTS[4]
        schedules = events_of(sink, ev.PARALLEL_SCHEDULE)
        preempts = events_of(sink, ev.PARALLEL_PREEMPT)
        assert {e["worker"] for e in schedules} == {0, 1}
        assert preempts, "quantum=40 must time-slice the boot extension"
        assert all(e["steps"] > 0 for e in preempts)
        # Every schedule is a restore of a candidate snapshot.
        assert len(schedules) == engine.manager.stats.restored

    def test_tracing_does_not_change_results(self):
        plain = MachineEngine().run(nqueens_asm(5))
        with TRACER.capture():
            traced = MachineEngine().run(nqueens_asm(5))
        assert [s.value for s in traced.solutions] == [
            s.value for s in plain.solutions
        ]
        assert traced.stats.evaluations == plain.stats.evaluations


class TestStatsViews:
    def test_search_stats_kwargs_still_work(self):
        from repro.core.result import SearchStats

        stats = SearchStats(candidates=3, evaluations=7, fails=2)
        assert stats.candidates == 3
        stats.fails += 1
