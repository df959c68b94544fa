"""Unit tests for the search-strategy implementations."""

import pytest

from repro.search import (
    AStarStrategy,
    BestFirstStrategy,
    BFSStrategy,
    CoverageStrategy,
    DFSStrategy,
    Extension,
    ExternalStrategy,
    RandomStrategy,
    SMAStarStrategy,
    get_strategy,
)


def batch(candidate, n, depth=0, hints=None):
    return [
        Extension(
            candidate,
            number=i,
            hint=hints[i] if hints else None,
            depth=depth,
        )
        for i in range(n)
    ]


def drain(strategy):
    out = []
    while True:
        ext = strategy.next()
        if ext is None:
            return out
        out.append(ext)


class TestDFS:
    def test_sibling_order_is_ascending(self):
        s = DFSStrategy()
        s.add(batch("c", 3))
        assert [e.number for e in drain(s)] == [0, 1, 2]

    def test_lifo_across_batches(self):
        s = DFSStrategy()
        s.add(batch("a", 2))
        first = s.next()
        assert first.number == 0
        s.add(batch("b", 2, depth=1))  # children of the node just expanded
        order = [(e.candidate, e.number) for e in drain(s)]
        assert order == [("b", 0), ("b", 1), ("a", 1)]

    def test_empty_returns_none(self):
        assert DFSStrategy().next() is None


class TestBFS:
    def test_fifo_across_batches(self):
        s = BFSStrategy()
        s.add(batch("a", 2))
        s.add(batch("b", 1, depth=1))
        order = [(e.candidate, e.number) for e in drain(s)]
        assert order == [("a", 0), ("a", 1), ("b", 0)]


class TestAStar:
    def test_orders_by_f_cost(self):
        s = AStarStrategy()
        s.add(batch("shallow", 2, depth=1, hints=[5.0, 1.0]))
        s.add(batch("deep", 1, depth=4, hints=[0.0]))
        order = [(e.candidate, e.number) for e in drain(s)]
        # f: shallow/1 = 2.0, shallow/0 = 6.0, deep/0 = 4.0
        assert order == [("shallow", 1), ("deep", 0), ("shallow", 0)]

    def test_missing_hint_means_zero(self):
        s = AStarStrategy()
        s.add(batch("x", 1, depth=3))
        s.add(batch("y", 1, depth=1))
        assert drain(s)[0].candidate == "y"

    def test_tie_break_is_fifo(self):
        s = AStarStrategy()
        s.add(batch("a", 1, depth=1, hints=[1.0]))
        s.add(batch("b", 1, depth=1, hints=[1.0]))
        assert [e.candidate for e in drain(s)] == ["a", "b"]


class TestBestFirst:
    def test_ignores_depth(self):
        s = BestFirstStrategy()
        s.add(batch("deep", 1, depth=100, hints=[1.0]))
        s.add(batch("shallow", 1, depth=0, hints=[2.0]))
        assert drain(s)[0].candidate == "deep"


class TestSMAStar:
    def test_respects_capacity(self):
        s = SMAStarStrategy(capacity=3)
        dropped = s.add(batch("c", 10, hints=list(range(10))))
        assert len(s) == 3
        assert s.stats.dropped == 7
        # add() hands back what it dropped, so the caller can release it.
        assert sorted(e.number for e in dropped) == list(range(3, 10))

    def test_keeps_best(self):
        s = SMAStarStrategy(capacity=2)
        s.add(batch("c", 5, hints=[5.0, 1.0, 4.0, 0.5, 3.0]))
        kept = [e.number for e in drain(s)]
        assert kept == [3, 1]  # hints 0.5 and 1.0

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            SMAStarStrategy(capacity=1)


class TestRandom:
    def test_deterministic_under_seed(self):
        a = RandomStrategy(seed=7)
        b = RandomStrategy(seed=7)
        a.add(batch("c", 10))
        b.add(batch("c", 10))
        assert [e.number for e in drain(a)] == [e.number for e in drain(b)]

    def test_returns_everything(self):
        s = RandomStrategy(seed=1)
        s.add(batch("c", 10))
        assert sorted(e.number for e in drain(s)) == list(range(10))


class TestCoverage:
    def test_novel_locations_first(self):
        s = CoverageStrategy(coverage_key=lambda e: e.candidate)
        s.add(batch("seen", 1))
        first = s.next()  # marks "seen" as covered
        assert first.candidate == "seen"
        s.add(batch("seen", 1))
        s.add(batch("fresh", 1))
        assert s.next().candidate == "fresh"


class TestExternal:
    def test_nothing_runs_until_selected(self):
        s = ExternalStrategy()
        s.add(batch("c", 3))
        assert s.next() is None
        assert len(s) == 3

    def test_select_specific(self):
        s = ExternalStrategy()
        exts = batch("c", 3)
        s.add(exts)
        s.select(exts[2].seq)
        assert s.next().number == 2

    def test_select_all_fifo(self):
        s = ExternalStrategy()
        s.add(batch("c", 3))
        s.select_all()
        assert [e.number for e in drain(s)] == [0, 1, 2]


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["dfs", "bfs", "astar", "sma", "best", "random", "coverage", "external"]
    )
    def test_all_names_resolve(self, name):
        assert get_strategy(name).name == name

    def test_case_insensitive(self):
        assert get_strategy("DFS").name == "dfs"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("quantum")

    def test_kwargs_forwarded(self):
        assert get_strategy("sma", capacity=5).capacity == 5


class TestStats:
    def test_counters(self):
        s = DFSStrategy()
        s.add(batch("c", 4))
        s.next()
        assert s.stats.added == 4
        assert s.stats.popped == 1
        assert s.stats.peak_frontier == 4

    def test_drain_counts_dropped(self):
        s = DFSStrategy()
        s.add(batch("c", 4))
        dropped = s.drain()
        assert [ext.number for ext in dropped] == [0, 1, 2, 3]
        assert s.stats.dropped == 4
        assert len(s) == 0
