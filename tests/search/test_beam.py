"""Tests for the beam-search strategy."""

import pytest

from repro import ReplayEngine
from repro.search import BeamStrategy, Extension, get_strategy


def batch(candidate, n, depth=0, hints=None):
    return [
        Extension(candidate, number=i,
                  hint=hints[i] if hints else None, depth=depth)
        for i in range(n)
    ]


def drain(strategy):
    out = []
    while True:
        ext = strategy.next()
        if ext is None:
            return out
        out.append(ext)


class TestBeamStrategy:
    def test_width_enforced_per_depth(self):
        beam = BeamStrategy(width=2)
        dropped = beam.add(batch("a", 5, depth=0, hints=[5.0, 1.0, 4.0, 0.5, 3.0]))
        assert len(beam) == 2
        assert beam.stats.dropped == 3
        # add() hands back what it dropped, so the caller can release it.
        assert sorted(e.number for e in dropped) == [0, 2, 4]
        kept = sorted(e.number for e in drain(beam))
        assert kept == [1, 3]  # the two best hints

    def test_deeper_levels_first(self):
        beam = BeamStrategy(width=4)
        beam.add(batch("shallow", 1, depth=0, hints=[0.0]))
        beam.add(batch("deep", 1, depth=3, hints=[9.0]))
        assert drain(beam)[0].candidate == "deep"

    def test_best_hint_first_within_level(self):
        beam = BeamStrategy(width=4)
        beam.add(batch("c", 3, depth=1, hints=[3.0, 1.0, 2.0]))
        assert [e.number for e in drain(beam)] == [1, 2, 0]

    def test_separate_levels_have_separate_budgets(self):
        beam = BeamStrategy(width=1)
        beam.add(batch("a", 2, depth=0, hints=[1.0, 2.0]))
        beam.add(batch("b", 2, depth=1, hints=[1.0, 2.0]))
        assert len(beam) == 2

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            BeamStrategy(width=0)

    def test_registry(self):
        assert get_strategy("beam", width=5).width == 5

    def test_beam_solves_puzzle_with_good_hints(self):
        from repro.workloads.puzzle8 import puzzle_guest, scramble

        start = scramble(10, seed=4)
        strategy = BeamStrategy(width=16)
        engine = ReplayEngine(strategy, max_solutions=1,
                              max_evaluations=50_000)
        result = engine.run(puzzle_guest, start, 14, True)
        assert result.first is not None
        assert strategy.stats.peak_frontier <= 16 * 14 + 16

    def test_beam_is_incomplete_by_design(self):
        # Width 1 with adversarial hints prunes the only solution.
        def guest(sys):
            x = sys.guess(2, hints=[0.0, 1.0])  # hint prefers the dead end
            if x == 0:
                sys.fail()
            return "found"

        strategy = BeamStrategy(width=1)
        result = ReplayEngine(strategy).run(guest)
        assert result.solution_values == []
        assert strategy.stats.dropped == 1
