#!/usr/bin/env python3
"""Externally controlled search (§3.1's last strategy class).

"We can support externally controlled search strategies where an
external entity can generate new extension steps for any given partial
candidates, and schedule their execution."

Here the external entity is this script: it watches the pending
extension steps of a 5-queens search and schedules them with a custom
policy (deepest-first, ties broken right-to-left) that no built-in
strategy implements — while every unexplored candidate stays alive as a
lightweight snapshot, restorable whenever the controller comes back.

Run:  python examples/external_search.py
"""

from repro.core.interactive import InteractiveSearch
from repro.workloads.nqueens import nqueens_asm


def main() -> None:
    with InteractiveSearch(nqueens_asm(5)) as search:
        print("booted: root candidate fanned out "
              f"{len(search.pending())} extensions\n")

        steps = 0
        while search.pending():
            # A deliberately exotic external policy.
            choice = max(search.pending(), key=lambda p: (p.depth, p.number))
            outcome = search.run(choice.seq)
            steps += 1
            if outcome.solution is not None:
                _, board = outcome.solution.value
                print(f"step {steps:>3}: path {choice.path + (choice.number,)}"
                      f" completed -> board {board.strip()}")
            elif outcome.outcome == "guess" and steps <= 5:
                print(f"step {steps:>3}: path {choice.path + (choice.number,)}"
                      f" hit a new choice point ({len(outcome.created)} "
                      f"extensions created)")

        print(f"\nexplored {steps} extension steps under external control")
        print(f"solutions found: {len(search.solutions)} (expected 10)")
        live = search._engine.manager.stats.live
        print(f"live snapshots at the end: {live}")


if __name__ == "__main__":
    main()
