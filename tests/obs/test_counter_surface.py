"""The counter surface: every number six engine configurations report.

Each configuration runs a small n-queens search and records the seven
``SearchStats`` fields, ``stats.extra``, the snapshot manager's stats
and ``engine.registry.as_dict()`` where the engine has them.  The
result is compared with ``counter_surface.json``, so a refactor of the
bookkeeping that drops, renames or changes any of these counts fails
here.  Keys that depend on timing or on earlier runs in the same
process (steal counts, trace spans, task timers) are left out.

Regenerate the fixture (only when a reported number is meant to
change) with::

    PYTHONPATH=src python tests/obs/test_counter_surface.py \\
        > tests/obs/counter_surface.json
"""

import json
import pathlib

import pytest

from repro.core.cluster import ProcessParallelEngine
from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.workloads.nqueens import nqueens_asm

FIXTURE = pathlib.Path(__file__).with_name("counter_surface.json")

SEARCH_FIELDS = (
    "candidates", "evaluations", "fails", "completions",
    "replayed_decisions", "kills", "peak_frontier",
)
SNAPSHOT_FIELDS = ("taken", "restored", "discarded", "live", "peak_live")
#: Timing- or process-history-dependent keys, in extras and registries.
UNSTABLE = ("steals", "trace_span", "parallel.steals")

CONFIGS = {
    "machine-cow-6": (lambda: MachineEngine(), 6),
    "machine-eager-5": (lambda: MachineEngine(snapshot_mode="eager"), 5),
    "machine-dirty-eager-5": (
        lambda: MachineEngine(snapshot_mode="dirty-eager"), 5
    ),
    "parallel-2-5": (
        lambda: ParallelMachineEngine(workers=2, quantum=50), 5
    ),
    "replay-5": (lambda: ReplayMachineEngine(), 5),
    "process-1-5": (
        lambda: ProcessParallelEngine(workers=1, task_step_budget=800), 5
    ),
}


def _stable(mapping: dict) -> dict:
    return {
        key: value for key, value in mapping.items()
        if key not in UNSTABLE and not key.startswith("parallel.task_time")
    }


def surface(name: str) -> dict:
    """Run configuration *name* and collect its reported counters."""
    make, n = CONFIGS[name]
    engine = make()
    result = engine.run(nqueens_asm(n))
    stats = result.stats
    out = {
        "solutions": len(result.solutions),
        "search": {field: getattr(stats, field) for field in SEARCH_FIELDS},
        "extra": _stable(stats.extra),
    }
    manager = getattr(engine, "manager", None)
    if manager is not None:
        out["manager"] = {
            field: getattr(manager.stats, field) for field in SNAPSHOT_FIELDS
        }
    registry = getattr(engine, "registry", None)
    if registry is not None:
        out["registry"] = _stable(registry.as_dict())
    # Through JSON, so tuples and non-string keys compare as stored.
    return json.loads(json.dumps(out, sort_keys=True))


def render() -> str:
    return json.dumps(
        {name: surface(name) for name in CONFIGS}, sort_keys=True, indent=1
    ) + "\n"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_configuration(recorded):
    assert sorted(recorded) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_counters_match_the_recorded_surface(name, recorded):
    got = surface(name)
    want = recorded[name]
    for section in sorted(set(want) | set(got)):
        assert got.get(section) == want.get(section), section


if __name__ == "__main__":
    print(render(), end="")
