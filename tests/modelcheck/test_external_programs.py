"""Externally supplied programs ride the explorer unchanged.

The enumerator's symmetry canonicalization (line renaming, word
swapping) is sound only for *its own* programs; hand-built programs —
litmus shapes, trace fragments — must be explored exactly as given.
These tests pin that: ``run_modelcheck(programs=...)`` accepts foreign
task lists, never rewrites them, and the per-outcome witness schedules
replay to the outcomes they claim.
"""

import pytest

from repro.common.errors import ConfigError
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import MemOp, TaskProgram
from repro.litmus.shapes import LITMUS_SHAPES, compile_shape
from repro.modelcheck.explorer import explore_case
from repro.modelcheck.programs import (
    Bounds,
    bound_geometry,
    bounds_for_programs,
)
from repro.modelcheck.runner import run_modelcheck
from repro.replay import Case, build_system


def _snapshot(tasks):
    return [
        (task.name, task.mispredicted, list(task.ops)) for task in tasks
    ]


def test_bounds_for_programs_measures_the_programs():
    programs = [compile_shape(LITMUS_SHAPES["iriw"])]
    bounds = bounds_for_programs(programs, pus=4)
    assert bounds.pus == 4
    assert bounds.ops == 6  # 2 stores + 4 loads
    assert bounds.lines == 2  # x and y
    assert bounds.n_tasks == 4


def test_bounds_for_programs_covers_arbitrary_addresses():
    # Addresses far outside the enumerator's canonical locations: the
    # derived geometry must still be replacement-free (count, not value).
    program = (
        TaskProgram(ops=[MemOp.store(0x10_0000, 1, 4)]),
        TaskProgram(ops=[MemOp.load(0x20_0010, 4)]),
    )
    bounds = bounds_for_programs([program])
    assert bounds.lines == 2
    geometry = bound_geometry(bounds)
    assert geometry.associativity >= 2 * bounds.lines


def test_bounds_for_programs_rejects_degenerate_input():
    with pytest.raises(ConfigError, match="at least one program"):
        bounds_for_programs([])
    with pytest.raises(ConfigError, match="empty program"):
        bounds_for_programs([()])


def test_iriw_round_trips_the_explorer_unchanged():
    """The satellite's acceptance test: a hand-built IRIW program goes
    through the full runner without canonicalization — the task objects
    are untouched and the outcome uses the original addresses."""
    tasks = compile_shape(LITMUS_SHAPES["iriw"])
    before = _snapshot(tasks)
    bounds = bounds_for_programs([tasks], pus=4)
    report = run_modelcheck(
        bounds,
        designs=("final", "arb"),
        programs=[tasks],
    )
    assert report.ok, report.describe()
    assert report.programs == 1
    assert _snapshot(tasks) == before
    for design in ("final", "arb"):
        stats = report.per_design[design]
        assert stats.programs == 1
        assert stats.counterexamples == 0
        assert stats.truncated_programs == 0


def test_external_program_outcome_keeps_original_addresses():
    # x lives at line 0, y at line 1 (16-byte lines): the final image
    # must show the stores at *those* addresses, proving no renaming.
    tasks = compile_shape(LITMUS_SHAPES["sb"])
    bounds = bounds_for_programs([tasks])
    case = Case(
        design="final",
        tasks=tasks,
        geometry=bound_geometry(bounds),
        checker=True,
        n_caches=bounds.pus,
    )
    result = explore_case(case)
    assert result.ok
    ((_, image),) = result.outcomes
    assert dict(image)[0] == 1  # x = 1 at byte 0
    assert dict(image)[16] == 1  # y = 1 at byte 16


def test_witness_schedules_replay_to_their_outcomes():
    tasks = compile_shape(LITMUS_SHAPES["mp"])
    bounds = bounds_for_programs([tasks])
    case = Case(
        design="final",
        tasks=tasks,
        geometry=bound_geometry(bounds),
        checker=True,
        n_caches=bounds.pus,
    )
    result = explore_case(case)
    assert result.ok
    assert set(result.witnesses) == result.outcomes
    for outcome, script in result.witnesses.items():
        system = build_system(case)
        driver = SpeculativeExecutionDriver(system, list(case.tasks))
        for action in script:
            driver.apply(action)
        assert driver.terminal
        report = driver.run()
        replayed = (
            tuple(tuple(values) for values in report.load_values),
            tuple(sorted(system.memory.image().items())),
        )
        assert replayed == outcome


def test_default_enumeration_still_used_without_programs():
    report = run_modelcheck(
        Bounds(pus=2, ops=1, lines=1, tasks=2), designs=("final",)
    )
    assert report.ok
    assert report.programs > 1  # the enumerator ran, not a single program
