"""Exploration smoke tests: clean protocols pass, mutations are caught."""

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.faults import FaultPlan
from repro.hier.task import MemOp, TaskProgram
from repro.modelcheck.explorer import explore_case
from repro.modelcheck.programs import Bounds, bound_geometry
from repro.replay import Case, run_case


def _case(tasks, design="final", pus=2, **overrides):
    return Case(
        design=design,
        tasks=tuple(tasks),
        geometry=bound_geometry(Bounds(pus=pus)),
        checker=True,
        check_invariants=True,
        n_caches=pus,
        **overrides,
    )


RACY = (
    TaskProgram(ops=[MemOp.store(0, 42, 4)]),
    TaskProgram(ops=[MemOp.load(0, 4)]),
)


@pytest.mark.parametrize("design", ["base", "final", "arb"])
def test_clean_racy_program_explores_without_counterexamples(design):
    result = explore_case(_case(RACY, design=design))
    assert result.ok
    # Both orders (store-first, load-first) are covered, though pruning
    # may collapse converging prefixes before they terminate.
    assert result.schedules >= 1
    assert result.schedules + result.fp_pruned + result.sleep_pruned >= 2
    # Violation squashes make every interleaving converge on one outcome.
    assert len(result.outcomes) == 1
    ((loads, memory),) = result.outcomes
    assert loads == ((), (42,))


def test_independent_loads_get_pruned():
    tasks = (
        TaskProgram(ops=[MemOp.load(0, 4)]),
        TaskProgram(ops=[MemOp.load(16, 4)]),  # a different line
    )
    result = explore_case(_case(tasks))
    assert result.ok
    assert result.sleep_pruned + result.fp_pruned > 0


def test_node_budget_marks_truncation():
    result = explore_case(_case(RACY), max_nodes=2)
    assert result.truncated
    assert not result.ok


def test_mutation_produces_a_replayable_counterexample():
    case = _case(RACY, mutation="no_violation_squash")
    result = explore_case(case)
    assert len(result.counterexamples) == 1
    failing, failure = result.counterexamples[0]
    assert not failure.ok
    assert failing.script  # the schedule that exposed it
    # The captured case replays to a failure on its own.
    assert not run_case(failing).ok


def test_explorer_rejects_fault_plans():
    case = dataclasses.replace(
        _case(RACY), fault_plan=FaultPlan(squash_at=((0, 1),))
    )
    with pytest.raises(SimulationError):
        explore_case(case)
