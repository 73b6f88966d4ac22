"""The shape catalog is internally consistent before any machine runs.

These tests hold the *corpus* to account: every shape's allowed set must
be exactly what sequential execution produces (the SVC preserves
sequential semantics, so anything else would make the conformance runs
vacuous or flaky), and its forbidden set must be disjoint from it.
"""

import pytest

from repro.common.errors import ConfigError
from repro.litmus.shapes import (
    LITMUS_SHAPES,
    compile_shape,
    matches,
    register_map,
    sequential_valuation,
)

CLASSIC = ("sb", "mp", "lb", "iriw", "corr", "coww")
SVC_SPECIFIC = ("svc_treuse", "svc_xreact")


def test_catalog_contains_the_required_shapes():
    for name in CLASSIC + SVC_SPECIFIC:
        assert name in LITMUS_SHAPES
    assert all(LITMUS_SHAPES[n].name == n for n in LITMUS_SHAPES)


@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_every_shape_has_teeth(name):
    shape = LITMUS_SHAPES[name]
    assert shape.allowed, "a shape with no allowed outcome can never pass"
    assert shape.forbidden, "a shape with no forbidden outcome proves nothing"
    assert shape.threads, "a shape needs at least one thread"
    assert shape.title and shape.source


@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_allowed_set_is_the_sequential_outcome(name):
    """The ground truth: every allowed pattern must match the sequential
    valuation — the SVC's entire contract is sequential semantics, so
    any allowed pattern the oracle can't produce is a corpus bug that
    exhaustive exploration would report as 'never observed'."""
    shape = LITMUS_SHAPES[name]
    sequential = sequential_valuation(shape)
    for pattern in shape.allowed:
        assert matches(sequential, pattern), (
            f"{name}: allowed {pattern} does not match "
            f"sequential {sequential}"
        )


@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_forbidden_set_excludes_the_sequential_outcome(name):
    shape = LITMUS_SHAPES[name]
    sequential = sequential_valuation(shape)
    for pattern in shape.forbidden:
        assert not matches(sequential, pattern), (
            f"{name}: forbidden {pattern} matches the sequential outcome "
            f"{sequential} — it would always be reached"
        )


@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_compile_shape_one_task_per_thread(name):
    shape = LITMUS_SHAPES[name]
    tasks = compile_shape(shape)
    assert len(tasks) == len(shape.threads)
    for rank, (thread, task) in enumerate(zip(shape.threads, tasks)):
        assert task.name == f"{name}/t{rank}"
        assert len(task.ops) == len(thread)


@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_register_map_is_total_and_unique(name):
    shape = LITMUS_SHAPES[name]
    mapping = register_map(shape)
    assert set(mapping) == set(shape.registers())
    assert len(set(mapping.values())) == len(mapping)


def test_duplicate_register_rejected():
    from repro.litmus.shapes import LitmusShape

    bad = LitmusShape(
        name="dup",
        title="duplicate register",
        source="test",
        threads=((("ld", "x", "r0"), ("ld", "y", "r0")),),
        allowed=({"r0": 0},),
        forbidden=({"r0": 1},),
    )
    with pytest.raises(ConfigError, match="r0"):
        register_map(bad)
