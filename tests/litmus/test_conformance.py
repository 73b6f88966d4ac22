"""The corpus' acceptance criterion, one test per (shape, tier).

Each test exhaustively explores every schedule of one shape on one
design tier and demands full conformance: the only observed outcome
is the sequential oracle's, it is actually witnessed, and every
forbidden (classic relaxed) outcome is *proven*
unreachable — which requires the exploration to be exhaustive (not
truncated) and free of oracle/invariant counterexamples.
"""

import pytest

from repro.litmus.runner import ALL_TIERS, check_shape
from repro.litmus.shapes import LITMUS_SHAPES, matches


@pytest.mark.parametrize("tier", ALL_TIERS)
@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_shape_conforms_on_tier(name, tier):
    shape = LITMUS_SHAPES[name]
    check = check_shape(shape, tier)
    assert check.ok, check.describe(explain=True)
    assert not check.truncated
    assert check.schedules >= 1
    # Exactly the sequential outcome set, witnessed.
    assert len(check.observed) >= 1
    for valuation in check.observed:
        assert check.witnesses[valuation], "observed outcome without witness"
    # Every forbidden outcome proven unreachable, at least one per shape.
    assert len(check.unreachable) == len(shape.forbidden)
    assert check.unreachable, "no forbidden outcome proven unreachable"
    for pattern in shape.forbidden:
        assert not any(matches(v, pattern) for v in check.observed)


def test_unknown_tier_rejected():
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown tier"):
        check_shape(LITMUS_SHAPES["sb"], "tso")


def test_run_litmus_aggregates_and_validates():
    from repro.common.errors import ConfigError
    from repro.litmus.runner import run_litmus

    report = run_litmus(shapes=["corr", "coww"], tiers=["base"])
    assert report.ok
    assert report.conformant == 2
    assert report.unreachable == 3  # corr has 1 forbidden, coww has 2
    assert "RESULT: PASS" in report.describe()

    with pytest.raises(ConfigError, match="unknown litmus shape"):
        run_litmus(shapes=["dekker"])
    with pytest.raises(ConfigError, match="unknown tier"):
        run_litmus(shapes=["corr"], tiers=["sc"])


def test_truncated_exploration_fails_loudly():
    """A node budget too small to finish must fail the unit (never a
    silent 'unreachable' claim) and report why."""
    check = check_shape(LITMUS_SHAPES["iriw"], "final", max_nodes=10)
    assert not check.ok
    assert check.truncated
    assert check.unreachable == []
    assert any("truncated" in problem for problem in check.problems)
