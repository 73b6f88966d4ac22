"""The kill switch: every tier's known-bad mutation must be caught.

An exhaustive checker that reports zero violations proves nothing unless
it demonstrably *would* report one. For each design tier we plant the
mutation that breaks that tier's signature machinery and assert the
model checker finds a counterexample within the mutation's own bound —
and that the saved capture replays to a failure from the JSON alone.
"""

import glob
import os

import pytest

from repro.modelcheck.mutations import MUTATIONS, TIER_KILL_SWITCH
from repro.modelcheck.runner import run_modelcheck
from repro.replay import FailureCapture, run_case
from repro.svc.designs import DESIGNS


def test_every_tier_has_a_kill_switch():
    assert set(TIER_KILL_SWITCH) == set(DESIGNS)
    for tier, name in TIER_KILL_SWITCH.items():
        assert tier in MUTATIONS[name].tiers


@pytest.mark.parametrize("tier", DESIGNS)
def test_kill_switch_finds_a_replayable_counterexample(tier, tmp_path):
    name = TIER_KILL_SWITCH[tier]
    spec = MUTATIONS[name]
    report = run_modelcheck(
        spec.bounds,
        designs=(tier,),
        mutation=name,
        captures_dir=str(tmp_path),
    )
    assert report.per_design[tier].counterexamples > 0, (
        f"mutation {name!r} went undetected on {tier} within {spec.bounds}"
    )
    captures = sorted(glob.glob(os.path.join(str(tmp_path), "*.json")))
    assert captures
    # The capture must reproduce the failure from the file alone: the
    # mutation name rides in the case and is re-applied at build time.
    capture = FailureCapture.load(captures[0])
    assert capture.case.mutation == name
    assert capture.case.script
    assert not run_case(capture.case).ok


class _CapturedReport:
    per_design = {}
    ok = True

    def describe(self):
        return ""


@pytest.mark.parametrize(
    "argv, expected",
    [
        # A mutation runs at the bound it is registered with...
        (["--mutation", "snarf_any_version"], (3, 3, 1)),
        (["--mutation", "no_violation_squash"], (2, 3, 1)),
        # ...an explicit flag still wins...
        (["--mutation", "snarf_any_version", "--lines", "2"], (3, 3, 2)),
        (
            ["--mutation", "no_violation_squash", "--pus", "2", "--ops", "3",
             "--lines", "2"],
            (2, 3, 2),
        ),
        # ...and without a mutation the defaults are 2/3/2.
        ([], (2, 3, 2)),
    ],
)
def test_cli_bounds_default_to_the_mutations_own(argv, expected, monkeypatch):
    """``python -m repro modelcheck --mutation NAME`` searches the bound
    the mutation is caught at, not the exploration defaults."""
    from repro.modelcheck import runner

    seen = []

    def capture(bounds, **kwargs):
        seen.append(bounds)
        return _CapturedReport()

    monkeypatch.setattr(runner, "run_modelcheck", capture)
    runner.modelcheck_main(argv)
    (bounds,) = seen
    assert (bounds.pus, bounds.ops, bounds.lines) == expected
    assert bounds.tasks is None
