"""Property-based proof that the SVC fastpath is invisible.

Hypothesis draws a design tier, a seeded workload, a schedule and a
fault plan, then :mod:`repro.harness.differential` runs the same case
twice — the structure-of-arrays fastpath kernel on and off — and
demands byte-identical event streams, stats, committed load values and
final memory images. The kernel is a pure-speed rewrite of snapshot
maintenance, supply, snarf acceptance and VOL repair, so any
observable divergence is a bug in it, not a legal behaviour change.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import FaultPlan
from repro.harness.differential import (
    TIERS,
    compare_fastpath_modes,
    differential_workload,
)
from repro.hier.driver import SpeculativeExecutionDriver

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def fault_plans(draw, n_tasks, allow_squashes=True):
    squash_at = ()
    squash_rate = 0.0
    if allow_squashes and n_tasks > 1:
        n_forced = draw(st.integers(min_value=0, max_value=2))
        squash_at = tuple(
            (draw(st.integers(1, n_tasks - 1)), draw(st.integers(0, 6)))
            for _ in range(n_forced)
        )
        squash_rate = draw(st.sampled_from([0.0, 0.1]))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        squash_rate=squash_rate,
        squash_at=squash_at,
        adversarial_victims=draw(st.booleans()),
        delayed_writebacks=draw(st.sampled_from([0, 2])),
    )


@pytest.mark.parametrize("tier", TIERS)
class TestFastPathsAreObservationallyInvisible:
    @SETTINGS
    @given(data=st.data())
    def test_fast_path_on_equals_off(self, tier, data):
        workload_seed = data.draw(st.integers(0, 2**10))
        tasks = differential_workload(
            workload_seed,
            n_tasks=data.draw(st.integers(4, 12)),
            ops_per_task=data.draw(st.integers(4, 12)),
        )
        # The EC design assumes no squashes (paper section 3.4).
        allow_squashes = tier != "ec"
        plan = data.draw(fault_plans(len(tasks), allow_squashes))
        schedule = data.draw(
            st.sampled_from(SpeculativeExecutionDriver.SCHEDULES)
        )
        mismatches = compare_fastpath_modes(
            tier,
            tasks,
            seed=data.draw(st.integers(0, 2**16)),
            schedule=schedule,
            squash_probability=0.05 if allow_squashes else 0.0,
            fault_plan=plan,
        )
        assert not mismatches, "\n".join(mismatches)
