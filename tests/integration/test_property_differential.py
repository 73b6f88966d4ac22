"""Property-based proof that every design tier keeps sequential semantics.

Hypothesis draws a design tier, a seeded sharing-heavy workload
(:func:`repro.harness.differential.differential_workload`), a driver
schedule and a fault plan, then runs the case once. Three independent
checks judge the run:

* the runtime :class:`repro.check.InvariantChecker`, attached for the
  whole run, audits the protocol state after every event;
* :func:`repro.oracle.verify_run` demands the committed load values and
  the drained memory image of the :class:`repro.oracle.SequentialOracle`;
* ``FastpathKernel.audit`` re-derives every cached VOL snapshot from the
  cache arrays after each bus transaction, and the driver's run ends
  with ``SVCSystem.verify()``, which runs it and the structural checks
  once more on every resident line before the caches are drained.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import InvariantChecker
from repro.common.config import SVCConfig
from repro.faults import FaultPlan
from repro.harness.differential import TIERS, differential_workload
from repro.hier.driver import SpeculativeExecutionDriver
from repro.mem.main_memory import MainMemory
from repro.oracle import SequentialOracle, verify_run
from repro.svc.designs import design_config
from repro.svc.system import SVCSystem

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
        squash_rate = draw(st.sampled_from([0.05, 0.15]))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        squash_rate=squash_rate,
        squash_at=squash_at,
        adversarial_victims=draw(st.booleans()),
        delayed_writebacks=draw(st.sampled_from([0, 2])),
    )


@pytest.mark.parametrize("tier", TIERS)
@SETTINGS
@given(data=st.data())
def test_run_matches_the_oracle(tier, data):
    workload_seed = data.draw(st.integers(0, 2**10))
    tasks = differential_workload(
        workload_seed,
        n_tasks=data.draw(st.integers(4, 12)),
        ops_per_task=data.draw(st.integers(4, 12)),
    )
    # The EC design assumes no squashes (paper section 3.4).
    allow_squashes = tier != "ec"
    plan = data.draw(fault_plans(len(tasks), allow_squashes))
    schedule = data.draw(st.sampled_from(SpeculativeExecutionDriver.SCHEDULES))
    config = design_config(tier, SVCConfig.paper_32kb())
    memory = MainMemory(config.miss_penalty_cycles)
    system = SVCSystem(config, memory=memory, checker=InvariantChecker())

    def audit_snapshots(event):
        if event.kind == "bus":
            system.vcl.fastpath.audit()

    system.event_log.attach(audit_snapshots)
    report = SpeculativeExecutionDriver(
        system,
        tasks,
        seed=data.draw(st.integers(0, 2**16)),
        schedule=schedule,
        fault_plan=plan,
    ).run()
    problems = verify_run(report, SequentialOracle().run(tasks), memory)
    assert not problems, "\n".join(problems)
