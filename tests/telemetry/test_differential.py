"""Telemetry must be a pure observer: on-vs-off runs are identical.

Every design tier runs the same seeded workload twice — once with a
recording :class:`~repro.telemetry.Telemetry` wired through the system,
once fully unwired — and every observable (protocol event stream,
stats registry, committed load values, final memory image, squash
counts) must match exactly. The harness also asserts the traced run
recorded spans, so a silently-dead recorder cannot pass vacuously.
The timing simulator gets the same check, with and without a fault
plan, since its one event loop carries both as branches.
"""

import pytest

from conftest import stall_pressure
from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, SVCConfig
from repro.common.events import EventLog
from repro.faults import FaultPlan
from repro.harness.differential import (
    TIERS,
    compare_telemetry_modes,
    differential_workload,
)
from repro.svc.designs import design_config
from repro.svc.system import SVCSystem
from repro.telemetry import (
    MEM_OP,
    PRODUCTION_SAMPLE_INTERVAL,
    PRODUCTION_TRACE_CAPACITY,
    Telemetry,
)
from repro.timing.simulator import TimingSimulator


@pytest.mark.parametrize("tier", TIERS)
def test_telemetry_on_equals_off(tier):
    # The EC design assumes no squashes (paper section 3.4).
    allow_squashes = tier != "ec"
    for seed in range(3):
        tasks = differential_workload(seed, n_tasks=6, ops_per_task=8)
        plan = FaultPlan(
            seed=seed,
            squash_rate=0.1 if allow_squashes else 0.0,
            delayed_writebacks=2,
        )
        mismatches = compare_telemetry_modes(
            tier,
            tasks,
            seed=seed,
            schedule="random",
            fault_plan=plan,
        )
        assert not mismatches, "\n".join(mismatches)


def _timing_run(tier, workload, telemetry, fault_plan):
    """One timing run over a fresh system: its report, drained memory
    image and protocol event stream."""
    log = EventLog()
    if workload == "stall":
        system, tasks = stall_pressure(tier, event_log=log, telemetry=telemetry)
    else:
        tasks = differential_workload(3, n_tasks=6, ops_per_task=8)
        if tier == "arb":
            system = ARBSystem(ARBConfig(), event_log=log, telemetry=telemetry)
        else:
            system = SVCSystem(
                design_config(tier, SVCConfig.paper_32kb()),
                event_log=log,
                telemetry=telemetry,
            )
    report = TimingSimulator(system, tasks, fault_plan=fault_plan).run()
    return report, system.memory.image(), tuple(log)


@pytest.mark.parametrize("tier", TIERS + ("arb",))
@pytest.mark.parametrize("workload", ["differential", "stall"])
@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
def test_timing_telemetry_on_equals_off(tier, workload, faulted):
    plan = None
    if faulted:
        plan = FaultPlan(
            seed=1, mispredict_ranks=(2, 4), mshr_saturation=0.1,
            bus_saturation=0.2,
        )
    off = _timing_run(tier, workload, None, plan)
    report = off[0]
    if workload == "stall":
        assert report.replacement_stall_retries > 0
    if faulted:
        assert report.misprediction_squashes > 0
        if tier != "arb":
            assert report.memory_stats["bus_fault"] > 0
    for telemetry in (
        Telemetry(),
        Telemetry(
            capacity=PRODUCTION_TRACE_CAPACITY,
            sample_interval=PRODUCTION_SAMPLE_INTERVAL,
        ),
    ):
        on = _timing_run(tier, workload, telemetry, plan)
        assert on[0] == report
        assert on[1] == off[1]
        assert on[2] == off[2]
        assert any(span.kind == MEM_OP for span in telemetry.tracer.spans)

