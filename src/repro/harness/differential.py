"""Observe a functional run, and compare two runs of one seeded case.

:func:`observe_run` runs one seeded workload through the functional
driver on a fresh SVC and captures every observable:

* the protocol event stream (every bus transaction, squash, commit, VOL
  repair, in order, with identical payloads),
* the statistics snapshot,
* the committed load values per task,
* the final drained main-memory image, and
* the violation and injected squash counts.

Workloads, schedules and fault plans are all seeded, so two runs of the
same case make exactly the same decisions. :func:`diff_observations`
names where two observations diverge, and
:func:`compare_telemetry_modes` uses it to prove that telemetry is a
pure observer: the same case with spans recorded and fully unwired
must be byte-identical (``tests/telemetry/test_differential.py``).
:func:`differential_workload` is the small sharing-heavy workload those
tests and the oracle property test
(``tests/integration/test_property_differential.py``) drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.config import SVCConfig
from repro.common.events import EventLog
from repro.faults import FaultPlan
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import TaskProgram
from repro.mem.main_memory import MainMemory
from repro.svc.designs import DESIGNS, design_config
from repro.svc.system import SVCSystem
from repro.workloads.generator import WorkloadSpec, generate_tasks

#: Every design tier of the paper's section-3 progression.
TIERS: Tuple[str, ...] = tuple(DESIGNS)


@dataclass
class RunObservation:
    """Everything observable about one functional run."""

    events: Tuple
    stats: Dict[str, int]
    image: Dict[int, int]
    load_values: List[List[int]]
    violation_squashes: int
    injected_squashes: int


def observe_run(
    config: SVCConfig,
    tasks: List[TaskProgram],
    seed: int = 0,
    schedule: str = "random",
    fault_plan: Optional[FaultPlan] = None,
    telemetry=None,
) -> RunObservation:
    """One driver run over a fresh system, with every observable captured.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry` or ``None``) is
    deliberately *not* part of the observation: recording spans must
    never perturb events, stats, load values or the memory image, and
    :func:`compare_telemetry_modes` proves it.
    """
    memory = MainMemory(config.miss_penalty_cycles)
    log = EventLog()
    system = SVCSystem(config, memory=memory, event_log=log, telemetry=telemetry)
    driver = SpeculativeExecutionDriver(
        system,
        tasks,
        seed=seed,
        schedule=schedule,
        fault_plan=fault_plan,
    )
    report = driver.run()
    return RunObservation(
        events=tuple(log),
        stats=system.stats.snapshot(),
        image=memory.image(),
        load_values=report.load_values,
        violation_squashes=report.violation_squashes,
        injected_squashes=report.injected_squashes,
    )


def _first_event_divergence(on: Tuple, off: Tuple, what: str = "mode") -> str:
    for i, (a, b) in enumerate(zip(on, off)):
        if a != b:
            return f"event {i}: {what}-on {a} != {what}-off {b}"
    return (
        f"event stream lengths differ: {what}-on {len(on)} "
        f"!= {what}-off {len(off)}"
    )


def diff_observations(
    on: RunObservation, off: RunObservation, what: str = "mode"
) -> List[str]:
    """Human-readable divergences between two observations (empty = ok)."""
    mismatches: List[str] = []
    if on.events != off.events:
        mismatches.append(_first_event_divergence(on.events, off.events, what))
    if on.stats != off.stats:
        diff = {
            key: (on.stats.get(key, 0), off.stats.get(key, 0))
            for key in set(on.stats) | set(off.stats)
            if on.stats.get(key, 0) != off.stats.get(key, 0)
        }
        mismatches.append(f"stats diverged (on, off): {diff}")
    if on.load_values != off.load_values:
        mismatches.append("committed load values diverged")
    if on.image != off.image:
        mismatches.append("final memory images diverged")
    if (on.violation_squashes, on.injected_squashes) != (
        off.violation_squashes,
        off.injected_squashes,
    ):
        mismatches.append(
            f"squash counts diverged: on ({on.violation_squashes}, "
            f"{on.injected_squashes}) != off ({off.violation_squashes}, "
            f"{off.injected_squashes})"
        )
    return mismatches


def compare_telemetry_modes(
    tier: str,
    tasks: List[TaskProgram],
    seed: int = 0,
    schedule: str = "random",
    fault_plan: Optional[FaultPlan] = None,
    base_config: Optional[SVCConfig] = None,
) -> List[str]:
    """Prove telemetry is a pure observer on one tier.

    Runs the same seeded workload with telemetry recording and fully
    unwired; every observable (event stream, stats, load values, memory
    image, squash counts) must be byte-identical. Also sanity-checks
    that the traced run actually produced spans — a silently-dead
    recorder would make the comparison vacuous.
    """
    from repro.telemetry import Telemetry

    config = design_config(tier, base_config or SVCConfig.paper_32kb())
    kwargs = dict(seed=seed, schedule=schedule, fault_plan=fault_plan)
    tel = Telemetry(label=f"differential/{tier}")
    on = observe_run(config, tasks, telemetry=tel, **kwargs)
    off = observe_run(config, tasks, telemetry=None, **kwargs)

    mismatches: List[str] = []
    if not tel.tracer.spans:
        mismatches.append("traced run recorded no spans (telemetry dead?)")
    mismatches.extend(diff_observations(on, off, what="telemetry"))
    return mismatches


def differential_workload(
    seed: int, n_tasks: int = 24, ops_per_task: int = 12
) -> List[TaskProgram]:
    """A small, sharing-heavy seeded workload sized to force evictions,
    snarfs and violations even on the 8KB configuration."""
    spec = WorkloadSpec(
        name=f"differential-{seed}",
        n_tasks=n_tasks,
        ops_per_task_mean=ops_per_task,
        memory_fraction=0.6,
        store_fraction=0.45,
        working_set_bytes=2 * 1024,
        shared_bytes=512,
        read_only_bytes=512,
        p_shared=0.3,
        p_private=0.3,
        p_read_only=0.1,
        spatial_run=4,
        seed=seed,
    )
    return generate_tasks(spec)
