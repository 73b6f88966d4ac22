"""Differential oracle for the SVC's performance fast path.

The structure-of-arrays :class:`repro.svc.fastpath.FastpathKernel`
(``SVCConfig.use_fastpath``) keeps each line's holders and VOL in a
persistent snapshot and runs stamp-compare snarf acceptance and fused
VOL repair. It is a pure-speed mechanism on the hot VCL path and must
never change *observable* behaviour.

This module enforces that the hard way: run the same seeded workload
twice on the same design tier — fastpath on (the default) and off
(the per-line object walks, which read the cache arrays and rebuild
the VOL on every request) — and demand byte-identical

* protocol event streams (every bus transaction, squash, commit, VOL
  repair, in order, with identical payloads),
* statistics snapshots,
* committed load values per task, and
* final drained main-memory images.

Workloads, schedules and fault plans are all seeded, so both runs make
exactly the same decisions; the only degree of freedom left is the
mechanism under test. Any divergence is a fast-path bug by
construction.

Used by the hypothesis property test
(``tests/integration/test_property_differential.py``) across all six
design tiers with fault injection on, and runnable standalone::

    PYTHONPATH=src python -m repro.harness.differential --seeds 10 --faults
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


class DifferentialMismatch(AssertionError):
    """Fastpath-on and fastpath-off runs diverged."""


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
    squash_probability: float = 0.0,
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
        squash_probability=squash_probability,
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


def compare_fastpath_modes(
    tier: str,
    tasks: List[TaskProgram],
    seed: int = 0,
    schedule: str = "random",
    squash_probability: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
    base_config: Optional[SVCConfig] = None,
) -> List[str]:
    """Run one tier with the structure-of-arrays fastpath kernel on and
    off; return human-readable mismatches (empty = ok).

    The off run exercises the per-line object walks (array reads and a
    VOL rebuild per request, byte composition, per-line VOL repair);
    the on run exercises :class:`repro.svc.fastpath.FastpathKernel`'s
    persistent snapshots, supply plans, stamp-compare snarf acceptance
    and fused repair. Identical observables across all tiers, faults
    and chaos schedules is the kernel's correctness proof.
    """
    config = design_config(tier, base_config or SVCConfig.paper_32kb())
    kwargs = dict(
        seed=seed,
        schedule=schedule,
        squash_probability=squash_probability,
        fault_plan=fault_plan,
    )
    on = observe_run(replace(config, use_fastpath=True), tasks, **kwargs)
    off = observe_run(replace(config, use_fastpath=False), tasks, **kwargs)
    return diff_observations(on, off, what="fastpath")


def compare_telemetry_modes(
    tier: str,
    tasks: List[TaskProgram],
    seed: int = 0,
    schedule: str = "random",
    squash_probability: float = 0.0,
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
    kwargs = dict(
        seed=seed,
        schedule=schedule,
        squash_probability=squash_probability,
        fault_plan=fault_plan,
    )
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


def check_tier(
    tier: str,
    seed: int,
    with_faults: bool = False,
    schedule: str = "random",
) -> None:
    """Raise :class:`DifferentialMismatch` if the fastpath changes any
    observable behaviour on one tier."""
    tasks = differential_workload(seed)
    # The EC design assumes no squashes (paper section 3.4).
    allow_squashes = tier != "ec"
    fault_plan = None
    if with_faults:
        from repro.faults import random_fault_plan

        fault_plan = random_fault_plan(
            seed, len(tasks), 12, allow_squashes=allow_squashes
        )
    mismatches = compare_fastpath_modes(
        tier,
        tasks,
        seed=seed,
        squash_probability=0.02 if allow_squashes else 0.0,
        fault_plan=fault_plan,
        schedule=schedule,
    )
    if mismatches:
        raise DifferentialMismatch(
            f"tier {tier!r}, seed {seed}: the fastpath changed "
            "observable behaviour:\n  " + "\n  ".join(mismatches)
        )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Differential check: SVC fastpath on vs off."
    )
    parser.add_argument("--seeds", type=int, default=5, help="seeds per tier")
    parser.add_argument(
        "--faults", action="store_true", help="attach random fault plans"
    )
    parser.add_argument(
        "--tiers", default=",".join(TIERS), help="comma-separated tier subset"
    )
    args = parser.parse_args(argv)
    tiers = tuple(t for t in args.tiers.split(",") if t)
    for tier in tiers:
        for seed in range(args.seeds):
            check_tier(tier, seed, with_faults=args.faults)
        print(f"fastpath/{tier}: {args.seeds} seeds identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
