"""The benchmark's four workloads, and how one simulated point is built,
run and checked.

Everything here goes through repro's public entry points only:
``generate_tasks``, ``SVCSystem``/``ARBSystem``, ``TimingSimulator.run``,
``InvariantChecker`` and ``SequentialOracle``. The benchmark measures the
``src`` tree of the checkout it sits in, never an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SRC = (Path(__file__).resolve().parent.parent / "src").resolve()
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")

from repro.arb.system import ARBSystem  # noqa: E402
from repro.check import InvariantChecker  # noqa: E402
from repro.common.config import ARBConfig, SVCConfig  # noqa: E402
from repro.hier.task import TaskProgram  # noqa: E402
from repro.oracle.sequential import SequentialOracle  # noqa: E402
from repro.svc.designs import DESIGNS, design_config, final_design  # noqa: E402
from repro.svc.system import SVCSystem  # noqa: E402
from repro.timing.simulator import TimingReport, TimingSimulator  # noqa: E402
from repro.workloads.generator import generate_tasks  # noqa: E402
from repro.workloads.spec95 import BENCHMARKS, SPEC95_PROFILES  # noqa: E402


@dataclass(frozen=True)
class Point:
    """One simulated machine running one SPEC95 model's task stream."""

    benchmark: str
    machine: str
    config: object
    checked: bool = False

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.machine}"


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    points: Tuple[Point, ...]


def _svc_paper() -> Tuple[Point, ...]:
    sizes = (("svc_4x8k", SVCConfig.paper_32kb()), ("svc_4x16k", SVCConfig.paper_64kb()))
    return tuple(
        Point(name, machine, final_design(config))
        for name in BENCHMARKS
        for machine, config in sizes
    )


def _arb_paper() -> Tuple[Point, ...]:
    sizes = (("arb32k", ARBConfig.paper_32kb), ("arb64k", ARBConfig.paper_64kb))
    return tuple(
        Point(name, f"{label}_{hit}c", factory(hit_cycles=hit))
        for name in BENCHMARKS
        for label, factory in sizes
        for hit in (1, 2, 3, 4)
    )


def _tiers_sharing() -> Tuple[Point, ...]:
    return tuple(
        Point(name, f"svc_{design}", design_config(design, SVCConfig.paper_32kb()))
        for name in ("compress", "gcc")
        for design in DESIGNS
    )


def _checked() -> Tuple[Point, ...]:
    return tuple(
        Point(name, f"svc_{design}", design_config(design, SVCConfig.paper_32kb()), True)
        for name in ("compress", "mgrid")
        for design in ("base", "final")
    )


# Why each workload exists is in README.md. SVC runs at exactly 8 PUs are
# left out: gcc raises IndexError in the timing loop there at scale >= 0.2
# (README.md, known defect). So are the stream offsets below.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's headline path: VCL, bus and cache probes; two cache
        # sizes against mgrid's 256KB working set.
        Workload("svc-paper", 0.5, _svc_paper()),
        # Never reaches the SVC, the VCL or the bus: an SVC-side change
        # must leave it unchanged.
        Workload("arb-paper", 0.25, _arb_paper()),
        # Finest-grain sharing: base's eager-writeback commits, hr's snarfs.
        Workload("tiers-sharing", 0.5, _tiers_sharing()),
        # The event log and the invariant checker do most of the work here
        # and none on the other three.
        Workload("checked", 0.1, _checked()),
    )
}


#: Offsets in ``range(SCANNED_OFFSETS)`` whose task streams make some point
#: of some workload raise the timing loop's stale-event IndexError
#: (README.md, known defect), found by running every point at each offset.
DEFECT_OFFSETS = frozenset({16, 45, 48, 50})
SCANNED_OFFSETS = 64


def stream_offset(seed: int) -> int:
    """The offset ``seed`` adds to every SPEC95 profile seed: the seed-th
    scanned offset free of the known defect (wrapping around), so seeds 0
    to 15 add themselves and seed 0 gives the fig19/fig20 streams."""
    clean = [offset for offset in range(SCANNED_OFFSETS) if offset not in DEFECT_OFFSETS]
    return clean[seed % len(clean)]


def generate(
    workload: Workload, seed: int, generate_fn=generate_tasks, scale: Optional[float] = None
) -> Dict[str, List[TaskProgram]]:
    """Task streams per benchmark for ``--seed seed``."""
    scale = workload.scale if scale is None else scale
    offset = stream_offset(seed)
    tasks: Dict[str, List[TaskProgram]] = {}
    for point in workload.points:
        if point.benchmark not in tasks:
            spec = SPEC95_PROFILES[point.benchmark].scaled(scale)
            tasks[point.benchmark] = generate_fn(spec, seed=spec.seed + offset)
    return tasks


def build(point: Point, tasks: Dict[str, List[TaskProgram]], tracer=None) -> TimingSimulator:
    """A fresh system and simulator for ``point``. With a tracer, the
    layer wrappers go onto the instances before anything runs: the
    checker's ``on_event`` before ``bind()`` captures it, and the
    system's methods before ``run()`` binds them in its loop."""
    checker = None
    if point.checked:
        checker = InvariantChecker()
        if tracer is not None:
            tracer.install(checker)
    system_cls = SVCSystem if isinstance(point.config, SVCConfig) else ARBSystem
    system = system_cls(point.config, checker=checker)
    sim = TimingSimulator(system, tasks[point.benchmark])
    if tracer is not None:
        for part in (
            sim,
            system,
            getattr(system, "vcl", None),
            getattr(system, "bus", None),
            system.memory,
            getattr(system, "data_cache", None),
            system.event_log,
        ):
            if part is not None:
                tracer.install(part)
    return sim


def oracle_images(tasks: Dict[str, List[TaskProgram]]) -> Dict[str, Dict[int, int]]:
    """The sequential oracle's final memory image per benchmark."""
    return {name: SequentialOracle().run(stream).memory_image for name, stream in tasks.items()}


def digest(report: TimingReport) -> str:
    """Hash of every simulated statistic a speed-only change must keep."""
    fields = [
        report.cycles,
        report.committed_memory_ops,
        report.executed_memory_ops,
        report.violation_squashes,
        report.misprediction_squashes,
        report.replacement_stall_retries,
        report.commit_cycles,
        sorted(report.memory_stats.items()),
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


@dataclass
class PointRun:
    """One point simulated once: its host wall time and what it produced."""

    point: Point
    wall_s: float = 0.0
    report: Optional[TimingReport] = None
    events: int = 0
    checks: int = 0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_point(
    point: Point,
    tasks: Dict[str, List[TaskProgram]],
    oracle_image: Dict[int, int],
    tracer=None,
) -> PointRun:
    """Build, run (timed) and check one point. A point fails if it raises
    or if its drained memory image differs from the sequential oracle's;
    the check runs outside the timed region."""
    result = PointRun(point)
    try:
        sim = build(point, tasks, tracer)
        start = time.perf_counter()
        report = sim.run()
        result.wall_s = time.perf_counter() - start
    except Exception as exc:  # a raising point is counted, not fatal
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    result.report = report
    system = sim.system
    if system.event_log is not None:
        result.events = len(system.event_log)
    if system.checker is not None:
        result.checks = system.checker.checks
    if system.memory.image() != oracle_image:
        result.error = "drained memory image differs from the sequential oracle"
    return result
