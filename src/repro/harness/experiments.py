"""Runners for every evaluation artifact (paper section 4).

The paper's published numbers are embedded alongside each experiment so
reports always show paper-vs-measured; EXPERIMENTS.md records a full
run. Machine configurations are exactly section 4.2's: 4 PUs, SVC =
4-way 8KB/16KB per PU in 16-byte lines on a 3-cycle snooping bus with a
1-cycle hit; ARB = 256 rows x 5 stages over a 32KB/64KB direct-mapped
data cache, hit time swept 1-4 cycles, contention-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, SVCConfig, UpdatePolicy
from repro.harness.parallel import PointSpec, run_points
from repro.svc.designs import design_config, final_design
from repro.svc.system import SVCSystem
from repro.telemetry import (
    PRODUCTION_SAMPLE_INTERVAL,
    PRODUCTION_TRACE_CAPACITY,
    Telemetry,
)
from repro.timing.simulator import TimingReport, TimingSimulator
from repro.workloads.spec95 import BENCHMARKS
from repro.workloads.traceprog import resolve_tasks

#: Paper-reported values, transcribed from the paper.
PAPER_TABLE2 = {
    "compress": {"arb_32k": 0.031, "svc_4x8k": 0.075},
    "gcc": {"arb_32k": 0.021, "svc_4x8k": 0.036},
    "vortex": {"arb_32k": 0.019, "svc_4x8k": 0.025},
    "perl": {"arb_32k": 0.026, "svc_4x8k": 0.024},
    "ijpeg": {"arb_32k": 0.015, "svc_4x8k": 0.027},
    "mgrid": {"arb_32k": 0.081, "svc_4x8k": 0.093},
    "apsi": {"arb_32k": 0.023, "svc_4x8k": 0.034},
}

PAPER_TABLE3 = {
    "compress": {"svc_4x8k": 0.348, "svc_4x16k": 0.341},
    "gcc": {"svc_4x8k": 0.219, "svc_4x16k": 0.203},
    "vortex": {"svc_4x8k": 0.360, "svc_4x16k": 0.354},
    "perl": {"svc_4x8k": 0.313, "svc_4x16k": 0.291},
    "ijpeg": {"svc_4x8k": 0.241, "svc_4x16k": 0.226},
    "mgrid": {"svc_4x8k": 0.747, "svc_4x16k": 0.632},
    "apsi": {"svc_4x8k": 0.276, "svc_4x16k": 0.255},
}

#: Figure 19/20 series labels, in the paper's legend order.
FIGURE_CONFIGS = ("svc_1c", "arb_1c", "arb_2c", "arb_3c", "arb_4c")


@dataclass
class BenchmarkResult:
    """Measured metrics for one (benchmark, machine) point."""

    benchmark: str
    machine: str
    ipc: float
    miss_ratio: float
    bus_utilization: float
    cycles: int
    instructions: int
    violation_squashes: int
    misprediction_squashes: int
    #: Telemetry payload (:meth:`repro.telemetry.Telemetry.snapshot`)
    #: when the point ran with telemetry enabled; picklable, so it
    #: crosses the worker-process boundary and the exporters can merge
    #: per-point payloads into one trace.
    telemetry: Optional[Dict] = None


@dataclass
class ExperimentResult:
    """All points of one experiment, plus paper targets for comparison.

    ``campaigns`` holds the supervised-execution reports
    (:class:`repro.harness.supervisor.CampaignReport`) behind ``points``:
    quarantined points are absent from ``points`` but accounted for
    there, which is how the CLI distinguishes a complete run (exit 0)
    from a partial one (exit 1).
    """

    experiment: str
    points: List[BenchmarkResult] = field(default_factory=list)
    paper: Dict[str, Dict[str, float]] = field(default_factory=dict)
    campaigns: List = field(default_factory=list)

    def point(self, benchmark: str, machine: str) -> Optional[BenchmarkResult]:
        for result in self.points:
            if result.benchmark == benchmark and result.machine == machine:
                return result
        return None

    @property
    def quarantined_count(self) -> int:
        return sum(
            report.counters.get("quarantined", 0) for report in self.campaigns
        )


def _collect(
    result: ExperimentResult,
    specs: List[PointSpec],
    workers: Optional[int],
    resume: bool = False,
) -> ExperimentResult:
    """Run ``specs`` under the supervisor and fold everything into
    ``result`` (successful points plus the campaign report)."""
    campaigns: List = []
    result.points.extend(
        run_points(specs, workers, resume=resume, campaigns=campaigns)
    )
    result.campaigns.extend(campaigns)
    return result


def _point_telemetry(
    benchmark: str, machine: str, telemetry: bool
) -> Optional[Telemetry]:
    """``None`` (unwired) unless the point asked for telemetry.

    Campaign points record under the production bounded/sampled
    configuration — a span ring plus 1-in-N memory-op subtrees — which
    bounds what enabled mode records and costs (measured in
    docs/OBSERVABILITY.md, "The budget").
    Code that needs every span (unit tests, the exporter round-trips)
    builds its own full-recording ``Telemetry()``.
    """
    if not telemetry:
        return None
    return Telemetry(
        label=f"{benchmark}/{machine}",
        capacity=PRODUCTION_TRACE_CAPACITY,
        sample_interval=PRODUCTION_SAMPLE_INTERVAL,
    )


def _run_svc(
    benchmark: str,
    machine: str,
    config: SVCConfig,
    scale: Optional[float],
    telemetry: bool = False,
) -> BenchmarkResult:
    tasks = resolve_tasks(benchmark, scale)
    tel = _point_telemetry(benchmark, machine, telemetry)
    system = SVCSystem(config, telemetry=tel)
    report = TimingSimulator(system, tasks).run()
    return _to_result(benchmark, machine, report, tel)


def _run_arb(
    benchmark: str,
    machine: str,
    config: ARBConfig,
    scale: Optional[float],
    telemetry: bool = False,
) -> BenchmarkResult:
    tasks = resolve_tasks(benchmark, scale)
    tel = _point_telemetry(benchmark, machine, telemetry)
    system = ARBSystem(config, telemetry=tel)
    report = TimingSimulator(system, tasks).run()
    return _to_result(benchmark, machine, report, tel)


def _to_result(
    benchmark: str,
    machine: str,
    report: TimingReport,
    tel: Optional[Telemetry] = None,
) -> BenchmarkResult:
    return BenchmarkResult(
        benchmark=benchmark,
        machine=machine,
        ipc=report.ipc,
        miss_ratio=report.miss_ratio(),
        bus_utilization=report.bus_utilization(),
        cycles=report.cycles,
        instructions=report.committed_instructions,
        violation_squashes=report.violation_squashes,
        misprediction_squashes=report.misprediction_squashes,
        telemetry=tel.snapshot() if tel is not None else None,
    )


def run_table2(
    benchmarks=BENCHMARKS,
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Table 2: miss ratios, ARB/32KB vs SVC 4x8KB."""
    result = ExperimentResult(experiment="table2", paper=PAPER_TABLE2)
    specs = []
    for name in benchmarks:
        specs.append(
            PointSpec(
                name, "arb_32k", "arb", ARBConfig.paper_32kb(hit_cycles=1),
                scale, telemetry,
            )
        )
        specs.append(
            PointSpec(
                name, "svc_4x8k", "svc", final_design(SVCConfig.paper_32kb()),
                scale, telemetry,
            )
        )
    return _collect(result, specs, workers, resume)


def run_table3(
    benchmarks=BENCHMARKS,
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Table 3: SVC snooping-bus utilization at 4x8KB and 4x16KB."""
    result = ExperimentResult(experiment="table3", paper=PAPER_TABLE3)
    specs = []
    for name in benchmarks:
        specs.append(
            PointSpec(
                name, "svc_4x8k", "svc", final_design(SVCConfig.paper_32kb()),
                scale, telemetry,
            )
        )
        specs.append(
            PointSpec(
                name, "svc_4x16k", "svc", final_design(SVCConfig.paper_64kb()),
                scale, telemetry,
            )
        )
    return _collect(result, specs, workers, resume)


def figure_specs(
    svc_config: SVCConfig,
    arb_factory: Callable[[int], ARBConfig],
    benchmarks,
    scale: Optional[float] = None,
    telemetry: bool = False,
) -> List[PointSpec]:
    """The point list of one figure sweep."""
    specs = []
    for name in benchmarks:
        specs.append(
            PointSpec(
                name, "svc_1c", "svc", final_design(svc_config), scale, telemetry
            )
        )
        for hit in (1, 2, 3, 4):
            specs.append(
                PointSpec(
                    name, f"arb_{hit}c", "arb", arb_factory(hit), scale, telemetry
                )
            )
    return specs


def figure19_specs(
    benchmarks=BENCHMARKS,
    scale: Optional[float] = None,
    telemetry: bool = False,
) -> List[PointSpec]:
    """Figure 19's points as bare specs (for benches and chaos smokes)."""
    return figure_specs(
        SVCConfig.paper_32kb(),
        lambda hit: ARBConfig.paper_32kb(hit_cycles=hit),
        benchmarks,
        scale,
        telemetry,
    )


def _run_figure(
    experiment: str,
    svc_config: SVCConfig,
    arb_factory: Callable[[int], ARBConfig],
    benchmarks,
    scale: Optional[float],
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    result = ExperimentResult(experiment=experiment)
    specs = figure_specs(svc_config, arb_factory, benchmarks, scale, telemetry)
    return _collect(result, specs, workers, resume)


def run_figure19(
    benchmarks=BENCHMARKS,
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Figure 19: IPC, ARB (1-4 cycle hit) vs SVC (1 cycle), 32KB total."""
    return _run_figure(
        "fig19",
        SVCConfig.paper_32kb(),
        lambda hit: ARBConfig.paper_32kb(hit_cycles=hit),
        benchmarks,
        scale,
        workers,
        telemetry,
        resume,
    )


def run_figure20(
    benchmarks=BENCHMARKS,
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Figure 20: IPC, ARB (1-4 cycle hit) vs SVC (1 cycle), 64KB total."""
    return _run_figure(
        "fig20",
        SVCConfig.paper_64kb(),
        lambda hit: ARBConfig.paper_64kb(hit_cycles=hit),
        benchmarks,
        scale,
        workers,
        telemetry,
        resume,
    )


def run_ablation_designs(
    benchmarks=("compress", "gcc", "mgrid"),
    designs=("base", "ec", "ecs", "hr", "final"),
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Design progression ablation: what each section-3 step buys.

    The base/EC/ECS designs use the paper's one-word-line geometry, so
    this ablation also shows the RL design's line-size effect.
    """
    result = ExperimentResult(experiment="ablation_designs")
    specs = [
        PointSpec(
            name, f"svc_{design}", "svc",
            design_config(design, SVCConfig.paper_32kb()), scale, telemetry,
        )
        for name in benchmarks
        for design in designs
    ]
    return _collect(result, specs, workers, resume)


def run_ablation_update_policy(
    benchmarks=("compress", "gcc", "mgrid"),
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Invalidate vs update vs hybrid coherence (section 3.8)."""
    result = ExperimentResult(experiment="ablation_update")
    specs = [
        PointSpec(
            name, f"svc_{policy}", "svc",
            final_design(SVCConfig.paper_32kb(), update_policy=policy),
            scale, telemetry,
        )
        for name in benchmarks
        for policy in UpdatePolicy.ALL
    ]
    return _collect(result, specs, workers, resume)


def run_ablation_linesize(
    benchmarks=("compress", "ijpeg"),
    block_sizes=(4, 8, 16),
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """RL design: versioning-block size vs false-sharing squashes."""
    from dataclasses import replace

    from repro.common.config import CacheGeometry

    result = ExperimentResult(experiment="ablation_linesize")
    specs = []
    for name in benchmarks:
        for vbs in block_sizes:
            geometry = CacheGeometry(
                size_bytes=8 * 1024,
                associativity=4,
                line_size=16,
                versioning_block_size=vbs,
            )
            config = replace(final_design(SVCConfig.paper_32kb()), geometry=geometry)
            specs.append(
                PointSpec(name, f"svc_vb{vbs}", "svc", config, scale, telemetry)
            )
    return _collect(result, specs, workers, resume)


def run_ablation_scaling(
    benchmarks=("compress", "mgrid"),
    pu_counts=(2, 4, 8),
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    telemetry: bool = False,
    resume: bool = False,
) -> ExperimentResult:
    """Extension experiment: PU-count scaling of both organizations.

    The paper argues the SVC organization scales like an SMP (private
    caches, one snooping bus) where the ARB's shared buffer needs
    ever-more ports/stages. This sweep holds per-PU SVC storage at 8KB
    and gives the ARB one stage per PU over the same total storage.
    """
    from dataclasses import replace

    result = ExperimentResult(experiment="ablation_scaling")
    specs = []
    for name in benchmarks:
        for n_pus in pu_counts:
            svc_config = replace(
                final_design(SVCConfig.paper_32kb()), n_caches=n_pus
            )
            specs.append(
                PointSpec(name, f"svc_{n_pus}pu", "svc", svc_config, scale, telemetry)
            )
            arb_config = replace(
                ARBConfig.paper_32kb(hit_cycles=2), n_stages=n_pus + 1
            )
            specs.append(
                PointSpec(
                    name, f"arb2c_{n_pus}pu", "arb", arb_config, scale, telemetry
                )
            )
    return _collect(result, specs, workers, resume)


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table2": run_table2,
    "table3": run_table3,
    "fig19": run_figure19,
    "fig20": run_figure20,
    "ablation_designs": run_ablation_designs,
    "ablation_update": run_ablation_update_policy,
    "ablation_linesize": run_ablation_linesize,
    "ablation_scaling": run_ablation_scaling,
}
