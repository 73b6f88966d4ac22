#!/usr/bin/env python
"""Wall-clock benchmark of the experiment harness, with a regression gate.

Runs the paper's figure sweeps end to end, times them (min-of-N wall
clock), and emits ``BENCH_PERF.json`` recording wall time and
simulation throughput (events/sec, where an event is one committed
instruction). The committed baseline at the repository root is what
CI's ``bench-smoke`` job compares a fresh ``--quick`` run against: a
wall-time regression beyond the threshold (default 25%) fails the job.

Three more gates ride along (docs/PERFORMANCE.md explains each):

* per-tier events/sec floors for all six SVC designs;
* enabled-mode telemetry overhead < 10% of the unwired baseline
  (production ring-buffer and span-sampling config);
* supervised-engine no-fault overhead < 3% of the bare fan-out.

Usage::

    PYTHONPATH=src python tools/bench_perf.py --quick
    PYTHONPATH=src python tools/bench_perf.py --scale 0.1 --workers 4
    PYTHONPATH=src python tools/bench_perf.py --quick --compare BENCH_PERF.json

Throughput (events/sec) is the hardware-portable number: wall times from
different machines are not comparable, so ``--compare`` refuses to gate
unless the baseline was produced with the same scale, benchmarks and
experiment list (it still only means something on similar hardware —
CI compares CI-produced numbers against a CI-produced baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.experiments import EXPERIMENTS  # noqa: E402
from repro.harness.parallel import resolve_workers  # noqa: E402
from repro.workloads.spec95 import BENCHMARKS  # noqa: E402

#: Experiments timed by default: the paper's headline IPC sweeps.
DEFAULT_EXPERIMENTS = ("fig19", "fig20")

#: --quick settings: small but non-trivial, for CI smoke gating.
QUICK_SCALE = 0.05
QUICK_BENCHMARKS = ("compress", "gcc", "mgrid")

#: Wall-time repeats per experiment; min-of-N suppresses scheduler
#: noise (single runs at --quick scale jitter by tens of percent,
#: enough to flip any gate either way).
EXPERIMENT_REPEATS = 3

#: Enabled-mode telemetry (spans + metrics recording, production
#: ring-buffer/sampling config) must cost less than this fraction of
#: the unwired baseline (ISSUE acceptance: single-digit overhead).
TELEMETRY_ENABLED_BUDGET = 0.10

#: Workload scale for the overhead measurements (telemetry and
#: supervisor), independent of the throughput scale: overhead is a
#: *ratio* of adjacent runs, and on shared CI hosts sub-second runs
#: jitter by ±15% while ~1.5s runs jitter by ~±5% — long enough runs
#: are what make the ratio meaningful.
OVERHEAD_SCALE = 0.15

#: Rounds for the telemetry overhead measurement. Each round times both
#: wiring modes back-to-back in rotating order, computes per-round
#: wall-time ratios against that round's baseline run, and the gate
#: reads the *minimum of per-round ratios*: adjacent runs share the
#: host's speed phase, so ratios cancel drift that makes cross-batch
#: minima incomparable (per-mode min-of-N once measured byte-identical
#: code 6% "slower" than itself). Noise left over inside a round
#: inflates whichever run it lands on, so per-round ratios err in both
#: directions; taking the min makes the gate deliberately *optimistic*
#: — it can under-estimate overhead (even below zero when a round's
#: baseline run was polluted) but it cannot flake, and the budget is
#: sized to catch the catastrophic regressions this gate exists for
#: (enabled-mode telemetry once cost +71%), not to measure precisely.
#: docs/PERFORMANCE.md records the carefully measured numbers.
TELEMETRY_REPEATS = 6

#: Minimum events/sec per SVC design tier (an event is one executed
#: task op). Floors are *measured honestly*: the reference machine
#: (1-CPU CI container, CPython) sustains 25k-35k events/sec per tier on
#: the sharing-heavy differential workload; floors sit at roughly one
#: third of that so hardware and scheduler variance cannot flip the
#: gate, while a real hot-path regression (VOL snapshots rebuilt on
#: every bus request, an accidental O(n^2) walk) still trips it.
#: docs/PERFORMANCE.md records the measurements behind these numbers.
TIER_FLOORS = {
    "base": 9_000,
    "ec": 11_000,
    "ecs": 12_000,
    "hr": 8_000,
    "rl": 10_000,
    "final": 11_000,
}

#: Repeats for the per-tier throughput measurement (min-of-N).
TIER_REPEATS = 3

#: The supervised engine's no-fault overhead vs. the old bare fan-out
#: must stay under this fraction.
SUPERVISOR_OVERHEAD_BUDGET = 0.03

#: Rounds for the supervisor overhead measurement (rotating order,
#: minimum of per-round ratios, as above).
SUPERVISOR_REPEATS = 8


def measure_tier_throughput(repeats=TIER_REPEATS):
    """Events/sec for every SVC design tier, from the min-of-``repeats``
    wall.

    One seeded sharing-heavy workload (the differential generator's,
    scaled up) runs through the functional driver per tier; the timed
    ``run()`` includes the driver's end-of-run ``verify()`` audit. Each
    tier's events/sec must clear :data:`TIER_FLOORS`: the hot
    VCL/snoop/commit path must not silently regress.
    """
    from repro.common.config import SVCConfig
    from repro.common.events import EventLog
    from repro.harness.differential import differential_workload
    from repro.hier.driver import SpeculativeExecutionDriver
    from repro.mem.main_memory import MainMemory
    from repro.svc.designs import DESIGNS, design_config
    from repro.svc.system import SVCSystem

    tasks = differential_workload(0, n_tasks=48, ops_per_task=24)
    events = sum(len(task.ops) for task in tasks)

    def timed(config):
        start = time.perf_counter()
        system = SVCSystem(
            config,
            memory=MainMemory(config.miss_penalty_cycles),
            event_log=EventLog(),
        )
        SpeculativeExecutionDriver(system, tasks, seed=0).run()
        return time.perf_counter() - start

    tiers = {}
    for tier in DESIGNS:
        config = design_config(tier, SVCConfig.paper_32kb())
        wall = min(timed(config) for _ in range(repeats))
        tiers[tier] = {
            "events": events,
            "wall_s": round(wall, 4),
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "floor": TIER_FLOORS[tier],
        }
    return {"repeats": repeats, "tiers": tiers}


def gate_tier_throughput(measurement):
    """Failure strings for the per-tier floors."""
    failures = []
    for tier, data in measurement["tiers"].items():
        eps = data["events_per_sec"]
        if eps < data["floor"]:
            failures.append(
                f"tier {tier!r}: {eps} events/sec is below the "
                f"{data['floor']} floor"
            )
    return failures


def measure_supervisor_overhead(benchmarks, scale, repeats=SUPERVISOR_REPEATS):
    """Time a fig19 sweep through the old bare fan-out and the
    supervised engine, no faults in either.

    The supervised mode runs with the NDJSON campaign stream enabled
    (which also auto-enables the per-attempt flight recorder), so the
    budget gates the full observability-on configuration — the one CI
    and the report generator actually run — not a stripped-down engine.

    Measured serially (one worker, in-process) so the comparison
    isolates the engine's bookkeeping — retry scaffolding, outcome
    accounting, stream/flight emission, campaign reporting — from
    process-pool scheduling noise, which at CI scales dwarfs a 3%
    effect. The parallel path's wall time is separately covered by the
    main regression gate.
    """
    import shutil
    import tempfile

    from repro.harness.experiments import figure19_specs
    from repro.harness.parallel import execute_point, parallel_map
    from repro.harness.supervisor import SupervisorConfig, run_campaign
    from repro.telemetry.stream import CampaignStream

    specs = figure19_specs(benchmarks=benchmarks, scale=scale)
    scratch = tempfile.mkdtemp(prefix="repro-bench-stream-")
    stream_path = os.path.join(scratch, "campaign.ndjson")

    def timed(run):
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    def supervised():
        stream = CampaignStream(path=stream_path)
        try:
            run_campaign(specs, SupervisorConfig(workers=1, stream=stream))
        finally:
            stream.close()

    # Paired per-round ratios, rotating order, min across rounds —
    # same methodology and rationale as measure_telemetry_overhead
    # (back-to-back per-mode batches once measured the supervised
    # engine 19% *faster* than the bare fan-out, pure host drift).
    modes = (
        ("bare", lambda: parallel_map(execute_point, specs, workers=1)),
        ("supervised", supervised),
    )
    try:
        rounds = []
        for round_index in range(repeats):
            offset = round_index % len(modes)
            rounds.append(
                {
                    name: timed(run)
                    for name, run in modes[offset:] + modes[:offset]
                }
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bare = min(r["bare"] for r in rounds)
    supervised = min(r["supervised"] for r in rounds)
    overhead = min(r["supervised"] / r["bare"] for r in rounds) - 1.0
    return {
        "experiment": "fig19",
        "benchmarks": list(benchmarks),
        "scale": scale,
        "repeats": repeats,
        "points": len(specs),
        "streaming": True,
        "bare_wall_s": round(bare, 4),
        "supervised_wall_s": round(supervised, 4),
        "overhead": round(overhead, 4),
        "budget": SUPERVISOR_OVERHEAD_BUDGET,
    }


def measure_telemetry_overhead(benchmarks, scale, repeats=TELEMETRY_REPEATS):
    """Time one experiment with telemetry unwired and enabled.

    Modes: ``baseline`` (telemetry=False — nothing wired anywhere) and
    ``enabled`` (telemetry=True — spans + metrics recorded through the
    production ring-buffer/sampling config,
    :data:`repro.telemetry.PRODUCTION_TRACE_CAPACITY` /
    :data:`~repro.telemetry.PRODUCTION_SAMPLE_INTERVAL`). The
    enabled-vs-baseline ratio must stay under
    :data:`TELEMETRY_ENABLED_BUDGET` (always-on telemetry must stay
    single-digit).
    """
    from repro.harness.experiments import run_figure19

    def timed(telemetry):
        start = time.perf_counter()
        run_figure19(
            benchmarks=benchmarks, scale=scale, workers=1, telemetry=telemetry
        )
        return time.perf_counter() - start

    # Paired per-round ratios, not cross-batch minima: both modes run
    # back-to-back inside each round (order rotating so no mode is
    # pinned to one point of a host speed phase), each round yields
    # mode/baseline wall ratios from runs that shared the same phase,
    # and the gate reads the min ratio across rounds — a deliberately
    # optimistic estimator that cannot flake. See
    # :data:`TELEMETRY_REPEATS` for the full rationale.
    modes = (("baseline", False), ("enabled", True))
    rounds = []
    for round_index in range(repeats):
        offset = round_index % len(modes)
        rounds.append(
            {
                name: timed(telemetry)
                for name, telemetry in modes[offset:] + modes[:offset]
            }
        )
    baseline = min(r["baseline"] for r in rounds)
    enabled = min(r["enabled"] for r in rounds)
    enabled_overhead = min(
        r["enabled"] / r["baseline"] for r in rounds
    ) - 1.0
    return {
        "experiment": "fig19",
        "benchmarks": list(benchmarks),
        "scale": scale,
        "repeats": repeats,
        "baseline_wall_s": round(baseline, 4),
        "enabled_wall_s": round(enabled, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "enabled_budget": TELEMETRY_ENABLED_BUDGET,
    }


def run_bench(experiments, benchmarks, scale, workers, repeats=EXPERIMENT_REPEATS):
    """Time each experiment (min-of-``repeats``); return the payload.

    Experiment runs are deterministic, so repeats only exist to shed
    scheduler noise from the wall clock; events/cycles come from the
    last run and are identical across repeats.
    """
    results = {}
    total_wall = 0.0
    total_events = 0
    for name in experiments:
        runner = EXPERIMENTS[name]
        walls = []
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = runner(benchmarks=benchmarks, scale=scale, workers=workers)
            walls.append(time.perf_counter() - start)
        wall = min(walls)
        events = sum(point.instructions for point in result.points)
        cycles = sum(point.cycles for point in result.points)
        results[name] = {
            "wall_time_s": round(wall, 3),
            "repeats": max(1, repeats),
            "events": events,
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "cycles": cycles,
            "points": len(result.points),
        }
        total_wall += wall
        total_events += events
        print(
            f"{name}: {wall:.2f}s, {events} events, "
            f"{results[name]['events_per_sec']} events/sec",
            file=sys.stderr,
        )
    return {
        "meta": {
            "scale": scale,
            "workers": resolve_workers(workers),
            "benchmarks": list(benchmarks),
            "experiments": list(experiments),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "experiments": results,
        "total": {
            "wall_time_s": round(total_wall, 3),
            "events": total_events,
            "events_per_sec": (
                round(total_events / total_wall) if total_wall > 0 else 0
            ),
        },
    }


def compare(current, baseline, threshold):
    """Gate: fail when current wall time regresses past the threshold.

    Returns a list of failure strings (empty = pass).
    """
    failures = []
    for key in ("scale", "benchmarks", "experiments"):
        if current["meta"].get(key) != baseline["meta"].get(key):
            failures.append(
                f"baseline not comparable: {key} differs "
                f"({baseline['meta'].get(key)!r} vs {current['meta'].get(key)!r})"
            )
    if failures:
        return failures
    old = baseline["total"]["wall_time_s"]
    new = current["total"]["wall_time_s"]
    if old > 0 and new > old * (1.0 + threshold):
        failures.append(
            f"total wall time regressed {new / old:.2f}x "
            f"({old:.2f}s -> {new:.2f}s, threshold {1.0 + threshold:.2f}x)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke settings: scale {QUICK_SCALE}, "
        f"benchmarks {', '.join(QUICK_BENCHMARKS)}",
    )
    parser.add_argument(
        "--scale", type=float, default=None, help="workload scale factor"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-parallel fan-out width (0 = one per CPU; "
        "default: REPRO_WORKERS or serial)",
    )
    parser.add_argument(
        "--experiments",
        default=",".join(DEFAULT_EXPERIMENTS),
        help="comma-separated experiment names "
        f"(default {','.join(DEFAULT_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark subset (default: all seven)",
    )
    parser.add_argument(
        "--output", default="BENCH_PERF.json", help="where to write the payload"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=EXPERIMENT_REPEATS,
        help=f"wall-time repeats per experiment, min-of-N "
        f"(default {EXPERIMENT_REPEATS})",
    )
    parser.add_argument(
        "--skip-telemetry",
        action="store_true",
        help="skip the telemetry-overhead measurement and its <10%% gate",
    )
    parser.add_argument(
        "--skip-supervisor",
        action="store_true",
        help="skip the supervisor-overhead measurement and its <3%% gate",
    )
    parser.add_argument(
        "--skip-tiers",
        action="store_true",
        help="skip the per-tier throughput floors",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline BENCH_PERF.json to gate against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional wall-time regression (default 0.25)",
    )
    args = parser.parse_args(argv)

    experiments = tuple(name for name in args.experiments.split(",") if name)
    for name in experiments:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if args.benchmarks:
        benchmarks = tuple(name for name in args.benchmarks.split(",") if name)
    elif args.quick:
        benchmarks = QUICK_BENCHMARKS
    else:
        benchmarks = BENCHMARKS
    scale = args.scale
    if scale is None:
        scale = QUICK_SCALE if args.quick else None

    payload = run_bench(
        experiments, benchmarks, scale, args.workers, repeats=args.repeats
    )

    telemetry_failures = []
    if not args.skip_tiers:
        tier_measurement = measure_tier_throughput()
        payload["tiers"] = tier_measurement
        for tier, data in tier_measurement["tiers"].items():
            print(
                f"tier {tier}: {data['events_per_sec']} events/sec "
                f"(floor {data['floor']})",
                file=sys.stderr,
            )
        telemetry_failures.extend(gate_tier_throughput(tier_measurement))

    if not args.skip_telemetry:
        telemetry = measure_telemetry_overhead(benchmarks, OVERHEAD_SCALE)
        payload["telemetry"] = telemetry
        print(
            f"telemetry: baseline {telemetry['baseline_wall_s']:.3f}s, "
            f"enabled {telemetry['enabled_wall_s']:.3f}s "
            f"({telemetry['enabled_overhead']:+.1%})",
            file=sys.stderr,
        )
        if telemetry["enabled_overhead"] >= TELEMETRY_ENABLED_BUDGET:
            telemetry_failures.append(
                f"enabled-mode telemetry overhead "
                f"{telemetry['enabled_overhead']:.1%} exceeds the "
                f"{TELEMETRY_ENABLED_BUDGET:.0%} budget"
            )

    if not args.skip_supervisor:
        supervisor = measure_supervisor_overhead(benchmarks, OVERHEAD_SCALE)
        payload["supervisor"] = supervisor
        print(
            f"supervisor (streaming on): bare {supervisor['bare_wall_s']:.3f}s, "
            f"supervised {supervisor['supervised_wall_s']:.3f}s "
            f"({supervisor['overhead']:+.1%})",
            file=sys.stderr,
        )
        if supervisor["overhead"] >= SUPERVISOR_OVERHEAD_BUDGET:
            telemetry_failures.append(
                f"supervised-engine no-fault overhead "
                f"{supervisor['overhead']:.1%} exceeds the "
                f"{SUPERVISOR_OVERHEAD_BUDGET:.0%} budget"
            )

    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)

    if telemetry_failures:
        for failure in telemetry_failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1

    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        failures = compare(payload, baseline, args.threshold)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"within budget: {payload['total']['wall_time_s']:.2f}s vs "
            f"baseline {baseline['total']['wall_time_s']:.2f}s",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
