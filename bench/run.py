"""Serial benchmark of the SVC reproduction: four workloads, end-to-end
host throughput, and an outside-in per-layer trace.

One run of one workload::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

repeats the workload's points until ``S`` seconds have passed, checks
every point against the sequential oracle, prints the metrics by name
with units, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

A suite (no ``--workload``) runs ``--rounds`` rounds of all four
workloads round-robin, one fresh child process at a time, plus one
traced round with ``--trace 1``; ``--out FILE`` appends every run's record
for ``compare.py``. ``--write-pins`` re-pins the seed-0 simulated-stats
digests in ``pins.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from compare import quartiles, summarize
from layers import LAYERS, LayerTracer
from workloads import (
    WORKLOADS,
    PointRun,
    SVCConfig,
    Workload,
    digest,
    generate,
    generate_tasks,
    oracle_images,
    run_point,
)

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
#: Cold set-ups per run, each in a fresh process: at least
#: ``SETUP_SAMPLES``, and more until their set-up time adds up to
#: ``SETUP_SECONDS``, so a cheap set-up gets a steadier median.
SETUP_SAMPLES = 3
SETUP_SECONDS = 1.5
CHILD_TIMEOUT_S = 170


class Measurement:
    """Repeated runs of one workload's points, with every point checked
    against the sequential oracle and against the first repetition."""

    def __init__(self, workload: Workload, seed: int, scale: Optional[float] = None):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.tasks = generate(workload, seed, scale=scale)
        self.oracles = oracle_images(self.tasks)
        # The inputs stay resident for the whole run; frozen, they are not
        # rescanned by every full collection inside the timed region,
        # which otherwise made one point's run() time vary by up to 70%.
        gc.collect()
        gc.freeze()
        self.reference: Optional[List[PointRun]] = None
        self.attempted = 0
        self.errors: List[str] = []
        #: Untraced ``run()`` wall seconds, per repetition, per point.
        self.walls: List[List[float]] = []

    def repeat(self, tracer=None) -> List[PointRun]:
        gc.collect()
        runs = [
            run_point(point, self.tasks, self.oracles[point.benchmark], tracer)
            for point in self.workload.points
        ]
        if self.reference is None:
            self.reference = runs
        for run, first in zip(runs, self.reference):
            self.attempted += 1
            if run.error is None and first.report is not None:
                if digest(run.report) != digest(first.report):
                    run.error = "simulated statistics differ from the first repetition"
            if run.error is not None:
                self.errors.append(f"{run.point.label}: {run.error}")
        return runs

    def measure(self, seconds: float) -> None:
        """Untraced repetitions until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        while not self.walls or time.perf_counter() - start < seconds:
            self.walls.append([run.wall_s for run in self.repeat()])

    def median_wall(self) -> float:
        """Sum over the points of each point's median ``run()`` wall."""
        return sum(statistics.median(walls) for walls in zip(*self.walls))

    def committed_ips(self) -> float:
        instructions = sum(
            run.report.committed_instructions for run in self.reference if run.report is not None
        )
        wall = self.median_wall()
        return instructions / wall if wall else 0.0

    def traced(self) -> Tuple[LayerTracer, List[PointRun]]:
        """Task generation and one repetition under the layer trace. The
        traced generation is timed and dropped; the points run on the same
        frozen inputs as the untraced repetitions."""
        tracer = LayerTracer()
        with tracer:
            generate(self.workload, self.seed, tracer.wrap("workloads", generate_tasks), self.scale)
            runs = self.repeat(tracer)
        return tracer, runs

    @property
    def failed(self) -> int:
        return len(self.errors)


def setup_seconds(name: str, seed: int) -> List[float]:
    """Cold set-up times, each measured in a fresh child process."""
    times: List[float] = []
    while len(times) < SETUP_SAMPLES or sum(times) < SETUP_SECONDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.splitlines()[-1]))
    return times


def sim_ipc(runs: List[PointRun]) -> float:
    """Geometric-mean simulated IPC over the points that ran."""
    ipcs = [run.report.ipc for run in runs if run.report is not None]
    return math.exp(statistics.fmean(math.log(ipc) for ipc in ipcs)) if ipcs else 0.0


def sim_counts(runs: List[PointRun]) -> Dict[str, Tuple[float, str]]:
    """Simulated counts summed over the points; they repeat exactly."""
    stats: Counter = Counter()
    svc: Counter = Counter()
    report_sums: Counter = Counter()
    for run in runs:
        report = run.report
        if report is None:
            continue
        stats.update(report.memory_stats)
        if isinstance(run.point.config, SVCConfig):
            svc.update(report.memory_stats)
        report_sums.update(
            violation=report.violation_squashes,
            misprediction=report.misprediction_squashes,
            committed=report.committed_memory_ops,
            executed=report.executed_memory_ops,
            stalls=report.replacement_stall_retries,
            commit_cycles=report.commit_cycles,
            events=run.events,
            checks=run.checks,
        )

    def hit_ratio(kind: str) -> float:
        accesses = svc[f"{kind}s"]
        return 1 - svc[f"{kind}_misses"] / accesses if accesses else 0.0

    return {
        "svc.cache.load_hit_ratio": (hit_ratio("load"), "ratio"),
        "svc.cache.store_hit_ratio": (hit_ratio("store"), "ratio"),
        "bus.transactions": (stats["bus_transactions"], "count"),
        "bus.busy_cycles": (stats["bus_busy_cycles"], "cycles"),
        "bus.wait_cycles": (stats["bus_wait_cycles"], "cycles"),
        "svc.vcl.snarfs": (stats["snarfs"], "count"),
        "svc.vcl.cache_to_cache": (stats["bus_cache_to_cache"], "count"),
        "mem.supplies": (stats["memory_supplies"], "count"),
        "mem.writebacks": (stats["writebacks"] + stats["dcache_writebacks"], "count"),
        "timing.violation_squashes": (report_sums["violation"], "count"),
        "timing.misprediction_squashes": (report_sums["misprediction"], "count"),
        "timing.useful_op_ratio": (
            report_sums["committed"] / report_sums["executed"] if report_sums["executed"] else 0.0,
            "ratio",
        ),
        "timing.stall_retries": (report_sums["stalls"], "count"),
        "commit.cycles": (report_sums["commit_cycles"], "cycles"),
        "commit.writebacks": (stats["commit_writebacks"], "count"),
        "arb.dcache_misses": (stats["dcache_misses"], "count"),
        "arb.full_stalls": (stats["arb_full_stalls"], "count"),
        "events.emitted": (report_sums["events"], "count"),
        "check.checks": (report_sums["checks"], "count"),
    }


def pin_mismatches(pins: Optional[dict], runs: List[PointRun]) -> Optional[int]:
    """Points whose simulated-stats digest differs from its seed-0 pin;
    ``None`` for other seeds, which have no pins."""
    if pins is None:
        return None
    return sum(
        1 for run in runs
        if run.report is None or pins["points"].get(run.point.label) != digest(run.report)
    )


def end_to_end(m: Measurement, setup: List[float]) -> Dict[str, Tuple[float, str]]:
    q1, _median, q3 = quartiles(setup)
    print(f"  setup_s: median of {len(setup)} cold set-ups, IQR {q3 - q1:.4g} s")
    return {
        "committed_ips": (m.committed_ips(), "instr/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(m: Measurement, tracer: LayerTracer, runs: List[PointRun]) -> Dict[str, Tuple[float, str]]:
    print(f"  traced wall {tracer.wall_s:.4f} s; self time by layer path:")
    for path, (self_s, calls) in sorted(tracer.paths.items(), key=lambda kv: -kv[1][0]):
        print(f"    {path:<40} {self_s:9.4f} s {self_s / tracer.wall_s:7.2%} {calls:>9} calls")
    metrics: Dict[str, Tuple[float, str]] = {}
    layers = tracer.layers()
    for layer in LAYERS:
        self_s, calls = layers[layer]
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / tracer.wall_s, "ratio")
        metrics[f"{layer}.calls"] = (calls, "count")
    metrics.update(sim_counts(m.reference))
    traced_wall = sum(run.wall_s for run in runs)
    metrics["trace_overhead"] = (traced_wall / m.median_wall() - 1, "ratio")
    metrics["sim_ipc"] = (sim_ipc(m.reference), "ipc")
    return metrics


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    setup = [] if trace else setup_seconds(name, seed)
    m = Measurement(workload, seed)
    m.measure(seconds)
    if trace:
        tracer, runs = m.traced()
        metrics = per_layer(m, tracer, runs)
    else:
        metrics = end_to_end(m, setup)
    pins = json.loads(PINS.read_text())[name] if seed == 0 else None
    mismatches = pin_mismatches(pins, m.reference)
    reps = ", ".join(f"{sum(walls):.3f}" for walls in m.walls)
    print(
        f"{name} seed={seed}: {len(m.walls)} untraced repetitions x {len(workload.points)} points "
        f"(run() walls {reps} s), {m.attempted} point runs attempted, {m.failed} failed\n"
        f"  sim_ipc {sim_ipc(m.reference):.6f} (seed-0 pin {pins and pins['sim_ipc']}), "
        f"sim_mismatch_points {mismatches}, failed_share {m.failed / m.attempted:.4g}"
    )
    for error in m.errors:
        print(f"  FAILED {error}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    return {
        "correct": m.failed == 0 and not mismatches,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def suite(seed: int, rounds: int, seconds: float, trace: bool, out: Optional[str]) -> bool:
    """``rounds`` rounds of every workload, round-robin, one child process
    at a time; then one traced round if asked. True if every run was
    correct."""
    schedule = [(r, name, 0) for r in range(rounds) for name in WORKLOADS]
    if trace:
        schedule += [(rounds, name, 1) for name in WORKLOADS]
    records = []
    for round_no, name, traced in schedule:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name}: run exited with code {proc.returncode}")
        record = {
            "workload": name, "seed": seed, "round": round_no, "trace": traced,
            "result": json.loads(proc.stdout.splitlines()[-1]),
        }
        records.append(record)
        print(f"round {round_no} {name} trace={traced}: correct={record['result']['correct']}", flush=True)
        if out:
            with open(out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
    print(summarize(records))
    return all(record["result"]["correct"] for record in records)


def write_pins() -> None:
    pins = {}
    for name, workload in WORKLOADS.items():
        m = Measurement(workload, 0)
        runs = m.repeat()
        if m.failed:
            raise SystemExit(f"{name}: cannot pin a failing workload: {m.errors}")
        pins[name] = {
            "sim_ipc": round(sim_ipc(runs), 6),
            "points": {run.point.label: digest(run.report) for run in runs},
        }
        print(f"{name}: pinned {len(runs)} points, sim_ipc {pins[name]['sim_ipc']}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.write_pins:
        write_pins()
    elif args.workload is None:
        return 0 if suite(args.seed, args.rounds, args.seconds, bool(args.trace), args.out) else 1
    else:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
