"""Command-line interface: run the paper's experiments from a shell.

Usage (any experiment from the registry)::

    python -m repro table2 --scale 0.5
    python -m repro fig19 --benchmarks compress,mgrid
    python -m repro ablation_designs
    python -m repro list
    python -m repro replay failure.json --shrink
    python -m repro modelcheck --pus 2 --ops 3 --lines 2
    python -m repro litmus --all
    python -m repro fig19 --workload trace:examples/traces/histogram.jsonl
    python -m repro fig19 --workers 2 --progress --stream campaign.ndjson
    python -m repro fig19 --scale 0.05 --report reports

Results print in the paper's row/series shape, with the published
numbers alongside where the paper reports them, and can additionally be
written to a file with ``--output``, the only writer of the committed
renderings (``benchmarks/results/``, the golden fixtures). The file
holds no wall time, so one tree always writes the same bytes.
``--report DIR`` runs the campaign with telemetry on and writes a run
report, a Chrome trace and a Prometheus exposition into ``DIR``
(:mod:`repro.telemetry.report`).

Experiments run under the supervised engine
(:mod:`repro.harness.supervisor`): ``--workers``, ``--timeout``,
``--retries`` and ``--chaos`` control the pool, and ``--resume`` serves
already-computed points from the content-addressed result store
(``--store`` / ``REPRO_RESULT_STORE``).

Exit codes are standardized: **0** full success, **1** run or point
failure (including quarantined points in a partial campaign), **2**
usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.common.errors import ConfigError, ReproError
from repro.harness.experiments import EXPERIMENTS, ExperimentResult
from repro.harness.reporting import format_series, format_table
from repro.workloads.spec95 import BENCHMARKS, scale_factor

#: Standardized exit codes (pinned by tests/test_cli.py).
EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


def _render(result: ExperimentResult) -> str:
    name = result.experiment
    if name == "table2":
        return format_table(
            result, ["arb_32k", "svc_4x8k"], lambda p: p.miss_ratio, "miss"
        )
    if name == "table3":
        return format_table(
            result, ["svc_4x8k", "svc_4x16k"], lambda p: p.bus_utilization, "util"
        )
    if name in ("fig19", "fig20"):
        from repro.harness.charts import render_grouped_bars

        machines = ["svc_1c", "arb_1c", "arb_2c", "arb_3c", "arb_4c"]
        series = format_series(
            result, machines, lambda p: p.ipc, "IPC", highlight="svc_1c"
        )
        chart = render_grouped_bars(result, machines, lambda p: p.ipc, "IPC")
        return f"{series}\n\n{chart}"
    # Ablations: machines in the order their points were built.
    machines = list(dict.fromkeys(p.machine for p in result.points))
    ipc = format_series(result, machines, lambda p: p.ipc, "IPC")
    miss = format_series(result, machines, lambda p: p.miss_ratio, "miss")
    squashes = format_series(
        result, machines, lambda p: p.violation_squashes, "squashes", digits=0
    )
    return f"{ipc}\n\n{miss}\n\n{squashes}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Speculative Versioning Cache evaluation "
        "(Gopal et al., HPCA 1998).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'): "
        + ", ".join(sorted(set(EXPERIMENTS) | {"list"}))
        + "; or 'replay <capture.json>' to re-run a failure capture; "
        "or 'modelcheck' for bounded exhaustive schedule exploration; "
        "or 'litmus' for the litmus-shape conformance corpus",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated SPEC95 benchmark subset "
        f"(default: experiment-specific; all = {','.join(BENCHMARKS)})",
    )
    parser.add_argument(
        "--designs",
        default=None,
        help="comma-separated design tiers (ablation_designs only; "
        "e.g. base,ec,ecs,hr,rl,final)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="run every point of the experiment on one workload instead "
        "of the benchmark set: 'trace:<file>' loads a JSON-lines trace "
        "(see docs/WORKLOADS.md), a plain name selects that SPEC95 "
        "profile; for traces, --scale repeats the whole program",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor (default: REPRO_SCALE or 1.0)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the rendered result to this file, under a "
        "'== <experiment> (scale=S) ==' header without wall time",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="worker processes (0 = one per CPU; default: REPRO_WORKERS "
        "or serial)",
    )
    parser.add_argument(
        "--timeout",
        default=None,
        help="per-point wall-clock timeout in seconds "
        "(default: REPRO_POINT_TIMEOUT or none; needs --workers >= 2)",
    )
    parser.add_argument(
        "--retries",
        default=None,
        help="retry budget per failing point before quarantine "
        "(default: REPRO_RETRIES or 1)",
    )
    parser.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a seeded chaos plan (worker kills, exceptions, "
        "stalls) into the campaign — for testing the supervisor",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve already-computed points from the content-addressed "
        "result store; recompute only missing/changed points",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store root for --resume "
        "(default: REPRO_RESULT_STORE or .repro-results)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live campaign progress (points done/running/"
        "quarantined, retries, ETA, per-tier events/sec) on stderr",
    )
    parser.add_argument(
        "--stream",
        default=None,
        metavar="FILE",
        help="write the campaign's schema-versioned NDJSON event stream "
        "to FILE (validate with python -m repro.telemetry.stream)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="DIR",
        help="run with telemetry on and write <experiment>.report.md, "
        "<experiment>.trace.json (Chrome trace) and metrics.prom to DIR",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "replay":
        from repro.replay import replay_main

        return replay_main(raw[1:])
    if raw and raw[0] == "modelcheck":
        from repro.modelcheck.runner import modelcheck_main

        return modelcheck_main(raw[1:])
    if raw and raw[0] == "litmus":
        from repro.litmus.runner import litmus_main

        return litmus_main(raw[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, runner in sorted(EXPERIMENTS.items()):
            doc = (runner.__doc__ or "").strip().splitlines()[0]
            print(f"{name:20s} {doc}")
        return 0
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2

    kwargs = {}
    if args.workload and args.benchmarks:
        print("--workload and --benchmarks are mutually exclusive", file=sys.stderr)
        return EXIT_USAGE
    if args.workload:
        from repro.workloads.traceprog import is_trace_workload, trace_path

        if is_trace_workload(args.workload):
            import os

            if not os.path.isfile(trace_path(args.workload)):
                print(
                    f"trace file not found: {trace_path(args.workload)}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
        elif args.workload not in BENCHMARKS:
            print(
                f"unknown workload {args.workload!r}: use a SPEC95 name "
                f"({','.join(BENCHMARKS)}) or trace:<file>",
                file=sys.stderr,
            )
            return EXIT_USAGE
        kwargs["benchmarks"] = (args.workload,)
    if args.benchmarks:
        requested = tuple(name.strip() for name in args.benchmarks.split(","))
        unknown = [name for name in requested if name not in BENCHMARKS]
        if unknown:
            print(f"unknown benchmarks: {unknown}", file=sys.stderr)
            return EXIT_USAGE
        kwargs["benchmarks"] = requested
    if args.designs:
        if args.experiment != "ablation_designs":
            print(
                "--designs only applies to the ablation_designs experiment",
                file=sys.stderr,
            )
            return EXIT_USAGE
        from repro.svc.designs import DESIGNS

        designs = tuple(name.strip() for name in args.designs.split(","))
        unknown = [name for name in designs if name not in DESIGNS]
        if unknown:
            print(
                f"unknown designs: {unknown} "
                f"(choose from {','.join(sorted(DESIGNS))})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        kwargs["designs"] = designs
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.resume:
        kwargs["resume"] = True
    if args.report:
        # The report's histograms, trace and metrics.prom come from the
        # per-point telemetry payloads.
        kwargs["telemetry"] = True

    from repro.harness.supervisor import (
        SupervisorConfig,
        resolve_point_timeout,
        resolve_retries,
        set_default_supervisor,
    )
    from repro.harness.parallel import resolve_workers

    try:
        # Validate every knob up front so garbage is a usage error (2),
        # not a mid-campaign crash.
        resolve_workers(args.workers)
        point_timeout = resolve_point_timeout(args.timeout)
        retries = resolve_retries(args.retries)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_USAGE

    # The campaign stream persists the NDJSON log (--stream), paints
    # live progress (--progress) and times each tier for the report.
    stream = None
    if args.stream or args.progress or args.report:
        from repro.telemetry.stream import CampaignStream

        stream = CampaignStream(path=args.stream, progress=args.progress)
    previous = set_default_supervisor(
        SupervisorConfig(
            point_timeout=point_timeout,
            retries=retries,
            chaos_seed=args.chaos,
            resume=args.resume,
            store_root=args.store,
            stream=stream,
        )
    )
    started = time.time()
    try:
        result = EXPERIMENTS[args.experiment](**kwargs)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print(f"run failed: {error}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    finally:
        set_default_supervisor(previous)
        if stream is not None:
            stream.close()
    text = _render(result)
    elapsed = time.time() - started
    header = f"== {args.experiment} ({elapsed:.1f}s) =="
    print(header)
    print(text)
    if args.output:
        scale = args.scale if args.scale is not None else scale_factor()
        with open(args.output, "w") as handle:
            handle.write(f"== {args.experiment} (scale={scale}) ==\n{text}\n")
    if args.report:
        from repro.telemetry.exporters import render_summary
        from repro.telemetry.report import collect_report, write_report_files

        payloads = [point.telemetry for point in result.points if point.telemetry]
        written = write_report_files(
            collect_report(result, stream), args.report, payloads
        )
        print(render_summary(payloads))
        for kind, path in sorted(written.items()):
            print(f"report[{kind}]: {path}")
    for report in result.campaigns:
        print(f"campaign: {report.summary()}", file=sys.stderr)
    quarantined = result.quarantined_count
    if quarantined:
        print(
            f"PARTIAL CAMPAIGN: {quarantined} point(s) quarantined after "
            "exhausting retries; each one's last failure note follows",
            file=sys.stderr,
        )
        for report in result.campaigns:
            for outcome in report.quarantined:
                print(
                    f"  quarantined {outcome.spec.benchmark}/"
                    f"{outcome.spec.machine}: {outcome.failures[-1]}",
                    file=sys.stderr,
                )
        return EXIT_RUN_FAILURE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
