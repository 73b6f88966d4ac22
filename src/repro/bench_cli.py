"""``python -m repro bench``: the performance benchmark as a subcommand.

A thin front end over ``tools/bench_perf.py`` — the wall-clock
benchmark with the regression gates (per-tier events/sec floors,
telemetry and supervisor overhead budgets) documented in
docs/PERFORMANCE.md. The subcommand defaults to the CI smoke settings
(``--quick``) so a bare invocation finishes in seconds::

    python -m repro bench
    python -m repro bench --scale 0.1 --repeats 5
    python -m repro bench --gate          # also gate vs committed BENCH_PERF.json
    python -m repro bench --full          # paper-scale, all benchmarks

Exit codes follow the CLI standard: **0** all gates pass, **1** a gate
tripped, **2** usage or configuration error.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import List, Optional

_TOOL_MODULE = "repro._bench_perf_tool"


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


def _load_bench_tool():
    """Import ``tools/bench_perf.py`` by path (tools/ is not a package)."""
    cached = sys.modules.get(_TOOL_MODULE)
    if cached is not None:
        return cached
    path = _repo_root() / "tools" / "bench_perf.py"
    spec = importlib.util.spec_from_file_location(_TOOL_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_TOOL_MODULE] = module
    spec.loader.exec_module(module)
    return module


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark the experiment harness (wraps "
        "tools/bench_perf.py): wall time, events/sec, per-tier floors "
        "and overhead budgets.",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor (default: the CI smoke scale)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="wall-time repeats per experiment, min-of-N",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="also compare against the committed BENCH_PERF.json "
        "baseline and fail on wall-time regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional wall-time regression for --gate "
        "(default 0.25)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated SPEC95 benchmark subset "
        "(default: the CI smoke trio, or all with --full)",
    )
    parser.add_argument(
        "--experiments",
        default=None,
        help="comma-separated experiment names (default: fig19,fig20)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-parallel fan-out width (0 = one per CPU; "
        "default: REPRO_WORKERS or serial)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_PERF.json",
        help="where to write the result payload "
        "(default: BENCH_PERF.json in the working directory)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale run over all benchmarks instead of the "
        "quick smoke settings",
    )
    parser.add_argument(
        "--experiments-only",
        action="store_true",
        help="time only the experiment sweeps; skip the tier-floor, "
        "telemetry and supervisor gates",
    )
    return parser


def bench_main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tool = _load_bench_tool()

    forwarded: List[str] = []
    if not args.full:
        # Quick smoke by default; explicit --scale/--benchmarks flags
        # still win inside the tool's own precedence.
        forwarded.append("--quick")
    if args.scale is not None:
        forwarded += ["--scale", str(args.scale)]
    if args.repeats is not None:
        forwarded += ["--repeats", str(args.repeats)]
    if args.benchmarks:
        forwarded += ["--benchmarks", args.benchmarks]
    if args.experiments:
        forwarded += ["--experiments", args.experiments]
    if args.workers is not None:
        forwarded += ["--workers", str(args.workers)]
    forwarded += ["--output", args.output]
    if args.experiments_only:
        forwarded += ["--skip-telemetry", "--skip-supervisor", "--skip-tiers"]
    if args.gate:
        baseline = _repo_root() / "BENCH_PERF.json"
        if not baseline.is_file():
            print(
                f"config error: no committed baseline at {baseline}; "
                "run the benchmark once and commit BENCH_PERF.json "
                "before gating",
                file=sys.stderr,
            )
            return 2
        forwarded += [
            "--compare", str(baseline), "--threshold", str(args.threshold),
        ]
    return tool.main(forwarded)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(bench_main())
