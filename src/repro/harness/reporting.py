"""Render experiment results the way the paper prints them.

Tables get paper-vs-measured columns; figures get one series per
machine configuration with the same legend order as the paper's charts.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.harness.experiments import ExperimentResult


def format_table(
    result: ExperimentResult,
    machines: Sequence[str],
    metric: Callable,
    metric_name: str,
) -> str:
    """A paper-style table: one row per benchmark, one measured (and,
    when available, paper) column per machine."""
    benchmarks = []
    for point in result.points:
        if point.benchmark not in benchmarks:
            benchmarks.append(point.benchmark)

    headers = ["benchmark"]
    for machine in machines:
        headers.append(f"{machine} {metric_name}")
        if result.paper:
            headers.append(f"{machine} (paper)")
    rows: List[List[str]] = []
    for name in benchmarks:
        row = [name]
        for machine in machines:
            point = result.point(name, machine)
            row.append("-" if point is None else f"{metric(point):.3f}")
            if result.paper:
                paper_value = result.paper.get(name, {}).get(machine)
                row.append("-" if paper_value is None else f"{paper_value:.3f}")
        rows.append(row)
    return _render(headers, rows)


def format_series(
    result: ExperimentResult,
    machines: Sequence[str],
    metric: Callable,
    metric_name: str,
    highlight: Optional[str] = None,
    digits: int = 2,
) -> str:
    """A figure as text: per-benchmark series across configurations,
    each value to ``digits`` decimals, optionally marking where
    ``highlight`` overtakes each other series (the paper's crossover
    claims)."""
    benchmarks = []
    for point in result.points:
        if point.benchmark not in benchmarks:
            benchmarks.append(point.benchmark)

    headers = ["benchmark"] + [f"{m} {metric_name}" for m in machines]
    rows = []
    for name in benchmarks:
        row = [name]
        for machine in machines:
            point = result.point(name, machine)
            row.append("-" if point is None else f"{metric(point):.{digits}f}")
        if highlight is not None:
            target = result.point(name, highlight)
            beats = [
                machine
                for machine in machines
                if machine != highlight
                and target is not None
                and result.point(name, machine) is not None
                and metric(target) >= metric(result.point(name, machine))
            ]
            row.append(",".join(beats) if beats else "-")
        rows.append(row)
    if highlight is not None:
        headers.append(f"{highlight} beats")
    return _render(headers, rows)


def _render(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
