"""Run reports: ``python -m repro <experiment> --report DIR``.

With ``--report`` the experiment command runs its campaign with
telemetry on and turns it into artifacts a human (or a dashboard) can
read without re-running anything. A warm result store (``--resume``)
renders a report without recomputing a single point. The CLI hands the
campaign's :class:`repro.telemetry.stream.CampaignStream` in as well:
per-tier wall times, and therefore events/sec, come from the stream
(result objects know event counts; only the stream saw the clock).
:func:`write_report_files` writes three files:

* ``<experiment>.report.md``: campaign counters, per-tier throughput,
  paper side-by-side (Table 2 / Table 3 goldens when the experiment
  carries them), VOL-length and bus-occupancy histograms, and the
  flight-recorder post-mortem of every quarantined point;
* ``<experiment>.trace.json``: the Chrome trace of the merged per-point
  telemetry payloads (open it in https://ui.perfetto.dev);
* ``metrics.prom``: a Prometheus text exposition of the merged metrics
  registry plus the campaign counters.

A partial campaign (quarantined points) still gets its report before
the command exits 1: that is when the report is needed most.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

#: Histograms the report charts first, in this order, when present.
FEATURED_HISTOGRAMS = ("svc.vol_length", "bus.occupancy_cycles")

#: Fixed Prometheus exposition filename, so a scraper can find it.
PROM_FILENAME = "metrics.prom"

#: Which measured metric the experiment's paper goldens refer to.
_PAPER_METRICS = {
    "table2": ("miss_ratio", "miss ratio"),
    "table3": ("bus_utilization", "bus utilization"),
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- structured collection ---------------------------------------------------


def collect_report(result, stream=None) -> Dict:
    """Fold an ``ExperimentResult`` (+ optional campaign stream) into
    the plain-data structure the renderers consume."""
    from repro.telemetry.metrics import merge_metric_snapshots

    points = list(result.points)
    machines: List[str] = []
    for point in points:
        if point.machine not in machines:
            machines.append(point.machine)
    benchmarks: List[str] = []
    for point in points:
        if point.benchmark not in benchmarks:
            benchmarks.append(point.benchmark)

    counters: Dict[str, int] = {}
    for campaign in result.campaigns:
        for name, value in campaign.counters.items():
            counters[name] = counters.get(name, 0) + value

    tier_walls = stream.tier_stats() if stream is not None else {}
    tiers = []
    for machine in machines:
        rows = [p for p in points if p.machine == machine]
        walls = tier_walls.get(machine, {})
        tiers.append(
            {
                "machine": machine,
                "points": len(rows),
                "mean_ipc": round(_mean([p.ipc for p in rows]), 4),
                "mean_miss": round(_mean([p.miss_ratio for p in rows]), 4),
                "mean_bus_util": round(
                    _mean([p.bus_utilization for p in rows]), 4
                ),
                "events": sum(p.instructions for p in rows),
                "wall_s": round(walls.get("wall_s", 0.0), 3),
                "events_per_sec": walls.get("events_per_sec", 0),
            }
        )

    paper_rows = []
    metric_name, metric_label = _PAPER_METRICS.get(
        result.experiment, ("ipc", "IPC")
    )
    if result.paper:
        for benchmark in benchmarks:
            goldens = result.paper.get(benchmark, {})
            for machine in machines:
                golden = goldens.get(machine)
                if golden is None:
                    continue
                point = result.point(benchmark, machine)
                measured = (
                    getattr(point, metric_name) if point is not None else None
                )
                paper_rows.append(
                    {
                        "benchmark": benchmark,
                        "machine": machine,
                        "measured": (
                            round(measured, 4) if measured is not None else None
                        ),
                        "paper": golden,
                    }
                )

    payloads = [p.telemetry for p in points if p.telemetry]
    merged = merge_metric_snapshots(
        [payload.get("metrics", {}) for payload in payloads]
    )
    dropped = sum(payload.get("dropped_spans", 0) for payload in payloads)

    quarantined = []
    for campaign in result.campaigns:
        for outcome in campaign.quarantined:
            quarantined.append(
                {
                    "point": outcome.index,
                    "benchmark": getattr(outcome.spec, "benchmark", "?"),
                    "machine": getattr(outcome.spec, "machine", "?"),
                    "attempts": outcome.attempts,
                    "failures": list(outcome.failures),
                    "flight": outcome.flight or [],
                }
            )

    return {
        "meta": {
            "experiment": result.experiment,
            "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
            "benchmarks": benchmarks,
            "machines": machines,
            "paper_metric": metric_label,
        },
        "counters": counters,
        "tiers": tiers,
        "paper": paper_rows,
        "metrics": merged,
        "dropped_spans": dropped,
        "quarantined": quarantined,
    }


# -- Prometheus text exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    cleaned = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    return f"repro_{cleaned}"


def prometheus_exposition(
    merged: Dict, campaign_counters: Optional[Dict[str, int]] = None
) -> str:
    """Prometheus text format (0.0.4) for a merged metrics snapshot.

    Histogram bucket edges are inclusive upper bounds on both sides, so
    our buckets map directly onto cumulative ``le`` buckets.
    """
    lines: List[str] = []
    for name, data in sorted(merged.get("counters", {}).items()):
        metric = _prom_name(name)
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {data['value']}")
    for name, data in sorted(merged.get("histograms", {}).items()):
        metric = _prom_name(name)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, count in zip(data["edges"], data["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{edge}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {data['total']}")
        lines.append(f"{metric}_count {data['count']}")
    for name, value in sorted((campaign_counters or {}).items()):
        metric = _prom_name(f"campaign_{name}")
        lines.append(f"# HELP {metric} supervisor campaign counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"


# -- rendering helpers -------------------------------------------------------


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _histogram_rows(data: Dict) -> List:
    """(label, count) per bucket, including the overflow bucket."""
    rows = []
    for edge, count in zip(data["edges"], data["counts"]):
        rows.append((f"<= {edge}", count))
    rows.append((f"> {data['edges'][-1]}", data["counts"][-1]))
    return rows


def _histogram_order(merged: Dict) -> List[str]:
    names = [n for n in FEATURED_HISTOGRAMS if n in merged["histograms"]]
    names.extend(
        n for n in sorted(merged["histograms"]) if n not in names
    )
    return names


def _tier_table_rows(report: Dict) -> List[List]:
    rows = []
    for tier in report["tiers"]:
        rows.append(
            [
                tier["machine"],
                tier["points"],
                f"{tier['mean_ipc']:.3f}",
                f"{tier['mean_miss']:.3f}",
                f"{tier['mean_bus_util']:.3f}",
                tier["events"],
                f"{tier['wall_s']:.3f}" if tier["wall_s"] else "-",
                tier["events_per_sec"] or "-",
            ]
        )
    return rows


_TIER_HEADERS = (
    "machine", "points", "mean IPC", "mean miss", "mean bus util",
    "events", "wall (s)", "events/sec",
)


def render_markdown(report: Dict) -> str:
    meta = report["meta"]
    lines = [
        f"# Run report: {meta['experiment']}",
        "",
        f"Generated {meta['generated']} · "
        f"benchmarks: {', '.join(meta['benchmarks']) or '-'} · "
        f"machines: {', '.join(meta['machines']) or '-'}",
        "",
        "## Campaign",
        "",
    ]
    counters = report["counters"]
    if counters:
        lines.append(
            _md_table(
                ("counter", "value"),
                [(k, counters[k]) for k in sorted(counters)],
            )
        )
    else:
        lines.append("No campaign counters (no points executed).")
    lines += ["", "## Per-tier throughput", ""]
    lines.append(_md_table(_TIER_HEADERS, _tier_table_rows(report)))
    lines.append(
        "\n(events/sec comes from the campaign event stream; cached "
        "points contribute events but no wall time.)"
    )
    if report["paper"]:
        metric = meta["paper_metric"]
        lines += ["", f"## Paper comparison ({metric})", ""]
        lines.append(
            _md_table(
                ("benchmark", "machine", f"measured {metric}",
                 f"paper {metric}"),
                [
                    (
                        row["benchmark"],
                        row["machine"],
                        "-" if row["measured"] is None else row["measured"],
                        row["paper"],
                    )
                    for row in report["paper"]
                ],
            )
        )
    merged = report["metrics"]
    names = _histogram_order(merged)
    if names:
        lines += ["", "## Histograms", ""]
        for name in names:
            data = merged["histograms"][name]
            if not data["count"]:
                continue
            unit = f" {data['unit']}" if data.get("unit") else ""
            mean = data["total"] / data["count"]
            lines.append(
                f"### {name} (n={data['count']}, mean={mean:.2f}{unit})"
            )
            lines.append("")
            lines.append("```")
            peak = max(
                (count for _, count in _histogram_rows(data)), default=1
            )
            for label, count in _histogram_rows(data):
                bar = "#" * (round(40 * count / peak) if peak else 0)
                lines.append(f"{label:>8s}  {count:>10d}  {bar}")
            lines.append("```")
            lines.append("")
    if report["dropped_spans"]:
        lines.append(
            f"**WARNING:** {report['dropped_spans']} span(s) dropped by "
            "the trace ring buffer."
        )
    if report["quarantined"]:
        lines += ["", "## Quarantined points (flight recorder)", ""]
        for item in report["quarantined"]:
            lines.append(
                f"### point {item['point']}: {item['benchmark']}/"
                f"{item['machine']} ({item['attempts']} attempts, "
                f"{len(item['flight'])} flight record(s))"
            )
            for failure in item["failures"]:
                lines.append(f"- {failure}")
            for record in item["flight"]:
                lines.append(
                    f"- flight attempt {record.get('attempt')}: "
                    + ", ".join(
                        entry.get("kind", "?")
                        for entry in record.get("entries", [])
                    )
                )
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report_files(
    report: Dict, output_dir: str, payloads: Sequence[Dict] = ()
) -> Dict[str, str]:
    """Write the Markdown report, the Chrome trace of ``payloads`` and
    the Prometheus exposition; returns ``{kind: path}``."""
    from repro.telemetry.exporters import write_chrome_trace

    os.makedirs(output_dir, exist_ok=True)
    meta = report["meta"]
    experiment = meta["experiment"]
    md_path = os.path.join(output_dir, f"{experiment}.report.md")
    with open(md_path, "w") as handle:
        handle.write(render_markdown(report))
    # No timestamp in the trace: the same run writes the same trace.
    trace_path = write_chrome_trace(
        os.path.join(output_dir, f"{experiment}.trace.json"),
        payloads,
        {key: meta[key] for key in ("experiment", "benchmarks", "machines")},
    )
    prom_path = os.path.join(output_dir, PROM_FILENAME)
    with open(prom_path, "w") as handle:
        handle.write(prometheus_exposition(report["metrics"], report["counters"]))
    return {"md": md_path, "trace": trace_path, "prom": prom_path}


__all__ = [
    "PROM_FILENAME",
    "collect_report",
    "prometheus_exposition",
    "render_markdown",
    "write_report_files",
]
