"""Telemetry exporters: Chrome trace JSON, metrics JSON, terminal summary.

All exporters consume *payloads* — the picklable dicts produced by
:meth:`repro.telemetry.Telemetry.snapshot`. A list of payloads merges
into one coherent artifact: each payload becomes one Chrome-trace
process (``pid``) named by its label, which is how a parallel
experiment run (one payload per worker point) lands in a single
Perfetto-loadable file.

Chrome ``trace_event`` mapping (the JSON Array/Object format both
Perfetto and ``chrome://tracing`` load):

* a span   -> one complete event   (``"ph": "X"``, ``ts``/``dur``)
* an instant -> one instant event  (``"ph": "i"``, ``"s": "t"``)
* each payload -> one ``process_name`` metadata event (``"ph": "M"``)

Timestamps are the tracer's deterministic logical ticks, written as
microseconds; simulated cycles are span args. Everything renders on one
thread track per process because the simulation is single-threaded —
nesting is by time containment, which logical ticks make exact.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.telemetry.metrics import merge_metric_snapshots

#: Span kinds whose spans carry ``level: error`` get this category
#: suffix so they can be filtered in trace viewers.
_ERROR_CATEGORY = "error"


# -- Chrome trace_event ------------------------------------------------------


def chrome_trace_events(payloads: Sequence[Dict]) -> List[Dict]:
    """Flatten payloads into a ``traceEvents`` list."""
    events: List[Dict] = []
    for pid, payload in enumerate(payloads):
        label = payload.get("label", f"worker-{pid}")
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": label},
            }
        )
        for span in payload.get("spans", []):
            start = span["start"]
            end = span["end"] if span["end"] is not None else start
            level = span.get("level", "info")
            category = span["kind"]
            if level == "error":
                category = f"{category},{_ERROR_CATEGORY}"
            args = dict(span.get("args", {}))
            args["level"] = level
            args["span_id"] = span["id"]
            if span.get("parent") is not None:
                args["parent_id"] = span["parent"]
            event = {
                "name": span["name"],
                "cat": category,
                "pid": pid,
                "tid": 0,
                "ts": start,
                "args": args,
            }
            if end == start:
                event["ph"] = "i"
                event["s"] = "t"
            else:
                event["ph"] = "X"
                event["dur"] = end - start
            events.append(event)
    return events


def chrome_trace(payloads: Sequence[Dict], meta: Optional[Dict] = None) -> Dict:
    """The full Chrome-trace JSON object."""
    document = {
        "traceEvents": chrome_trace_events(payloads),
        "displayTimeUnit": "ms",
    }
    if meta:
        document["otherData"] = dict(meta)
    return document


def write_chrome_trace(
    path: str, payloads: Sequence[Dict], meta: Optional[Dict] = None
) -> str:
    with open(path, "w") as handle:
        json.dump(chrome_trace(payloads, meta), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def validate_chrome_trace(
    document: Dict, require_kinds: Sequence[str] = ()
) -> List[str]:
    """Structural validation; returns problems (empty = valid).

    Checks the properties trace viewers rely on: a ``traceEvents``
    list, known phases, complete events with non-negative ``ts``/
    ``dur``, and — per (pid, tid) track — proper nesting: events sorted
    by ``ts`` must strictly contain any event that begins before they
    end. ``require_kinds`` additionally demands at least one event of
    each named kind (CI uses this to prove the wiring is alive).
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    seen_kinds = set()
    tracks: Dict[tuple, List[Dict]] = {}
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            problems.append(f"event {i}: unsupported phase {phase!r}")
            continue
        if phase == "M":
            continue
        for key in ("name", "pid", "tid", "ts"):
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
        if event.get("ts", 0) < 0:
            problems.append(f"event {i}: negative ts")
        seen_kinds.update(str(event.get("cat", "")).split(","))
        if phase == "X":
            if event.get("dur", -1) < 0:
                problems.append(f"event {i}: complete event without dur >= 0")
            tracks.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    for (pid, tid), track in tracks.items():
        track.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
        open_ends: List[int] = []
        for event in track:
            start, end = event["ts"], event["ts"] + event.get("dur", 0)
            while open_ends and open_ends[-1] <= start:
                open_ends.pop()
            if open_ends and end > open_ends[-1]:
                problems.append(
                    f"track pid={pid} tid={tid}: event {event['name']!r} "
                    f"[{start}, {end}] straddles its enclosing span "
                    f"(ends {open_ends[-1]})"
                )
            open_ends.append(end)
    for kind in require_kinds:
        if kind not in seen_kinds:
            problems.append(f"no events of required kind {kind!r}")
    return problems


def validate_trace_file(path: str, require_kinds: Sequence[str] = ()) -> None:
    """Load + validate, raising ``ValueError`` with all problems."""
    with open(path) as handle:
        document = json.load(handle)
    problems = validate_chrome_trace(document, require_kinds)
    if problems:
        raise ValueError(
            f"{path}: invalid Chrome trace:\n  " + "\n  ".join(problems)
        )


# -- metrics JSON ------------------------------------------------------------


def metrics_document(
    payloads: Sequence[Dict], meta: Optional[Dict] = None
) -> Dict:
    """Metrics JSON: per-payload snapshots, a merged aggregate, and a
    flat ``{"histograms.<name>.count": value}`` view for simple
    consumers."""
    merged = merge_metric_snapshots(
        [payload.get("metrics", {}) for payload in payloads]
    )
    dropped = sum(payload.get("dropped_spans", 0) for payload in payloads)
    flat: Dict[str, float] = {}
    for name, data in merged["histograms"].items():
        flat[f"histograms.{name}.count"] = data["count"]
        flat[f"histograms.{name}.total"] = data["total"]
    flat["telemetry.dropped_spans"] = dropped
    return {
        "meta": dict(meta) if meta else {},
        "dropped_spans": dropped,
        "merged": merged,
        "flat": flat,
        "per_point": {
            payload.get("label", f"worker-{i}"): payload.get("metrics", {})
            for i, payload in enumerate(payloads)
        },
    }


def write_metrics_json(
    path: str, payloads: Sequence[Dict], meta: Optional[Dict] = None
) -> str:
    with open(path, "w") as handle:
        json.dump(metrics_document(payloads, meta), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# -- terminal summary --------------------------------------------------------


def render_summary(payloads: Sequence[Dict]) -> str:
    """Human-readable digest: span counts by kind, errors, ring-buffer
    drops, key metrics. Nonzero drops get an explicit WARNING line —
    a silently truncated trace looks identical to a complete one."""
    span_counts: Dict[str, int] = {}
    errors = 0
    dropped = 0
    for payload in payloads:
        dropped += payload.get("dropped_spans", 0)
        for span in payload.get("spans", []):
            span_counts[span["kind"]] = span_counts.get(span["kind"], 0) + 1
            if span.get("level") == "error":
                errors += 1
    merged = merge_metric_snapshots(
        [payload.get("metrics", {}) for payload in payloads]
    )
    lines = [f"telemetry: {len(payloads)} point(s)"]
    if span_counts:
        by_kind = ", ".join(
            f"{kind}={count}" for kind, count in sorted(span_counts.items())
        )
        lines.append(f"  spans: {sum(span_counts.values())} ({by_kind})")
    else:
        lines.append("  spans: none")
    if dropped:
        lines.append(
            f"  WARNING: {dropped} span(s) dropped by the trace ring "
            "buffer (oldest evicted; raise the tracer capacity to keep "
            "them)"
        )
    if errors:
        lines.append(f"  ERROR-level spans: {errors}")
    for name, data in sorted(merged["histograms"].items()):
        if not data["count"]:
            continue
        mean = data["total"] / data["count"]
        unit = f" {data['unit']}" if data.get("unit") else ""
        lines.append(
            f"  {name}: n={data['count']} mean={mean:.2f} "
            f"min={data['min']} max={data['max']}{unit}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.telemetry.exporters trace.json [--require k,...]``

    Validates an emitted trace file; CI's telemetry-smoke job runs this
    against the expected top-level span kinds.
    """
    import argparse

    parser = argparse.ArgumentParser(description="Validate a Chrome trace file.")
    parser.add_argument("trace", help="path to a trace JSON file")
    parser.add_argument(
        "--require",
        default="",
        help="comma-separated span kinds that must appear at least once",
    )
    args = parser.parse_args(argv)
    kinds = tuple(kind for kind in args.require.split(",") if kind)
    try:
        validate_trace_file(args.trace, require_kinds=kinds)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"INVALID: {exc}")
        return 1
    print(f"{args.trace}: valid Chrome trace" + (f" with kinds {kinds}" if kinds else ""))
    return 0


__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "metrics_document",
    "render_summary",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_metrics_json",
]


if __name__ == "__main__":  # pragma: no cover - exercised in CI
    raise SystemExit(main())
