"""Campaign event stream: schema-versioned NDJSON + live progress.

The supervised engine (:mod:`repro.harness.supervisor`) already knows
everything interesting about a running campaign — which points are in
flight, which retried, which quarantined, how fast finished points
executed — and without a record that knowledge dies with the process.
This module turns it into a consumable **event stream**:

* every supervisor decision becomes one JSON object on one line
  (NDJSON), stamped with a schema version (``v``), a strictly
  increasing sequence number (``seq``) and seconds since campaign
  start (``t``), so external consumers (the future HTTP front-end,
  CI validators, ad-hoc ``jq``) can tail a file and reconstruct the
  campaign without parsing terminal output;
* the same events feed a live aggregate — points done/running/
  quarantined, retry count, per-tier events/sec, a wall-clock ETA —
  rendered by :class:`ProgressRenderer` when the CLI runs with
  ``--progress``;
* :func:`validate_stream_events` / :func:`validate_stream_file` check
  the stream the way :func:`repro.telemetry.exporters.validate_chrome_trace`
  checks traces: CI's ``report-smoke`` job validates every stream it
  produces (``python -m repro.telemetry.stream <file>``).

Event taxonomy (docs/OBSERVABILITY.md documents each field)::

    campaign_started   points, workers
    point_started      point, attempt, benchmark, machine
    point_finished     point, attempt, benchmark, machine, status,
                       wall_s, events, events_per_sec [+ metrics]
    point_retry        point, attempt, kind, delay_s [+ note]
    point_quarantined  point, attempts, note
    heartbeat          done, running, waiting, quarantined, retries
                       [+ eta_s, tiers]
    campaign_finished  counters [+ tiers, elapsed_s]

Timestamps here are wall-clock (observability of the *harness*, which
runs in real time), unlike the protocol tracer's logical ticks: two
runs of the same campaign emit the same event *sequence* but different
``t``/``wall_s`` values.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ReproError

#: Bump when an event gains/loses a *required* field; consumers refuse
#: streams from the future.
SCHEMA_VERSION = 1

#: Envelope fields present on every event.
ENVELOPE_FIELDS = ("v", "seq", "t", "event")

#: Required payload fields per event type. Optional fields (``note``,
#: ``metrics``, ``tiers``, ``eta_s``, ...) may ride along; unknown
#: *event types* are rejected.
EVENT_FIELDS: Dict[str, tuple] = {
    "campaign_started": ("points", "workers"),
    "point_started": ("point", "attempt", "benchmark", "machine"),
    "point_finished": (
        "point", "attempt", "benchmark", "machine", "status",
        "wall_s", "events", "events_per_sec",
    ),
    "point_retry": ("point", "attempt", "kind", "delay_s"),
    "point_quarantined": ("point", "attempts", "note"),
    "heartbeat": ("done", "running", "waiting", "quarantined", "retries"),
    "campaign_finished": ("counters",),
}

#: Fields that must be numbers (int or float) when present.
_NUMERIC_FIELDS = frozenset(
    (
        "points", "workers", "point", "attempt", "wall_s", "events",
        "events_per_sec", "delay_s", "attempts", "done", "running",
        "waiting", "quarantined", "retries", "eta_s", "elapsed_s", "t",
    )
)


def make_event(event: str, seq: int, t: float, **fields) -> Dict:
    """Build one schema-conformant event dict (raises on a malformed
    one — emitting garbage is a programming error, not bad input)."""
    if event not in EVENT_FIELDS:
        raise ReproError(f"unknown stream event type {event!r}")
    data = {"v": SCHEMA_VERSION, "seq": seq, "t": round(t, 6), "event": event}
    data.update(fields)
    missing = [key for key in EVENT_FIELDS[event] if data.get(key) is None]
    if missing:
        raise ReproError(f"stream event {event!r} missing fields {missing}")
    return data


# -- validation --------------------------------------------------------------


def validate_stream_events(
    events: Sequence[Dict], require_finished: bool = True
) -> List[str]:
    """Structural validation; returns problems (empty = valid).

    Checks what consumers rely on: the schema version, dense ``seq``
    numbering, non-decreasing timestamps, known event types with their
    required fields, numeric fields actually numeric, exactly one
    ``campaign_started`` first and (with ``require_finished``) one
    ``campaign_finished`` last.
    """
    problems: List[str] = []
    if not events:
        return ["stream is empty"]
    last_t = None
    finished_at = None
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not a JSON object")
            continue
        for key in ENVELOPE_FIELDS:
            if key not in event:
                problems.append(f"{where}: missing envelope field {key!r}")
        version = event.get("v")
        if version is not None and version != SCHEMA_VERSION:
            problems.append(
                f"{where}: schema version {version!r} "
                f"(this reader understands {SCHEMA_VERSION})"
            )
        if event.get("seq") != index:
            problems.append(
                f"{where}: seq {event.get('seq')!r}, expected {index}"
            )
        kind = event.get("event")
        if kind not in EVENT_FIELDS:
            problems.append(f"{where}: unknown event type {kind!r}")
            continue
        for key in EVENT_FIELDS[kind]:
            if event.get(key) is None:
                problems.append(f"{where} ({kind}): missing field {key!r}")
        for key, value in event.items():
            if key in _NUMERIC_FIELDS and value is not None:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(
                        f"{where} ({kind}): field {key!r} must be a "
                        f"number, got {value!r}"
                    )
        t = event.get("t")
        if isinstance(t, (int, float)):
            if last_t is not None and t < last_t:
                problems.append(f"{where}: t went backwards ({last_t} -> {t})")
            last_t = t
        if kind == "campaign_started" and index != 0:
            problems.append(f"{where}: campaign_started not first")
        if kind == "campaign_finished":
            if finished_at is not None:
                problems.append(
                    f"{where}: second campaign_finished (first at {finished_at})"
                )
            finished_at = index
    first = events[0] if isinstance(events[0], dict) else {}
    if first.get("event") != "campaign_started":
        problems.append("first event is not campaign_started")
    if finished_at is not None and finished_at != len(events) - 1:
        problems.append(
            f"campaign_finished at {finished_at} is not the last event"
        )
    if require_finished and finished_at is None:
        problems.append("stream has no campaign_finished (truncated?)")
    return problems


def read_stream(path: str) -> List[Dict]:
    """Parse an NDJSON stream file into event dicts.

    Raises ``ValueError`` naming the first unparseable line — a
    half-written trailing line means the producer died mid-write, which
    is exactly what a validator must not paper over.
    """
    events: List[Dict] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
    return events


def validate_stream_file(path: str, require_finished: bool = True) -> List[str]:
    """Load + validate one NDJSON stream file; returns problems."""
    try:
        events = read_stream(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    return validate_stream_events(events, require_finished=require_finished)


# -- live aggregation + emission ---------------------------------------------


class ProgressRenderer:
    """Terminal renderer for the campaign aggregate.

    On a TTY it repaints one status line in place (carriage return);
    piped to a file or CI log it prints a plain line per update so the
    log shows the campaign's shape without control characters.
    """

    def __init__(self, out=None) -> None:
        self.out = out if out is not None else sys.stderr
        self._tty = bool(getattr(self.out, "isatty", lambda: False)())
        self._last_width = 0

    def update(self, line: str) -> None:
        if self._tty:
            pad = " " * max(0, self._last_width - len(line))
            self.out.write(f"\r{line}{pad}")
            self._last_width = len(line)
        else:
            self.out.write(f"{line}\n")
        self.out.flush()

    def close(self) -> None:
        if self._tty and self._last_width:
            self.out.write("\n")
            self.out.flush()


class CampaignStream:
    """One campaign's event emitter + live aggregate.

    The supervised engine calls the semantic methods
    (:meth:`campaign_started` ... :meth:`campaign_finished`); each emits
    one validated NDJSON event to ``path`` (if given), forwards it to
    every listener callable, updates the aggregate, and repaints the
    progress renderer. Heartbeats are rate-limited to one per
    ``heartbeat_interval`` seconds (``0`` = every poll; the engine
    forces a final one so even sub-second campaigns ship at least one).

    The aggregate doubles as the data source for the run-report
    generator: :meth:`tier_stats` is where per-tier events/sec comes
    from (the result objects know events, only the stream saw walls).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        progress: bool = False,
        out=None,
        listeners: Sequence = (),
        heartbeat_interval: float = 1.0,
    ) -> None:
        self.path = path
        self._handle = None
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(path, "w")
        self._renderer = ProgressRenderer(out) if progress else None
        self._listeners = list(listeners)
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat: Optional[float] = None
        self.events_emitted = 0
        self._start = time.monotonic()
        # -- aggregate state --
        self.points = 0
        self.workers = 1
        self.done = 0
        self.cached = 0
        self.quarantined = 0
        self.retries = 0
        self.running: set = set()
        self._fresh_walls: List[float] = []
        self._tiers: Dict[str, Dict[str, float]] = {}
        self.closed = False

    # -- plumbing ------------------------------------------------------------

    def _emit(self, event: str, **fields) -> Dict:
        data = make_event(
            event, self.events_emitted, time.monotonic() - self._start, **fields
        )
        self.events_emitted += 1
        if self._handle is not None:
            self._handle.write(json.dumps(data, sort_keys=True) + "\n")
            self._handle.flush()
        for listener in self._listeners:
            listener(data)
        if self._renderer is not None:
            self._renderer.update(self.progress_line())
        return data

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._renderer is not None:
            self._renderer.close()
        if self._handle is not None:
            self._handle.close()

    # -- derived state -------------------------------------------------------

    @property
    def remaining(self) -> int:
        return max(0, self.points - self.done - self.quarantined)

    def eta_seconds(self) -> Optional[float]:
        """Wall-clock estimate for the remaining points, from the mean
        fresh-point wall so far spread across the worker pool."""
        if not self._fresh_walls or not self.remaining:
            return None
        mean = sum(self._fresh_walls) / len(self._fresh_walls)
        return round(mean * self.remaining / max(1, self.workers), 3)

    def tier_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-machine aggregate: points, events, wall_s, events_per_sec
        (fresh executions only — cache hits have no meaningful wall)."""
        out = {}
        for machine, data in sorted(self._tiers.items()):
            eps = (
                round(data["events"] / data["wall_s"])
                if data["wall_s"] > 0
                else 0
            )
            out[machine] = {**data, "events_per_sec": eps}
        return out

    def progress_line(self) -> str:
        parts = [
            f"campaign: {self.done}/{self.points} done",
            f"{len(self.running)} running",
            f"{self.quarantined} quarantined",
            f"{self.retries} retries",
        ]
        if self.cached:
            parts[0] += f" ({self.cached} cached)"
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        line = ", ".join(parts)
        tiers = self.tier_stats()
        if tiers:
            shown = list(tiers.items())[:4]
            rates = ", ".join(
                f"{machine} {stats['events_per_sec'] / 1000:.0f}k ev/s"
                for machine, stats in shown
            )
            suffix = ", ..." if len(tiers) > len(shown) else ""
            line += f" | {rates}{suffix}"
        return line

    # -- semantic events (called by the supervisor) --------------------------

    def campaign_started(self, points: int, workers: int) -> None:
        self.points = points
        self.workers = max(1, workers)
        self._emit("campaign_started", points=points, workers=self.workers)

    def point_started(
        self, point: int, attempt: int, benchmark: str, machine: str
    ) -> None:
        self.running.add(point)
        self._emit(
            "point_started",
            point=point, attempt=attempt, benchmark=benchmark, machine=machine,
        )

    def point_finished(
        self,
        point: int,
        attempt: int,
        benchmark: str,
        machine: str,
        status: str,
        wall_s: float,
        events: Optional[int],
        metrics: Optional[Dict] = None,
    ) -> None:
        self.running.discard(point)
        self.done += 1
        if status == "cached":
            self.cached += 1
        elif wall_s > 0:
            self._fresh_walls.append(wall_s)
            if events:
                tier = self._tiers.setdefault(
                    machine, {"points": 0, "events": 0, "wall_s": 0.0}
                )
                tier["points"] += 1
                tier["events"] += events
                tier["wall_s"] = round(tier["wall_s"] + wall_s, 6)
        fields = {
            "point": point,
            "attempt": attempt,
            "benchmark": benchmark,
            "machine": machine,
            "status": status,
            "wall_s": round(wall_s, 6),
            "events": events if events is not None else 0,
            "events_per_sec": (
                round(events / wall_s) if events and wall_s > 0 else 0
            ),
        }
        if metrics:
            fields["metrics"] = metrics
        self._emit("point_finished", **fields)

    def point_retry(
        self, point: int, attempt: int, kind: str, delay_s: float, note: str = ""
    ) -> None:
        self.running.discard(point)
        self.retries += 1
        self._emit(
            "point_retry",
            point=point, attempt=attempt, kind=kind,
            delay_s=round(delay_s, 6), note=note,
        )

    def point_quarantined(self, point: int, attempts: int, note: str) -> None:
        self.running.discard(point)
        self.quarantined += 1
        self._emit(
            "point_quarantined", point=point, attempts=attempts, note=note
        )

    def heartbeat(self, waiting: int = 0, force: bool = False) -> bool:
        """Emit a heartbeat, rate-limited; returns whether one went out."""
        now = time.monotonic()
        if (
            not force
            and self._last_heartbeat is not None
            and now - self._last_heartbeat < self.heartbeat_interval
        ):
            return False
        self._last_heartbeat = now
        fields = {
            "done": self.done,
            "running": len(self.running),
            "waiting": waiting,
            "quarantined": self.quarantined,
            "retries": self.retries,
        }
        eta = self.eta_seconds()
        if eta is not None:
            fields["eta_s"] = eta
        tiers = self.tier_stats()
        if tiers:
            fields["tiers"] = {
                machine: stats["events_per_sec"]
                for machine, stats in tiers.items()
            }
        self._emit("heartbeat", **fields)
        return True

    def campaign_finished(self, counters: Dict[str, int]) -> None:
        fields = {
            "counters": dict(counters),
            "elapsed_s": round(time.monotonic() - self._start, 6),
        }
        tiers = self.tier_stats()
        if tiers:
            fields["tiers"] = {
                machine: stats["events_per_sec"]
                for machine, stats in tiers.items()
            }
        self._emit("campaign_finished", **fields)


# -- CLI validator (CI's report-smoke job) -----------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.telemetry.stream <file.ndjson> [--partial]``

    Validates a campaign event stream against the schema; ``--partial``
    accepts a stream without a ``campaign_finished`` terminator (a
    still-running or killed campaign).
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate a campaign NDJSON event stream."
    )
    parser.add_argument("stream", help="path to an NDJSON stream file")
    parser.add_argument(
        "--partial",
        action="store_true",
        help="accept a stream without a campaign_finished terminator",
    )
    args = parser.parse_args(argv)
    problems = validate_stream_file(
        args.stream, require_finished=not args.partial
    )
    if problems:
        print(f"INVALID: {args.stream}")
        for problem in problems:
            print(f"  {problem}")
        return 1
    events = read_stream(args.stream)
    print(
        f"{args.stream}: valid campaign stream "
        f"(v{SCHEMA_VERSION}, {len(events)} events)"
    )
    return 0


__all__ = [
    "CampaignStream",
    "EVENT_FIELDS",
    "ProgressRenderer",
    "SCHEMA_VERSION",
    "make_event",
    "read_stream",
    "validate_stream_events",
    "validate_stream_file",
]


if __name__ == "__main__":  # pragma: no cover - exercised in CI
    raise SystemExit(main())
