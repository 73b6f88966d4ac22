"""Counters and bucketed histograms for protocol metrics.

Deliberately separate from :class:`repro.common.stats.StatsRegistry`:
the stats registry is part of the *observable protocol surface* (the
differential harnesses and conformance fixtures pin its exact
contents), so telemetry must never write to it. These metrics live on
the opt-in :class:`repro.telemetry.Telemetry` object and add
distribution shape — histograms with fixed bucket edges — that flat
counters cannot express (snoop fan-out, VOL length at access, MSHR
occupancy, bus wait cycles).

A histogram counts each observation into its ``tally`` (value ->
count), one dict increment. Hot layers bind the tally once at wiring
time and increment it in place; buckets, count, total, min and max are
derived at snapshot time. Memory grows with the number of *distinct*
values observed: at most the cache count + 1 for snoop fan-out and VOL
length, the MSHR count + 1 for occupancy, and one entry per distinct
cycle count for the bus's wait and occupancy.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ReproError

#: Default edges for small-cardinality distributions (snoop fan-out,
#: VOL length): one bucket per interesting value, then powers of two.
FANOUT_EDGES: Tuple[int, ...] = (0, 1, 2, 3, 4, 8, 16)

#: Default edges for cycle-valued distributions (bus wait, occupancy).
CYCLE_EDGES: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

#: Default edges for queue/buffer occupancy (MSHRs).
OCCUPANCY_EDGES: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32)


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "unit", "value")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict:
        return {"unit": self.unit, "value": self.value}


class Histogram:
    """Histogram with inclusive upper-bound bucket edges.

    ``edges = (a, b, c)`` yields buckets ``v <= a``, ``a < v <= b``,
    ``b < v <= c`` and an overflow bucket ``v > c`` — ``counts`` in
    :meth:`to_dict` always has ``len(edges) + 1`` slots. Observations
    are kept as ``tally`` (value -> count), so totals, min and max come
    out exact without keeping samples.
    """

    __slots__ = ("name", "unit", "edges", "tally")

    def __init__(self, name: str, edges: Sequence[int], unit: str = "") -> None:
        edges = tuple(edges)
        if not edges:
            raise ReproError(f"histogram {name!r} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ReproError(
                f"histogram {name!r} edges must be strictly increasing: {edges}"
            )
        self.name = name
        self.unit = unit
        self.edges = edges
        self.tally: Dict[int, int] = {}

    def observe(self, value) -> None:
        tally = self.tally
        tally[value] = tally.get(value, 0) + 1

    def to_dict(self) -> Dict:
        edges = self.edges
        counts = [0] * (len(edges) + 1)
        count = total = 0
        for value, n in self.tally.items():
            counts[bisect_left(edges, value)] += n
            count += n
            total += value * n
        return {
            "unit": self.unit,
            "edges": list(edges),
            "counts": counts,
            "count": count,
            "total": total,
            "min": min(self.tally, default=None),
            "max": max(self.tally, default=None),
        }


class MetricsRegistry:
    """Get-or-create registry keyed by metric name.

    A name is permanently bound to one metric type (and, for
    histograms, one edge tuple): a conflicting re-registration is a
    programming error and raises rather than silently splitting data.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is not None and not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str, unit: str = "") -> Counter:
        metric = self._get(name, Counter)
        if metric is None:
            metric = Counter(name, unit)
            self._metrics[name] = metric
        return metric

    def histogram(self, name: str, edges: Sequence[int], unit: str = "") -> Histogram:
        metric = self._get(name, Histogram)
        if metric is None:
            metric = Histogram(name, edges, unit)
            self._metrics[name] = metric
        elif metric.edges != tuple(edges):
            raise ReproError(
                f"histogram {name!r} already registered with edges "
                f"{metric.edges}, not {tuple(edges)}"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-safe dump, grouped by metric type, names sorted."""
        out: Dict[str, Dict] = {"counters": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.to_dict()
            else:
                out["histograms"][name] = metric.to_dict()
        return out


def merge_metric_snapshots(snapshots: List[Dict]) -> Dict:
    """Combine per-worker metric snapshots into one aggregate.

    Counters and histogram counts/totals add; histogram min/max
    envelopes widen; histogram edges must agree (they come from the
    same wiring code, so a mismatch means incompatible payloads).
    Likewise a metric *name* must be the same kind in every snapshot —
    one worker's counter silently summing into another worker's
    histogram would corrupt both, so kind conflicts raise.
    """
    merged: Dict[str, Dict] = {"counters": {}, "histograms": {}}
    kinds: Dict[str, str] = {}

    def claim(name: str, kind: str) -> None:
        previous = kinds.setdefault(name, kind)
        if previous != kind:
            raise ReproError(
                f"cannot merge metric {name!r}: registered as a "
                f"{previous[:-1]} in one snapshot and a {kind[:-1]} "
                "in another"
            )

    for snap in snapshots:
        for kind in ("counters", "histograms"):
            for name in snap.get(kind, {}):
                claim(name, kind)
        for name, data in snap.get("counters", {}).items():
            entry = merged["counters"].setdefault(
                name, {"unit": data.get("unit", ""), "value": 0}
            )
            entry["value"] += data["value"]
        for name, data in snap.get("histograms", {}).items():
            entry = merged["histograms"].get(name)
            if entry is None:
                entry = {
                    "unit": data.get("unit", ""),
                    "edges": list(data["edges"]),
                    "counts": [0] * len(data["counts"]),
                    "count": 0,
                    "total": 0,
                    "min": None,
                    "max": None,
                }
                merged["histograms"][name] = entry
            if entry["edges"] != list(data["edges"]):
                raise ReproError(
                    f"cannot merge histogram {name!r}: edges "
                    f"{entry['edges']} vs {data['edges']}"
                )
            entry["counts"] = [
                a + b for a, b in zip(entry["counts"], data["counts"])
            ]
            entry["count"] += data["count"]
            entry["total"] += data["total"]
            for key, pick in (("min", min), ("max", max)):
                if data.get(key) is not None:
                    entry[key] = (
                        data[key]
                        if entry[key] is None
                        else pick(entry[key], data[key])
                    )
    return merged


__all__ = [
    "CYCLE_EDGES",
    "FANOUT_EDGES",
    "OCCUPANCY_EDGES",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "merge_metric_snapshots",
]
