"""Unified telemetry: span tracing, metrics, and trace/metrics export.

The observability substrate for the whole reproduction. One
:class:`Telemetry` object bundles

* a :class:`~repro.telemetry.tracer.Tracer` — nested spans with causal
  parent links around every protocol transaction (bus transactions,
  VCL snoop resolution, VOL walks and repairs, commit/squash waves,
  writeback drains), plus point-in-time instants, and
* a :class:`~repro.telemetry.metrics.MetricsRegistry` — counters and
  bucketed histograms (snoop fan-out, VOL length at access, MSHR
  occupancy, bus wait cycles, ...).

Exporters (:mod:`repro.telemetry.exporters`) turn snapshots into Chrome
``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``), a
flat metrics JSON, and a terminal summary; ``python -m repro
<experiment> --report DIR`` runs any experiment with tracing on and
writes its Chrome trace next to the run report
(:mod:`repro.telemetry.report`).

Cost model — near-zero when off
-------------------------------

Components take ``telemetry=None`` (the default) or a
:class:`Telemetry` and keep it as given, so every hot path pays a
single ``is not None`` test, exactly the pattern the ``event_log=None``
plumbing already uses. A hot layer that records a histogram binds the
histogram's ``tally`` dict once at wiring time and increments it in
place, so an observation costs one dict increment and a snapshot reads
it directly.

Determinism
-----------

Span timestamps come from a logical tick clock (one tick per span
begin/end/instant), not wall time, so the same run always emits the
same trace and Perfetto's containment-based nesting is exact. Simulated
cycle numbers ride along as span args. Telemetry never writes to the
:class:`~repro.common.events.EventLog` or
:class:`~repro.common.stats.StatsRegistry`: event streams and stats are
bit-identical with telemetry on or off (enforced by the differential
tests across all six design tiers).
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.metrics import (
    CYCLE_EDGES,
    FANOUT_EDGES,
    OCCUPANCY_EDGES,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracer import Span, Tracer

# -- span kind taxonomy (docs/OBSERVABILITY.md documents each) ---------------

#: One bus transaction: BusRead, BusWrite or a cast-out writeback.
BUS_TXN = "bus_txn"
#: VCL snoop resolution: holder snapshot + VOL reconstruction.
SNOOP = "snoop"
#: A walk along the VOL: version supply composition or the store's
#: invalidation window.
VOL_WALK = "vol_walk"
#: Post-transaction VOL repair (pointer rewrite, T-bit refresh, checks).
VOL_REPAIR = "vol_repair"
#: Committed-version purge: writebacks draining to next-level memory.
WB_DRAIN = "wb_drain"
#: One head-task commit wave.
COMMIT = "commit"
#: One squash wave (violation, misprediction, fault or ARB reclaim).
SQUASH = "squash"
#: One PU memory operation as seen by the timing simulator.
MEM_OP = "mem_op"
#: Whole-run envelope span (timing simulator / functional driver).
RUN = "run"
#: Instant: a task began on a cache/PU.
TASK_BEGIN = "task_begin"
#: Error-level instant: the runtime invariant checker tripped.
INVARIANT_VIOLATION = "invariant_violation"


#: Ring capacity / sampling interval used by campaign runners
#: (:func:`repro.harness.experiments._point_telemetry`): keep the newest
#: ~64k spans and trace 1-in-128 memory ops. A plain ``Telemetry()``
#: records everything — unit tests and the differential harness depend
#: on full traces.
PRODUCTION_TRACE_CAPACITY = 65536
PRODUCTION_SAMPLE_INTERVAL = 128


class Telemetry:
    """One run's tracer + metrics, with convenience passthroughs.

    ``capacity`` bounds the tracer's span ring (see
    :mod:`repro.telemetry.tracer`). ``sample_interval`` is read by the
    timing simulator, the one sampler: it traces the first memory-op
    attempt and every ``sample_interval``-th after it, each with its
    :data:`MEM_OP` span and the protocol spans nested in it, and keeps
    the system's telemetry detached for the others. Commit waves,
    misprediction squashes, task begins and checker violations are
    recorded whatever the interval; spans raised inside an untraced op
    are not. Metrics stay exact regardless: each layer counts into the
    histogram tallies it bound at wiring time, whether or not the op is
    traced.
    """

    __slots__ = ("label", "tracer", "metrics", "sample_interval")

    def __init__(
        self,
        label: str = "run",
        capacity: Optional[int] = None,
        sample_interval: int = 1,
    ) -> None:
        self.label = label
        self.tracer = Tracer(capacity=capacity)
        self.metrics = MetricsRegistry()
        self.sample_interval = max(1, int(sample_interval))

    # -- tracing passthroughs ------------------------------------------------

    def begin(self, kind: str, name: Optional[str] = None, **args) -> Span:
        return self.tracer.begin(kind, name, **args)

    def end(self, span: Span, level: Optional[str] = None, **args) -> None:
        self.tracer.end(span, level=level, **args)

    def span(self, kind: str, name: Optional[str] = None, **args):
        return self.tracer.span(kind, name, **args)

    def instant(
        self, kind: str, name: Optional[str] = None, level: str = "info", **args
    ) -> Span:
        return self.tracer.instant(kind, name, level=level, **args)

    # -- metrics passthroughs ------------------------------------------------

    def counter(self, name: str, unit: str = "") -> Counter:
        return self.metrics.counter(name, unit)

    def histogram(self, name: str, edges, unit: str = "") -> Histogram:
        return self.metrics.histogram(name, edges, unit)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable, JSON-safe payload: everything an exporter needs.

        This is what crosses process boundaries when experiments fan out
        over workers — the exporters merge a list of these into one
        coherent trace (one Chrome-trace process per payload).
        """
        return {
            "label": self.label,
            "clock": self.tracer.clock,
            "spans": self.tracer.export_spans(),
            "dropped_spans": self.tracer.dropped,
            "sample_interval": self.sample_interval,
            "metrics": self.metrics.snapshot(),
        }


__all__ = [
    "BUS_TXN",
    "COMMIT",
    "CYCLE_EDGES",
    "FANOUT_EDGES",
    "INVARIANT_VIOLATION",
    "MEM_OP",
    "OCCUPANCY_EDGES",
    "RUN",
    "SNOOP",
    "SQUASH",
    "TASK_BEGIN",
    "VOL_REPAIR",
    "VOL_WALK",
    "WB_DRAIN",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "PRODUCTION_SAMPLE_INTERVAL",
    "PRODUCTION_TRACE_CAPACITY",
    "Span",
    "Telemetry",
    "Tracer",
]
