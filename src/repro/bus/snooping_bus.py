"""Timing and accounting model of the split-transaction snooping bus.

The functional protocol layers (SMP coherence, SVC) broadcast snoops by
direct method call — the *ordering* a real bus provides is supplied by the
simulator's one-transaction-at-a-time discipline. This class models the
other two things a bus contributes: **occupancy** (a typical transaction
holds the bus for 3 processor cycles; flushing a committed version to the
next level takes one extra cycle — paper section 4.2 and footnote 7) and
**utilization statistics** (Table 3).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bus.requests import BusRequestKind, BusTransaction
from repro.common.config import BusConfig
from repro.common.events import EventLog
from repro.common.stats import StatsRegistry
from repro.telemetry import CYCLE_EDGES


class SnoopingBus:
    """Arbiter + occupancy tracker for one snooping bus."""

    def __init__(
        self,
        config: BusConfig,
        stats: Optional[StatsRegistry] = None,
        event_log: Optional[EventLog] = None,
        keep_history: bool = False,
        telemetry=None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        #: Hot-path accelerators: the registry's counter dict bound once
        #: and the per-kind counter names built once.
        self._counters = self.stats._counters
        self._kind_keys = {kind: f"bus_{kind}" for kind in BusRequestKind.ALL}
        self.event_log = event_log
        self.keep_history = keep_history
        self.history: List[BusTransaction] = []
        self._free_at = 0
        #: Fault injection (repro.faults): extra occupancy per request
        #: kind, e.g. ``{"wback": 2}`` models a slow next-level path.
        self.fault_extra_cycles: dict = {}
        #: Telemetry histograms, resolved once at wiring time so
        #: :meth:`reserve` pays only an ``is not None`` when unwired.
        self._tel_wait = self._tel_occupancy = None
        self._wait_batch = self._occupancy_batch = None
        if telemetry is not None:
            self._tel_wait = telemetry.histogram(
                "bus.wait_cycles", CYCLE_EDGES, unit="cycles"
            )
            self._tel_occupancy = telemetry.histogram(
                "bus.occupancy_cycles", CYCLE_EDGES, unit="cycles"
            )
            #: Batched per-transaction observations (value -> count):
            #: :meth:`reserve` pays two dict increments instead of two
            #: histogram calls; the flush hook drains before every
            #: snapshot, so the metrics stay exact.
            self._wait_batch = {}
            self._occupancy_batch = {}
            telemetry.on_snapshot(self._flush_cycle_batches)

    def _flush_cycle_batches(self) -> None:
        """Drain batched wait/occupancy counts into the histograms
        (idempotent: batches are cleared as they flush)."""
        for batch, hist in (
            (self._wait_batch, self._tel_wait),
            (self._occupancy_batch, self._tel_occupancy),
        ):
            if batch:
                for value, count in batch.items():
                    hist.observe_many(value, count)
                batch.clear()

    def reserve(
        self,
        now: int,
        kind: str,
        requester: Optional[int],
        line_addr: int,
        store_mask: int = 0,
        cache_to_cache: bool = False,
        extra_cycles: int = 0,
    ) -> BusTransaction:
        """Arbitrate and occupy the bus for one transaction.

        The transaction starts at the later of ``now`` and the cycle the
        bus frees up, and runs for the configured transaction length plus
        ``extra_cycles``. Returns the scheduled transaction; the caller
        reads ``end_cycle`` for the completion time.
        """
        start = max(now, self._free_at)
        cycles = self.config.transaction_cycles + extra_cycles
        if self.fault_extra_cycles:
            cycles += self.fault_extra_cycles.get(kind, 0)
        end = start + cycles
        self._free_at = end

        counters = self._counters
        counters["bus_transactions"] += 1
        kind_key = self._kind_keys.get(kind)
        if kind_key is None:
            kind_key = f"bus_{kind}"
        counters[kind_key] += 1
        counters["bus_busy_cycles"] += cycles
        counters["bus_wait_cycles"] += start - now
        if cache_to_cache:
            counters["bus_cache_to_cache"] += 1
        batch = self._wait_batch
        if batch is not None:
            wait = start - now
            batch[wait] = batch.get(wait, 0) + 1
            occupancy = self._occupancy_batch
            occupancy[cycles] = occupancy.get(cycles, 0) + 1

        transaction = BusTransaction(
            kind, requester, line_addr, start, end, store_mask, cache_to_cache
        )
        if self.keep_history:
            self.history.append(transaction)
        if self.event_log is not None:
            self.event_log.emit(
                "bus",
                source="bus",
                request=kind,
                requester=requester,
                line_addr=line_addr,
                start=start,
                end=end,
            )
        return transaction

    def utilization(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the bus was occupied (Table 3)."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.get("bus_busy_cycles") / total_cycles)
