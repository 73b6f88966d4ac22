"""SVCSystem: the public face of the Speculative Versioning Cache.

One object owns the N private caches, the snooping bus, the Version
Control Logic and the next-level memory, and exposes:

* the PU request interface — :meth:`load` and :meth:`store`,
* the task lifecycle — :meth:`begin_task`, :meth:`commit_head`,
  :meth:`squash_from_rank`,
* end-of-run draining and inspection helpers used by tests and examples.

Tasks are identified by *ranks*: unique, strictly increasing integers in
program order (the paper's task sequence numbers). The head task is the
oldest currently-assigned rank; only it may commit, and a squash always
removes a suffix of the rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bus.requests import BusRequestKind
from repro.bus.snooping_bus import SnoopingBus
from repro.common.config import SVCConfig
from repro.common.errors import ProtocolError
from repro.common.events import EventLog, ProtocolEvent
from repro.common.stats import StatsRegistry
from repro.mem.main_memory import MainMemory
from repro.svc.cache import ProbeOutcome, SVCCache
from repro.svc.line import LineState, SVCLine
from repro.svc.vcl import VersionControlLogic
from repro.telemetry import COMMIT, SQUASH, TASK_BEGIN, WB_DRAIN


@dataclass(slots=True)
class AccessResult:
    """Outcome of one PU load or store.

    ``squashed_ranks`` defaults to an empty tuple, so an access that
    squashes nothing allocates no list.
    """

    value: Optional[int]
    hit: bool
    end_cycle: int
    from_memory: bool = False
    cache_to_cache: bool = False
    squashed_ranks: Sequence[int] = ()


class SVCSystem:
    """A complete SVC memory system (Figure 5)."""

    def __init__(
        self,
        config: Optional[SVCConfig] = None,
        memory: Optional[MainMemory] = None,
        event_log: Optional[EventLog] = None,
        checker=None,
        telemetry=None,
    ) -> None:
        self.config = config if config is not None else SVCConfig()
        self.features = self.config.features
        self.geometry = self.config.geometry
        self.amap = self.geometry.address_map
        self.stats = StatsRegistry()
        #: Opt-in tracing/metrics sink (None = unwired): every hot path
        #: pays a single ``is not None`` — never writes to stats/event_log.
        self.telemetry = telemetry
        if checker is not None and event_log is None:
            event_log = EventLog()
        self.event_log = event_log
        self.bus = SnoopingBus(
            self.config.bus,
            stats=self.stats,
            event_log=event_log,
            telemetry=self.telemetry,
        )
        self.memory = memory if memory is not None else MainMemory(
            self.config.miss_penalty_cycles
        )
        self.caches = [
            SVCCache(i, self.geometry, self.features)
            for i in range(self.config.n_caches)
        ]
        self.vcl = VersionControlLogic(self)
        self._committed_through = -1
        self._content_counter = 0
        #: Incrementally maintained task maps (cache_id -> rank and the
        #: inverse), replacing the per-call rebuild over all caches.
        #: :meth:`verify` audits them against the caches' own state.
        self._active_ranks: Dict[int, int] = {}
        self._rank_to_cache: Dict[int, int] = {}
        #: True while a bus transaction is mutating distributed state.
        #: A violation squash fired mid-window is observable through the
        #: event log before the requestor's own line is final; full-state
        #: scans (the InvariantChecker) must skip those torn snapshots —
        #: the transaction's closing bus event audits the final state.
        self._in_transaction = False
        #: Hot-path accelerators: the registry's counter dict bound once,
        #: the address map's offset mask, and per-(offset, size) memos of
        #: the two mask computations every access repeats.
        self._counters = self.stats._counters
        self._offset_mask = self.amap._offset_mask
        self._hit_cycles = self.config.hit_cycles
        self._block_mask_memo: Dict[int, int] = {}
        self._full_cover_memo: Dict[int, int] = {}
        self.checker = checker
        if checker is not None:
            checker.bind(self)

    def next_content_seq(self) -> int:
        """Allocate a fresh, globally monotonic version-state stamp."""
        self._content_counter += 1
        return self._content_counter

    @property
    def n_units(self) -> int:
        """Number of processing units (one private cache each)."""
        return self.config.n_caches

    @property
    def mshrs_per_unit(self) -> int:
        return self.config.n_mshrs

    @property
    def mshr_combining(self) -> int:
        return self.config.mshr_combining

    # -- task bookkeeping -----------------------------------------------------

    def task_rank(self, cache_id: int) -> Optional[int]:
        return self.caches[cache_id].current_task

    def current_ranks(self) -> Dict[int, int]:
        return dict(self._active_ranks)

    def head_rank(self) -> Optional[int]:
        # min over at most n_caches keys; no rebuild over the caches.
        return min(self._rank_to_cache) if self._rank_to_cache else None

    def cache_of_rank(self, rank: int) -> Optional[int]:
        return self._rank_to_cache.get(rank)

    def begin_task(self, cache_id: int, rank: int) -> None:
        """Assign task ``rank`` to the PU behind ``cache_id``."""
        if rank <= self._committed_through:
            raise ProtocolError(
                f"task rank {rank} is not after the committed prefix "
                f"({self._committed_through})"
            )
        if rank in self._rank_to_cache:
            raise ProtocolError(f"task rank {rank} is already running")
        self.caches[cache_id].begin_task(rank)
        self._active_ranks[cache_id] = rank
        self._rank_to_cache[rank] = cache_id
        if self.telemetry is not None:
            self.telemetry.instant(
                TASK_BEGIN, f"task {rank} -> cache {cache_id}",
                cache=cache_id, rank=rank,
            )
        if self.event_log is not None:
            self.event_log.emit("begin_task", source="svc", cache=cache_id, rank=rank)

    def commit_head(self, cache_id: int, now: int = 0) -> int:
        """Commit the head task. EC designs flash-set the C bit in one
        cycle; the base design writes every dirty line back over the bus
        before invalidating the cache — the serial bottleneck the EC
        design removes (section 3.2.6). Returns the completion cycle."""
        cache = self.caches[cache_id]
        rank = cache.current_task
        if rank is None:
            raise ProtocolError(f"cache {cache_id} has no task to commit")
        if rank != self.head_rank():
            raise ProtocolError(
                f"task {rank} is not the head ({self.head_rank()}); "
                "commits must proceed in task order"
            )
        self.stats.add("commits")
        telemetry = self.telemetry
        span = None
        if telemetry is not None:
            span = telemetry.begin(
                COMMIT, f"commit rank {rank}", cache=cache_id, rank=rank, cycle=now
            )
        try:
            if self.features.lazy_commit:
                cache.flash_commit()
                end = now + 1
            else:
                end = now
                writebacks = 0
                drain = (
                    telemetry.begin(WB_DRAIN, "eager commit writebacks")
                    if telemetry is not None
                    else None
                )
                for line_addr, line in cache.dirty_active_lines():
                    transaction = self.bus.reserve(
                        end, BusRequestKind.WBACK, cache_id, line_addr
                    )
                    self.vcl._write_blocks(
                        line_addr, line, line.store_mask & line.valid_mask
                    )
                    end = transaction.end_cycle
                    writebacks += 1
                    self.stats.add("commit_writebacks")
                if drain is not None:
                    telemetry.end(drain, writebacks=writebacks)
                cache.flash_invalidate_all()
                cache.current_task = None
            del self._active_ranks[cache_id]
            del self._rank_to_cache[rank]
            self._committed_through = rank
            if self.event_log is not None:
                self.event_log.emit(
                    "commit", source="svc", cache=cache_id, rank=rank, end=end
                )
        finally:
            if span is not None:
                telemetry.end(span)
        return end

    def squash_from_rank(self, rank: int, reason: str = "misprediction") -> List[int]:
        """Squash task ``rank`` and every later task (the paper's simple
        squash model). Returns the squashed ranks, oldest first."""
        victims = sorted(
            (task, cache_id)
            for cache_id, task in self._active_ranks.items()
            if task >= rank
        )
        telemetry = self.telemetry
        span = None
        if telemetry is not None:
            span = telemetry.begin(
                SQUASH, f"squash from rank {rank}", rank=rank, reason=reason
            )
        try:
            for task, cache_id in victims:
                cache = self.caches[cache_id]
                if self.features.lazy_commit:
                    cache.flash_squash()
                else:
                    cache.flash_invalidate_all()
                    cache.current_task = None
                del self._active_ranks[cache_id]
                del self._rank_to_cache[task]
                self.stats.add(f"squashes_{reason}")
            # Emit after *all* victims are flashed: observers (the invariant
            # checker) must not see the half-squashed intermediate states.
            # The whole wave lands as one batched extend.
            if self.event_log is not None and victims:
                self.event_log.extend(
                    ProtocolEvent(
                        kind="squash",
                        source="svc",
                        detail={"cache": cache_id, "rank": task, "reason": reason},
                    )
                    for task, cache_id in victims
                )
        finally:
            if span is not None:
                telemetry.end(span, victims=[task for task, _ in victims])
        return [task for task, _ in victims]

    # -- PU requests -------------------------------------------------------------

    def load(self, cache_id: int, addr: int, size: int = 4, now: int = 0) -> AccessResult:
        """Execute a load for the task on ``cache_id``."""
        cache = self.caches[cache_id]
        if cache.current_task is None:
            raise ProtocolError(f"cache {cache_id} has no current task")
        offset = addr & self._offset_mask
        line_addr = addr - offset
        memo_key = (offset << 5) | size
        block_mask = self._block_mask_memo.get(memo_key)
        if block_mask is None:
            block_mask = self.amap.block_mask(addr, size)
            self._block_mask_memo[memo_key] = block_mask
        counters = self._counters
        counters["loads"] += 1

        outcome, line = cache.probe_load(line_addr, block_mask)
        if outcome == ProbeOutcome.HIT:
            # record_load inlined; probe_load's array lookup already
            # freshened the LRU position, so no second lookup is needed.
            line.load_mask |= block_mask & ~line.store_mask
            return AccessResult(
                line.read(offset, size), True, now + self._hit_cycles
            )
        counters["load_misses"] += 1
        self._in_transaction = True
        try:
            line, bus_outcome = self.vcl.bus_read(cache_id, line_addr, now)
        finally:
            self._in_transaction = False
        cache.record_load(line, block_mask)
        return AccessResult(
            line.read(offset, size),
            False,
            bus_outcome.end_cycle,
            bus_outcome.from_memory,
            bus_outcome.cache_to_cache,
        )

    def store(
        self, cache_id: int, addr: int, value: int, size: int = 4, now: int = 0
    ) -> AccessResult:
        """Execute a store for the task on ``cache_id``. A miss opens the
        invalidation window and may squash later tasks (returned in
        ``squashed_ranks``)."""
        cache = self.caches[cache_id]
        if cache.current_task is None:
            raise ProtocolError(f"cache {cache_id} has no current task")
        offset = addr & self._offset_mask
        line_addr = addr - offset
        memo_key = (offset << 5) | size
        block_mask = self._block_mask_memo.get(memo_key)
        if block_mask is None:
            block_mask = self.amap.block_mask(addr, size)
            self._block_mask_memo[memo_key] = block_mask
        counters = self._counters
        counters["stores"] += 1

        full_cover = self._full_cover_memo.get(memo_key)
        if full_cover is None:
            full_cover = self.amap.full_cover_mask(addr, size)
            self._full_cover_memo[memo_key] = full_cover
        outcome, line = cache.probe_store(line_addr, block_mask, full_cover)
        if outcome == ProbeOutcome.HIT:
            cache.apply_store(line, addr, size, value, block_mask)
            # A silent store creates a new version *state*; stamp it so
            # staleness checks and clean-supply matching stay exact.
            stamp = self.next_content_seq()
            for block in self.amap.blocks_in_mask(block_mask):
                line.block_content[block] = stamp
            # probe_store's array lookup already freshened the LRU
            # position; no second lookup is needed.
            return AccessResult(None, True, now + self._hit_cycles)
        counters["store_misses"] += 1
        self._in_transaction = True
        try:
            line, bus_outcome = self.vcl.bus_write(
                cache_id, line_addr, addr, size, value, now
            )
        finally:
            self._in_transaction = False
        return AccessResult(
            None,
            False,
            bus_outcome.end_cycle,
            bus_outcome.from_memory,
            bus_outcome.cache_to_cache,
            bus_outcome.squashed_ranks,
        )

    # -- end of run ----------------------------------------------------------------

    def drain(self) -> None:
        """Flush all committed state to memory and empty the caches."""
        self.vcl.drain()

    # -- inspection (tests, examples) -------------------------------------------------

    def line_in(self, cache_id: int, addr: int) -> Optional[SVCLine]:
        line_addr = self.amap.line_address(addr)
        return self.caches[cache_id].line_for(line_addr)

    def states_of(self, addr: int) -> List[str]:
        line_addr = self.amap.line_address(addr)
        return [cache.state_of(line_addr) for cache in self.caches]

    def vol_of(self, addr: int) -> List[int]:
        """Current VOL (cache ids, oldest first) for the line of ``addr``."""
        return self.vcl._fresh_snapshot(self.amap.line_address(addr))[1]

    def describe_line(self, addr: int) -> str:
        """One-line snapshot of every cache's state for ``addr``,
        in the style of the paper's figures."""
        line_addr = self.amap.line_address(addr)
        parts = []
        for cache in self.caches:
            line = cache.line_for(line_addr)
            rank = cache.current_task
            label = f"{cache.cache_id}/{rank if rank is not None else '-'}"
            if line is None:
                parts.append(f"[{label}: empty]")
            else:
                parts.append(f"[{label}: {line.describe()} v={line.read(0, 4)}]")
        return " ".join(parts)

    def verify(self) -> None:
        """Audit the whole SVC, read-only: raise
        :class:`repro.common.errors.ProtocolError` on the first violation
        and change no state.

        The incremental rank maps, then every cached ``(entries, VOL)``
        snapshot, are audited against the cache arrays before anything
        trusts them. Then the :class:`repro.check.InvariantChecker`
        catalogue's full scan runs (its
        :class:`repro.common.errors.InvariantViolation` names the rule).
        Like every full scan it is repair-aware: a pointer may dangle and
        a T bit may be conservatively set until the line's next bus
        request repairs it.
        """
        from repro.check import InvariantChecker

        self._audit_task_maps()
        self.vcl.fastpath.audit()
        InvariantChecker().scan_svc(self)

    def _audit_task_maps(self) -> None:
        """Cross-check the incremental rank maps against the caches."""
        actual = {
            cache.cache_id: cache.current_task
            for cache in self.caches
            if cache.current_task is not None
        }
        if actual != self._active_ranks:
            raise ProtocolError(
                f"task map desync: tracked {self._active_ranks} but the "
                f"caches report {actual}"
            )
        inverse = {rank: cache_id for cache_id, rank in actual.items()}
        if inverse != self._rank_to_cache:
            raise ProtocolError(
                f"rank map desync: tracked {self._rank_to_cache} but the "
                f"caches report {inverse}"
            )

    def miss_ratio(self) -> float:
        """Table-2 definition: accesses supplied by next-level memory
        over all accesses (cache-to-cache transfers are not misses)."""
        accesses = self.stats.get("loads") + self.stats.get("stores")
        if accesses == 0:
            return 0.0
        return self.stats.get("memory_supplies") / accesses


_ = LineState  # re-exported for convenience of importers
