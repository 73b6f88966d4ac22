"""ARBSystem: the shared-buffer memory system the SVC is compared to.

Implements the same duck-typed interface as
:class:`repro.svc.SVCSystem` (``begin_task`` / ``commit_head`` /
``squash_from_rank`` / ``load`` / ``store`` / ``drain`` / ``n_units``),
so every driver, test and benchmark runs over either system unchanged.

Timing model (paper section 4): every access crosses the PU-ARB
crossbar and pays ``hit_cycles`` (swept 1-4 in the experiments); a load
the ARB stages cannot satisfy reads the shared data cache, and a data
cache miss adds ``miss_penalty_cycles``. Bandwidth is unlimited — the
paper's ARB is modeled "without any bank contention" — which is exactly
the generosity the SVC still beats at 3+ cycle hit latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arb.buffer import (
    FULL_WORD_MASK,
    WORD_SIZE,
    AddressResolutionBuffer,
    ARBEntry,
    ARBRow,
)
from repro.arb.data_cache import SharedDataCache
from repro.common.config import ARBConfig
from repro.common.errors import ProtocolError, ReplacementStall
from repro.common.events import EventLog, ProtocolEvent
from repro.common.stats import StatsRegistry
from repro.mem.main_memory import MainMemory
from repro.svc.system import AccessResult
from repro.telemetry import COMMIT, OCCUPANCY_EDGES, SQUASH


class ARBSystem:
    """A complete ARB + shared data cache memory system."""

    def __init__(
        self,
        config: Optional[ARBConfig] = None,
        memory: Optional[MainMemory] = None,
        event_log: Optional[EventLog] = None,
        checker=None,
        telemetry=None,
    ) -> None:
        self.config = config if config is not None else ARBConfig()
        self.stats = StatsRegistry()
        #: The registry's counter dict, bound once: the per-access paths
        #: bump counters directly instead of paying a method call.
        self._counters = self.stats._counters
        self._hit_cycles = self.config.hit_cycles
        self._miss_penalty = self.config.miss_penalty_cycles
        if checker is not None and event_log is None:
            event_log = EventLog()
        self.event_log = event_log
        self.memory = memory if memory is not None else MainMemory(
            self.config.miss_penalty_cycles
        )
        self.buffer = AddressResolutionBuffer(self.config.n_rows)
        self.data_cache = SharedDataCache(
            self.config.cache_geometry, self.memory, self.stats
        )
        #: PU id -> rank of the task it is executing.
        self._task_of_unit: Dict[int, Optional[int]] = {
            unit: None for unit in range(self.n_units)
        }
        #: The same mapping without the idle units, maintained at task
        #: begin/commit/squash so the hot paths never filter Nones.
        self._active_ranks: Dict[int, int] = {}
        self._committed_through = -1
        #: None when unwired, so hot paths pay a single ``is not None``.
        self.telemetry = telemetry
        self._tel_rows = None
        if self.telemetry is not None:
            self._tel_rows = self.telemetry.histogram(
                "arb.rows_in_use", OCCUPANCY_EDGES, unit="rows"
            )
        self.checker = checker
        if checker is not None:
            checker.bind(self)

    @property
    def n_units(self) -> int:
        """One task stage per PU; the extra architectural stage is the
        data cache."""
        return self.config.n_stages - 1

    @property
    def amap(self):
        """Address map of the backing data cache (for MSHR line math)."""
        return self.config.cache_geometry.address_map

    @property
    def mshrs_per_unit(self) -> int:
        """The paper's 32 MSHRs are shared; model an even split."""
        return max(1, self.config.n_mshrs // self.n_units)

    @property
    def mshr_combining(self) -> int:
        return self.config.mshr_combining

    # -- task bookkeeping ----------------------------------------------------

    def current_ranks(self) -> Dict[int, int]:
        return dict(self._active_ranks)

    def head_rank(self) -> Optional[int]:
        active = self._active_ranks
        return min(active.values()) if active else None

    def task_rank(self, unit: int) -> Optional[int]:
        return self._task_of_unit[unit]

    def begin_task(self, unit: int, rank: int) -> None:
        if rank <= self._committed_through:
            raise ProtocolError(
                f"task rank {rank} is not after the committed prefix "
                f"({self._committed_through})"
            )
        if rank in self._active_ranks.values():
            raise ProtocolError(f"task rank {rank} is already running")
        if self._task_of_unit[unit] is not None:
            raise ProtocolError(f"unit {unit} already runs a task")
        self._task_of_unit[unit] = rank
        self._active_ranks[unit] = rank

    def commit_head(self, unit: int, now: int = 0) -> int:
        """Drain the head task's buffered stores into the data cache.

        This is the copy step whose burstiness the paper criticizes; the
        evaluation's "extra stage with architectural data" mitigation is
        modeled by charging a constant per-store drain cost off the
        critical path.
        """
        rank = self._task_of_unit[unit]
        if rank is None:
            raise ProtocolError(f"unit {unit} has no task to commit")
        if rank != self.head_rank():
            raise ProtocolError(
                f"task {rank} is not the head ({self.head_rank()})"
            )
        counters = self._counters
        counters["commits"] += 1
        telemetry = self.telemetry
        span = None
        if telemetry is not None:
            self._tel_rows.observe(self.buffer.occupancy())
            span = telemetry.begin(
                COMMIT, f"commit rank {rank}", unit=unit, rank=rank, cycle=now
            )
        try:
            drained = 0
            buffer = self.buffer
            rows = buffer._rows
            data_cache = self.data_cache
            # Indexed walk: only the rows this rank touched, in the same
            # allocation order a full buffer scan would visit them (the
            # data cache's evictions depend on this order).
            for row in buffer.rows_of_rank(rank):
                entries = row.entries
                entry = entries.pop(rank)
                store_mask = entry.store_mask
                if store_mask:
                    if store_mask == FULL_WORD_MASK:
                        data_cache.write(row.word_addr, bytes(entry.data))
                    else:
                        # Drain contiguous byte runs in one write each; the
                        # per-line hit/miss accounting is unchanged because
                        # every run of one word lands in the same line.
                        data = entry.data
                        offset = 0
                        while offset < WORD_SIZE:
                            if not store_mask & (1 << offset):
                                offset += 1
                                continue
                            end = offset + 1
                            while end < WORD_SIZE and store_mask & (1 << end):
                                end += 1
                            data_cache.write(
                                row.word_addr + offset, bytes(data[offset:end])
                            )
                            offset = end
                    drained += 1
                # Inline release_if_empty's common outcomes: an entryless
                # row frees immediately; remaining entries always carry a
                # mask bit (load/store set one at creation), so the full
                # emptiness scan only runs as a fallback.
                if not entries:
                    del rows[row.word_addr]
                else:
                    buffer.release_if_empty(row.word_addr)
            buffer.drop_rank_index(rank)
            counters["commit_stores_drained"] += drained
            self._task_of_unit[unit] = None
            del self._active_ranks[unit]
            self._committed_through = rank
            if self.event_log is not None:
                self.event_log.emit("commit", source="arb", unit=unit, rank=rank)
            if span is not None:
                telemetry.end(span, drained=drained)
            return now + 1
        finally:
            if span is not None:
                # Idempotent when already ended; closes descendants a
                # raise left open.
                telemetry.end(span)

    def squash_from_rank(self, rank: int, reason: str = "misprediction") -> List[int]:
        victims = sorted(
            (task, unit)
            for unit, task in self._active_ranks.items()
            if task >= rank
        )
        telemetry = self.telemetry
        span = None
        if telemetry is not None:
            span = telemetry.begin(
                SQUASH, f"squash from rank {rank}", rank=rank, reason=reason
            )
        for task, unit in victims:
            self.buffer.clear_rank(task)
            self._task_of_unit[unit] = None
            del self._active_ranks[unit]
            self.stats.add(f"squashes_{reason}")
        # One batched extend after every victim is cleared, mirroring the
        # SVC's squash wave: observers see the wave whole, never a
        # half-squashed buffer.
        if self.event_log is not None and victims:
            self.event_log.extend(
                ProtocolEvent(
                    kind="squash",
                    source="arb",
                    detail={"unit": unit, "rank": task, "reason": reason},
                )
                for task, unit in victims
            )
        if span is not None:
            telemetry.end(span, victims=[task for task, _ in victims])
        return [task for task, _ in victims]

    # -- PU requests ------------------------------------------------------------

    def _row_for(self, unit: int, addr: int, rank: int, for_store: bool):
        """The (possibly fresh) row for ``addr``.

        A full buffer stalls a speculative task until commits free rows.
        The head task must not stall forever — rows only free on its own
        commit — so it reclaims capacity by squashing the youngest task,
        the standard ARB back-pressure recovery. A head *load* with no
        existing row needs no row at all: there is no older task whose
        store could violate it, so nothing needs recording.
        """
        word_addr = addr - (addr % WORD_SIZE)
        reclaim_squashed: List[int] = []
        row = self.buffer.lookup_or_allocate(word_addr)
        while row is None:
            if rank != self.head_rank():
                self.stats.add("arb_full_stalls")
                raise ReplacementStall(unit, word_addr)
            if not for_store:
                return None, reclaim_squashed
            youngest = max(
                (r for r in self._active_ranks.values() if r != rank),
                default=None,
            )
            if youngest is None:
                # Only the head remains and the buffer still cannot hold
                # its working set. The head is non-speculative and — with
                # no row — no later task has recorded a load here, so its
                # store may write through to the data cache directly.
                return None, reclaim_squashed
            reclaim_squashed = sorted(
                set(reclaim_squashed)
                | set(self.squash_from_rank(youngest, reason="arb_reclaim"))
            )
            row = self.buffer.lookup_or_allocate(word_addr)
        return row, reclaim_squashed

    def load(self, unit: int, addr: int, size: int = 4, now: int = 0) -> AccessResult:
        rank = self._task_of_unit[unit]
        if rank is None:
            raise ProtocolError(f"unit {unit} has no current task")
        offset = addr % WORD_SIZE
        if offset + size > WORD_SIZE:
            raise ProtocolError("ARB accesses must fall within one word")
        counters = self._counters
        counters["loads"] += 1
        # Row lookup/allocation inlined for the common case (resident
        # row, or free space); the full-buffer stall path stays in
        # _row_for.
        word_addr = addr - offset
        buffer = self.buffer
        rows = buffer._rows
        row = rows.get(word_addr)
        if row is None:
            if len(rows) < buffer.n_rows:
                row = ARBRow(word_addr, {}, buffer._alloc_seq)
                buffer._alloc_seq += 1
                rows[word_addr] = row
            else:
                row, _ = self._row_for(unit, addr, rank, for_store=False)
        from_memory = False
        if row is None:
            # Head-task load with a full buffer: nothing older can
            # violate it, so it reads the architectural data directly.
            value, hit = self.data_cache.read_value(addr, size)
            if not hit:
                from_memory = True
                counters["memory_supplies"] += 1
        else:
            mask = ((1 << size) - 1) << offset
            # Record use-before-definition for the bytes this task has
            # not itself stored, then compose each byte from the closest
            # previous stage store, falling back to the data cache.
            entries = row.entries
            entry = entries.get(rank)
            if entry is None:
                entry = ARBEntry(0, 0, bytearray(WORD_SIZE))
                entries[rank] = entry
                rank_rows = buffer._rank_rows.get(rank)
                if rank_rows is None:
                    buffer._rank_rows[rank] = rank_rows = set()
                rank_rows.add(word_addr)
            entry.load_mask |= mask & ~entry.store_mask

            own_take = entry.store_mask & mask
            if own_take == mask:
                # Own entry fully covers the access: the closest
                # previous store of every byte is this task's own.
                value = int.from_bytes(entry.data[offset : offset + size], "little")
            elif own_take == 0 and len(entries) == 1:
                # No buffered bytes anywhere: the data cache supplies
                # the whole access.
                value, hit = self.data_cache.read_value(addr, size)
                if not hit:
                    from_memory = True
                    counters["memory_supplies"] += 1
            else:
                # Walk candidates newest-first; the first store of each
                # byte wins, exactly the closest-previous-stage rule.
                value_bytes = bytearray(size)
                missing_mask = mask
                if len(entries) == 1:
                    data = entry.data
                    for i in range(size):
                        if own_take & (1 << (offset + i)):
                            value_bytes[i] = data[offset + i]
                    missing_mask &= ~own_take
                else:
                    for r in sorted(entries, reverse=True):
                        if r > rank:
                            continue
                        candidate = entries[r]
                        take = candidate.store_mask & missing_mask
                        if take:
                            data = candidate.data
                            for i in range(size):
                                if take & (1 << (offset + i)):
                                    value_bytes[i] = data[offset + i]
                            missing_mask &= ~take
                            if not missing_mask:
                                break
                missing_mask >>= offset
                if missing_mask:
                    cached, hit = self.data_cache.read(addr, size)
                    for i in range(size):
                        if missing_mask & (1 << i):
                            value_bytes[i] = cached[i]
                    if not hit:
                        from_memory = True
                        counters["memory_supplies"] += 1
                value = int.from_bytes(bytes(value_bytes), "little")

        end = now + self._hit_cycles
        if from_memory:
            end += self._miss_penalty
        return AccessResult(value, not from_memory, end, from_memory)

    def store(
        self, unit: int, addr: int, value: int, size: int = 4, now: int = 0
    ) -> AccessResult:
        rank = self._task_of_unit[unit]
        if rank is None:
            raise ProtocolError(f"unit {unit} has no current task")
        offset = addr % WORD_SIZE
        if offset + size > WORD_SIZE:
            raise ProtocolError("ARB accesses must fall within one word")
        self._counters["stores"] += 1
        # Row lookup/allocation inlined for the common case (see load).
        word_addr = addr - offset
        buffer = self.buffer
        rows = buffer._rows
        row = rows.get(word_addr)
        if row is not None:
            squashed: List[int] = []
        elif len(rows) < buffer.n_rows:
            row = ARBRow(word_addr, {}, buffer._alloc_seq)
            buffer._alloc_seq += 1
            rows[word_addr] = row
            squashed = []
        else:
            row, squashed = self._row_for(unit, addr, rank, for_store=True)
        mask = ((1 << size) - 1) << offset

        if row is None:
            # Head write-through: the buffer cannot hold the head's
            # working set even after reclaiming every younger task.
            payload = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            self.data_cache.write(addr, payload)
            self.stats.add("head_write_throughs")
            return AccessResult(
                value=None,
                hit=True,
                end_cycle=now + self.config.hit_cycles,
                squashed_ranks=squashed,
            )

        entries = row.entries
        entry = entries.get(rank)
        if entry is None:
            entry = ARBEntry(0, 0, bytearray(WORD_SIZE))
            entries[rank] = entry
            rank_rows = buffer._rank_rows.get(rank)
            if rank_rows is None:
                buffer._rank_rows[rank] = rank_rows = set()
            rank_rows.add(word_addr)
        entry.data[offset : offset + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
        entry.store_mask |= mask

        # Memory-dependence check: a later task that loaded any of these
        # bytes used a stale value — squash it and everything younger.
        # Walking later tasks in ascending rank lets the store shadow
        # (bytes redefined between the storer and the task under test)
        # accumulate incrementally instead of being recomputed per task.
        if len(entries) > 1:
            remaining = mask
            for r in sorted(entries):
                if r <= rank or not remaining:
                    continue
                later = entries[r]
                if later.load_mask & remaining:
                    squashed = sorted(
                        set(squashed)
                        | set(self.squash_from_rank(r, reason="violation"))
                    )
                    break
                remaining &= ~later.store_mask

        return AccessResult(None, True, now + self._hit_cycles, False, False, squashed)

    # -- end of run ----------------------------------------------------------------

    def drain(self) -> None:
        """Flush architectural state to memory (all tasks committed)."""
        for row in self.buffer.rows():
            for rank, entry in row.entries.items():
                if entry.store_mask:
                    raise ProtocolError(
                        f"drain with uncommitted store in row {row.word_addr:#x}"
                    )
        self.data_cache.drain()

    def miss_ratio(self) -> float:
        """Table-2 definition: accesses supplied by the next level of
        memory (below the ARB/data-cache pair) over all accesses."""
        accesses = self.stats.get("loads") + self.stats.get("stores")
        if accesses == 0:
            return 0.0
        return self.stats.get("memory_supplies") / accesses
