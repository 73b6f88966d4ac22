"""Version Control Logic: the bus-side brain of the SVC (section 3.8.2).

On every bus request the VCL sees the snooped line states of all caches,
reconstructs the Version Ordering List, and orchestrates everything the
paper assigns to it:

* supply the correct version for a load (closest previous version per
  versioning block, else architected memory),
* open the invalidation window of a store and detect memory-dependence
  violations (squashes),
* purge committed versions — writing back the newest and dropping the
  ones it covers (the EC design's lazy commit),
* repair VOLs broken by squashes and silent evictions,
* maintain the T (stale) and A (architectural) bits,
* offer snarf opportunities to caches that could use the data (HR), and
* apply the write-update leg of the hybrid update–invalidate protocol.

The VCL mutates cache lines directly: in hardware it would emit per-cache
responses that the controllers apply; collapsing the two steps changes no
observable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bus.requests import BusRequestKind
from repro.common.config import UpdatePolicy
from repro.common.errors import ProtocolError, ReplacementStall
from repro.svc.fastpath import FastpathKernel
from repro.svc.line import SVCLine
from repro.svc.vol import (
    CACHE,
    CLEAN,
    MEMORY,
    build_vol,
    rewrite_pointers,
    supply_sources,
)
from repro.telemetry import (
    BUS_TXN,
    FANOUT_EDGES,
    SNOOP,
    VOL_REPAIR,
    VOL_WALK,
    WB_DRAIN,
)


@dataclass(slots=True)
class BusOutcome:
    """What one bus request did, for stats, timing and the driver.

    The rank and cache lists default to empty tuples, so a request that
    squashes or snarfs nothing allocates no list.
    """

    kind: str
    end_cycle: int
    from_memory: bool = False
    cache_to_cache: bool = False
    flushes: int = 0
    squashed_ranks: Sequence[int] = ()
    snarfed_caches: Sequence[int] = ()
    invalidations: int = 0
    updates: int = 0


class VersionControlLogic:
    """Combinational logic shared by all caches on the snooping bus."""

    def __init__(self, system) -> None:
        self.system = system
        #: Per-line-address stamps of the block states last written back
        #: to memory. A fill block supplied by memory inherits this
        #: stamp, so staleness checks can tell copies of the current
        #: architectural image from copies of an older one.
        self._memory_stamps: Dict[int, List[int]] = {}
        #: Read once: ``AddressMap.full_mask`` is a property, and the
        #: snarf, supply-plan and repair loops need it on every request.
        self._full_mask = system.amap.full_mask
        #: The persistent holder/VOL snapshot store (repro.svc.fastpath).
        self.fastpath = FastpathKernel(self)
        #: The one accessor for a line's ``(entries, vol)``: the store's
        #: snapshot, shared protocol-wide and so read-only.
        self._snapshot = self.fastpath.acquire
        #: VOL-length histogram tally (also the snoop fan-out, as
        #: ``build_vol`` orders every holder), bound at wiring time like
        #: the bus's: the metric stays *exact* even when the timing
        #: simulator unwires ``system.telemetry`` for sampled-out
        #: memory-op subtrees (only spans are sampled, never metrics).
        self._vol_tally = None
        if system.telemetry is not None:
            self._vol_tally = system.telemetry.histogram(
                "svc.vol_length", FANOUT_EDGES, unit="versions"
            ).tally

    def memory_stamps_for(self, line_addr: int) -> List[int]:
        stamps = self._memory_stamps.get(line_addr)
        if stamps is None:
            stamps = [0] * self.system.amap.blocks_per_line
            self._memory_stamps[line_addr] = stamps
        return stamps

    # -- snapshot helpers ---------------------------------------------------

    def _entries(self, line_addr: int) -> Dict[int, SVCLine]:
        """Holder snapshot for one line, read from the cache arrays: one
        ``line_for`` per cache, in ascending cache id — the snoop of
        every cache that section 3.8.2 describes. A fresh dict (callers
        may mutate it)."""
        entries = {}
        for cache in self.system.caches:
            line = cache.line_for(line_addr)
            if line is not None:
                entries[cache.cache_id] = line
        return entries

    def _fresh_snapshot(
        self, line_addr: int
    ) -> Tuple[Dict[int, SVCLine], List[int]]:
        """``(entries, vol)`` for one line, read from the arrays:
        :meth:`_entries` and a ``build_vol`` over the live rank map (what
        a snapshot rebuild reads)."""
        entries = self._entries(line_addr)
        return entries, build_vol(entries, self.system._active_ranks)

    def _snoop(self, line_addr: int, telemetry):
        """Holder snapshot + rank map + VOL for one bus request, traced
        as a single snoop span with a VOL-length histogram. The
        rank map is the system's live one; no VCL code mutates it.
        ``telemetry=None`` skips the span; the histogram tally counts
        whenever it was bound (metrics are exact even when spans are
        being sampled)."""
        span = (
            telemetry.begin(SNOOP, f"snoop {line_addr:#x}", line_addr=line_addr)
            if telemetry is not None
            else None
        )
        entries, vol = self._snapshot(line_addr)
        vol_tally = self._vol_tally
        if vol_tally is not None:
            length = len(vol)
            vol_tally[length] = vol_tally.get(length, 0) + 1
        if span is not None:
            telemetry.end(span, holders=len(entries), vol_length=len(vol))
        return entries, self.system._active_ranks, vol

    @staticmethod
    def _insertion_index(
        vol: List[int],
        entries: Dict[int, SVCLine],
        ranks: Dict[int, int],
        my_rank: int,
    ) -> int:
        """VOL index where a new entry of task ``my_rank`` belongs:
        after the committed prefix and after every older active entry."""
        index = 0
        for cache_id in vol:
            line = entries[cache_id]
            if line.committed or ranks[cache_id] < my_rank:
                index += 1
            else:
                break
        return index

    # -- data movement helpers ------------------------------------------------

    def _compose(
        self,
        line_addr: int,
        entries: Dict[int, SVCLine],
        vol: List[int],
        position: int,
        need_mask: int,
    ) -> Tuple[bytearray, Dict[int, Tuple[str, Optional[int]]], Dict[int, int]]:
        """Build fill data for the blocks in ``need_mask``: each block
        comes from the closest previous version that wrote it, else from
        a clean copy of memory's data, else from architected memory
        (:func:`repro.svc.vol.supply_sources`). The bytes outside
        ``need_mask`` are zeros. Returns (data, per-block supplier,
        per-block content stamps)."""
        system = self.system
        amap = system.amap
        vbs = amap.versioning_block_size
        data = bytearray(amap.line_size)
        memory_stamps = self.memory_stamps_for(line_addr)
        stamps: Dict[int, int] = {}
        suppliers = supply_sources(entries, vol, position, need_mask, memory_stamps)
        for block, (source, cache_id) in suppliers.items():
            start = block * vbs
            end = start + vbs
            if source == MEMORY:
                data[start:end] = system.memory.read_bytes(line_addr + start, vbs)
                stamps[block] = memory_stamps[block]
                continue
            supplier = entries[cache_id]
            data[start:end] = supplier.data[start:end]
            if source == CACHE:
                stamps[block] = supplier.block_content[block]
            else:
                stamps[block] = memory_stamps[block]
        if system.telemetry is not None:
            self._emit_supply_span(system.telemetry, position, suppliers)
        return data, suppliers, stamps

    def _supply_plan(
        self,
        line_addr: int,
        entries: Dict[int, SVCLine],
        vol: List[int],
        position: int,
    ) -> Tuple[Dict[int, Tuple[str, Optional[int]]], List[int]]:
        """Per-block (supplier, stamp) columns for a full-line fill at
        ``position``: the metadata half of :meth:`_compose`, with no byte
        movement and no memory reads."""
        memory_stamps = self.memory_stamps_for(line_addr)
        suppliers = supply_sources(
            entries, vol, position, self._full_mask, memory_stamps
        )
        stamps = list(memory_stamps)
        for block, (source, cache_id) in suppliers.items():
            if source == CACHE:
                stamps[block] = entries[cache_id].block_content[block]
        return suppliers, stamps

    @staticmethod
    def _emit_supply_span(telemetry, position, suppliers) -> None:
        """The VOL_WALK span of one supply walk, with its per-source
        block counts."""
        span = telemetry.begin(
            VOL_WALK, "supply walk", phase="supply", position=position
        )
        sources = [src for src, _ in suppliers.values()]
        telemetry.end(
            span,
            blocks=len(suppliers),
            from_versions=sources.count(CACHE),
            from_clean=sources.count(CLEAN),
            from_memory=sources.count(MEMORY),
        )

    def _write_blocks(self, line_addr: int, line: SVCLine, mask: int) -> None:
        amap = self.system.amap
        vbs = amap.versioning_block_size
        memory_stamps = self.memory_stamps_for(line_addr)
        for block in amap.blocks_in_mask(mask):
            start = block * vbs
            self.system.memory.write_bytes(
                line_addr + start, bytes(line.data[start : start + vbs])
            )
            memory_stamps[block] = line.block_content[block]
        self.system._counters["writebacks"] += 1

    def _purge_committed(self, line_addr: int, retain_newest: bool) -> int:
        """Write back and drop committed versions of one line.

        Coverage rule (the paper's "only the most recent committed
        version is written back", generalized to versioning blocks): scan
        committed versions newest-first; a version's block reaches memory
        only if no newer committed version already wrote that block.
        With one block per line this degenerates to exactly the paper's
        rule. When ``retain_newest`` the newest version stays resident,
        marked written-back, so it can keep supplying loads cheaply.
        Returns the number of versions flushed to memory.
        """
        entries, vol = self._snapshot(line_addr)
        versions = [
            cid for cid in vol if entries[cid].committed and entries[cid].dirty
        ]
        if not versions:
            return 0
        telemetry = self.system.telemetry
        span = (
            telemetry.begin(
                WB_DRAIN,
                f"purge committed {line_addr:#x}",
                line_addr=line_addr,
                versions=len(versions),
                retain_newest=retain_newest,
            )
            if telemetry is not None
            else None
        )
        newest = versions[-1]
        covered = 0
        flushes = 0
        for cache_id in reversed(versions):
            line = entries[cache_id]
            useful = line.store_mask & line.valid_mask
            to_write = useful & ~covered
            if to_write and not line.written_back:
                self._write_blocks(line_addr, line, to_write)
                flushes += 1
            covered |= useful
            if retain_newest and cache_id == newest:
                line.written_back = True
            else:
                self.system.caches[cache_id].drop(line_addr)
        if span is not None:
            telemetry.end(span, flushes=flushes)
        return flushes

    def _make_room(self, requestor: int, line_addr: int, now: int) -> int:
        """Ensure a way is free for a fill, casting out a victim if needed.

        Must run *before* any other protocol side effect of a bus
        request: a :class:`ReplacementStall` aborts the whole PU request,
        and the driver retries it later, so nothing observable may have
        happened yet. A resident line for ``line_addr`` (even a stale
        committed one) needs no room — the fill reuses its way.
        """
        cache = self.system.caches[requestor]
        if cache.line_for(line_addr) is not None:
            return now
        if not cache.array.set_is_full(line_addr):
            return now
        is_head = self.system.task_rank(requestor) == self.system.head_rank()
        victim = cache.choose_victim(line_addr, is_head)
        if victim is None:
            raise ReplacementStall(requestor, line_addr)
        victim_addr, _victim_line = victim
        self.system._counters["replacements"] += 1
        return self.cast_out(requestor, victim_addr, now)

    def _finalize(self, line_addr: int) -> None:
        """Post-transaction VOL repair: rewrite pointers and refresh T
        bits. The ``InvariantChecker`` audits the result at the bus
        event of a BusRead or BusWrite (docs/INVARIANTS.md)."""
        telemetry = self.system.telemetry
        if telemetry is None:
            self._finalize_impl(line_addr)
            return
        # try/finally because _finalize also runs outside any bus_txn
        # span (silent evictions): a raise (say, ``build_vol`` finding an
        # active line with no task) must not leave this span open to
        # adopt unrelated later spans.
        span = telemetry.begin(
            VOL_REPAIR, f"repair {line_addr:#x}", line_addr=line_addr
        )
        try:
            self._finalize_impl(line_addr)
        finally:
            telemetry.end(span)

    def _finalize_impl(self, line_addr: int) -> None:
        """Pointer rewrite + T-bit refresh in one backward VOL pass over
        the line's snapshot: pointers mirror the VOL, the tail stamp of
        each block is its newest ``store_mask & valid_mask`` writer's
        (else memory's), and a line is stale iff any valid block's stamp
        differs from the tail stamp. The checker's
        ``t-clear-implies-fresh`` and ``t-set-implies-stale`` rules hold
        the result to that definition."""
        system = self.system
        entries, vol = self._snapshot(line_addr)
        # Read from the module namespace at every call: the checker's
        # seeded-bug drill patches ``repro.svc.vcl.rewrite_pointers``.
        rewrite_pointers(entries, vol)
        # The T bit exists only from the EC design on (Figure 11);
        # earlier tiers have no stale bookkeeping to maintain.
        stale_bit = system.features.stale_bit
        if stale_bit:
            memory_stamps = self.memory_stamps_for(line_addr)
            blocks_in_mask = system.amap.blocks_in_mask
            if len(vol) == 1:
                # Sole holder: the tail stamps are its own written blocks
                # over the memory image, so it is stale iff a valid,
                # unwritten block's stamp differs from memory's.
                only = entries[vol[0]]
                content = only.block_content
                stale = False
                for block in blocks_in_mask(only.valid_mask & ~only.store_mask):
                    if content[block] != memory_stamps[block]:
                        stale = True
                        break
                only.stale = stale
            else:
                tail = list(memory_stamps)
                remaining = self._full_mask
                for cid in reversed(vol):
                    if not remaining:
                        break
                    line = entries[cid]
                    writes = line.store_mask & line.valid_mask & remaining
                    if writes:
                        content = line.block_content
                        for block in blocks_in_mask(writes):
                            tail[block] = content[block]
                        remaining &= ~writes
                for cid in vol:
                    line = entries[cid]
                    content = line.block_content
                    stale = False
                    for block in blocks_in_mask(line.valid_mask):
                        if content[block] != tail[block]:
                            stale = True
                            break
                    line.stale = stale

    @staticmethod
    def _clear_supplier_exclusivity(
        entries: Dict[int, SVCLine],
        suppliers: Dict[int, Tuple[str, Optional[int]]],
    ) -> None:
        """A version that supplied data to a later task loses the X bit:
        its owner's next store to the line must go to the bus, where the
        invalidation window will find the new copy. Clean (architectural)
        supplies do not affect exclusivity — they copy memory's image,
        not the supplier's version — but the position-based revocation
        below covers the cases where the copy could go stale."""
        for source, cache_id in suppliers.values():
            if source == CACHE:
                entries[cache_id].exclusive = False

    @staticmethod
    def _revoke_other_exclusivity(
        entries: Dict[int, SVCLine], requestor: int
    ) -> None:
        """A new copy installed anywhere revokes every other entry's X
        bit — the E-state demotion of MESI. Not just *earlier* entries:
        with lazy commit, a copy ordered before the X holder can become
        a committed copy and later be silently reactivated by a task
        ordered *after* the holder (T-clear reuse needs no bus request),
        so the only install-time moment to revoke is now. Committed
        lines lose X too — a written-back passive line's X bit is what
        authorizes local reactivation."""
        for cache_id, line in entries.items():
            if cache_id != requestor:
                line.exclusive = False

    def _suppliers_architectural(
        self,
        suppliers: Dict[int, Tuple[str, Optional[int]]],
        entries: Dict[int, SVCLine],
        ranks: Dict[int, int],
    ) -> bool:
        """A-bit rule (section 3.5.1): a copy is architectural when main
        memory, a committed version or the head task supplied it. The A
        bit exists only from the ECS design on (Figure 16); earlier
        tiers never set it."""
        if not self.system.features.architectural_bit:
            return False
        head = self.system.head_rank()
        for source, cache_id in suppliers.values():
            if source in (MEMORY, CLEAN):
                continue
            line = entries[cache_id]
            if line.committed:
                continue
            if ranks.get(cache_id) == head:
                continue
            return False
        return True

    # -- BusRead -------------------------------------------------------------

    def bus_read(
        self, requestor: int, line_addr: int, now: int
    ) -> Tuple[SVCLine, BusOutcome]:
        system = self.system
        my_rank = system.task_rank(requestor)
        if my_rank is None:
            raise ProtocolError(f"cache {requestor} has no task for a BusRead")
        # Room first: a ReplacementStall must abort before side effects —
        # and before the transaction span opens, so a stalled (retried)
        # request leaves no span for a transaction that never happened.
        now = max(now, self._make_room(requestor, line_addr, now))
        telemetry = system.telemetry
        if telemetry is None:
            return self._bus_read_impl(requestor, line_addr, now, my_rank, None)
        span = telemetry.begin(
            BUS_TXN,
            f"BusRead {line_addr:#x}",
            request="read",
            requestor=requestor,
            line_addr=line_addr,
            rank=my_rank,
            cycle=now,
        )
        try:
            line, outcome = self._bus_read_impl(
                requestor, line_addr, now, my_rank, telemetry
            )
        finally:
            # Closes the span and any descendants a raise left open.
            telemetry.end(span)
        telemetry.end(
            span,
            from_memory=outcome.from_memory,
            cache_to_cache=outcome.cache_to_cache,
            flushes=outcome.flushes,
            snarfed=len(outcome.snarfed_caches),
            end_cycle=outcome.end_cycle,
        )
        return line, outcome

    def _bus_read_impl(
        self,
        requestor: int,
        line_addr: int,
        now: int,
        my_rank: int,
        telemetry,
    ) -> Tuple[SVCLine, BusOutcome]:
        system = self.system
        amap = system.amap
        full = amap.full_mask
        cache = system.caches[requestor]

        entries, ranks, vol = self._snoop(line_addr, telemetry)
        own = entries.get(requestor)
        own_active = own is not None and not own.committed

        if own_active:
            position = vol.index(requestor)
            keep_mask = own.valid_mask
        else:
            position = self._insertion_index(vol, entries, ranks, my_rank)
            keep_mask = 0
        need_mask = full & ~keep_mask

        data, suppliers, stamps = self._compose(
            line_addr, entries, vol, position, need_mask
        )
        # One pass over the suppliers: where the data came from, whether
        # a committed or an active version supplied any block, and the
        # newest supplying version (the fill's version stamp). Every
        # supplying version loses its X bit on the way
        # (_clear_supplier_exclusivity).
        from_memory = cache_to_cache = False
        committed_supplied = active_supplied = False
        supplier_seq = 0
        for source, cache_id in suppliers.values():
            if source == MEMORY:
                from_memory = True
                continue
            cache_to_cache = True
            if source == CACHE:
                supplier = entries[cache_id]
                supplier.exclusive = False
                if supplier.committed:
                    committed_supplied = True
                else:
                    active_supplied = True
                if supplier.version_seq > supplier_seq:
                    supplier_seq = supplier.version_seq
        # Only an active version can make the fill speculative.
        if active_supplied:
            architectural = self._suppliers_architectural(suppliers, entries, ranks)
        else:
            architectural = system.features.architectural_bit
        self._revoke_other_exclusivity(entries, requestor)

        # EC design: a load supplied by a committed version writes it back
        # and invalidates the committed versions it covers (Figure 12).
        own_committed_dirty = own is not None and own.committed and own.dirty
        flushes = 0
        if own_committed_dirty:
            flushes += self._purge_committed(line_addr, retain_newest=False)
        elif committed_supplied:
            # Flush the newest committed version but retain the line
            # (the final design's passive-dirty retention, section
            # 3.8.1): once marked written-back it can be reused and even
            # reactivated locally, and purges skip the redundant flush.
            flushes += self._purge_committed(line_addr, retain_newest=True)

        # The requestor's stale/retained committed entry gives way to the
        # fresh active copy (one line per address per cache).
        own_now = cache.line_for(line_addr)
        if own_now is not None and own_now.committed:
            if own_now.dirty and not own_now.written_back:
                self._write_blocks(
                    line_addr, own_now, own_now.store_mask & own_now.valid_mask
                )
                flushes += 1
            cache.drop(line_addr)
            own_now = None

        if own_active:
            line = own
            vbs = amap.versioning_block_size
            for block in amap.blocks_in_mask(need_mask):
                start = block * vbs
                line.data[start : start + vbs] = data[start : start + vbs]
                line.block_content[block] = stamps[block]
            line.valid_mask = full
            line.architectural = line.architectural and architectural
        else:
            line = SVCLine(
                data=data,
                valid_mask=full,
                architectural=architectural,
                version_seq=supplier_seq,
                task_id=my_rank,
            )
            line.ensure_block_stamps(amap.blocks_per_line)
            for block, stamp in stamps.items():
                line.block_content[block] = stamp
            cache.install(line_addr, line)

        # Snarf only architectural (read-shared) fills: that is the
        # reference-spreading problem the HR design targets. Spreading
        # copies of migratory version data would only revoke the
        # writer's exclusivity and bounce the line harder.
        if system.features.snarfing and not active_supplied:
            snarfed = self._snarf(requestor, line_addr, line, ranks)
        else:
            snarfed = ()

        # Exclusive grant (the E-state analog of the X bit, section
        # 3.1): when the fill leaves the requestor as the only holder of
        # the line, a future store needs no invalidation window — any
        # later install revokes the grant before it could matter.
        if not snarfed and not line.committed:
            holders = self._snapshot(line_addr)[0]
            if len(holders) == 1 and requestor in holders:
                line.exclusive = True

        # Repair before the bus event fires: observers of the "bus"
        # event (the invariant checker) must see post-repair state.
        self._finalize(line_addr)
        extra = system.bus.config.commit_flush_extra_cycles * flushes
        transaction = system.bus.reserve(
            now, BusRequestKind.READ, requestor, line_addr, 0, cache_to_cache, extra
        )
        end = transaction.end_cycle
        if from_memory:
            end += system.config.miss_penalty_cycles
            system._counters["memory_supplies"] += 1

        outcome = BusOutcome(
            BusRequestKind.READ,
            end,
            from_memory,
            cache_to_cache,
            flushes,
            (),
            snarfed,
        )
        return line, outcome

    def _snarf(
        self,
        requestor: int,
        line_addr: int,
        new_line: SVCLine,
        ranks: Dict[int, int],
    ) -> List[int]:
        """HR design: other caches copy the bus data when they could use
        this same version and have a free way (section 3.6).

        A candidate whose supply-plan stamps equal the bus line's is
        accepted without composing a byte buffer. That is sound because
        a content stamp is allocated globally, one per store
        (:meth:`repro.svc.system.SVCSystem.next_content_seq`), and
        written back with the bytes it stamps: equal stamps at the same
        (line, block) mean equal bytes. On a stamp mismatch the fill is
        composed and compared byte for byte, so a mismatch costs time,
        never correctness. Plans are memoized per insertion position
        until an install changes the VOL.
        """
        system = self.system
        telemetry = system.telemetry
        full = self._full_mask
        snarfed: List[int] = []
        entries, vol = self._snapshot(line_addr)
        plans: Dict[int, Tuple[Dict[int, Tuple[str, Optional[int]]], List[int]]] = {}
        for cache in system.caches:
            cid = cache.cache_id
            # ``entries`` names exactly the caches holding the line (the
            # snapshot, plus each copy installed below), so holders are
            # skipped without probing their arrays.
            if cid in entries or cache.current_task is None:
                continue
            if not cache.array.has_free_way(line_addr):
                continue
            position = self._insertion_index(vol, entries, ranks, ranks[cid])
            plan = plans.get(position)
            if plan is None:
                plan = self._supply_plan(line_addr, entries, vol, position)
                plans[position] = plan
            suppliers, stamps = plan
            if stamps == new_line.block_content:
                data = new_line.data
                if telemetry is not None:
                    self._emit_supply_span(telemetry, position, suppliers)
            else:
                data, suppliers, stamp_map = self._compose(
                    line_addr, entries, vol, position, full
                )
                if bytes(data) != bytes(new_line.data):
                    continue
                stamps = [
                    stamp_map.get(b, 0) for b in range(system.amap.blocks_per_line)
                ]
            self._clear_supplier_exclusivity(entries, suppliers)
            self._revoke_other_exclusivity(entries, cid)
            copy = SVCLine(
                data=bytearray(data),
                valid_mask=full,
                architectural=self._suppliers_architectural(suppliers, entries, ranks),
                version_seq=new_line.version_seq,
                block_content=list(stamps),
                task_id=ranks[cid],
            )
            # The install hook carries the snapshot forward in canonical
            # order. This loop's own holder dict appends each copy last
            # instead, and the later candidates' clean-supplier choice
            # (the first match in dict order, ``clean_supplier``) reads
            # that order. It is a new dict, so no snapshot anyone holds
            # is mutated.
            cache.install(line_addr, copy)
            entries = {**entries, cid: copy}
            vol = self._snapshot(line_addr)[1]
            plans.clear()
            snarfed.append(cid)
            system._counters["snarfs"] += 1
        return snarfed

    # -- BusWrite ------------------------------------------------------------

    def bus_write(
        self,
        requestor: int,
        line_addr: int,
        addr: int,
        size: int,
        value: int,
        now: int,
    ) -> Tuple[SVCLine, BusOutcome]:
        system = self.system
        my_rank = system.task_rank(requestor)
        if my_rank is None:
            raise ProtocolError(f"cache {requestor} has no task for a BusWrite")
        # Room first: a ReplacementStall must abort before side effects —
        # and before the transaction span opens (see bus_read).
        now = max(now, self._make_room(requestor, line_addr, now))
        telemetry = system.telemetry
        if telemetry is None:
            return self._bus_write_impl(
                requestor, line_addr, addr, size, value, now, my_rank, None
            )
        span = telemetry.begin(
            BUS_TXN,
            f"BusWrite {line_addr:#x}",
            request="write",
            requestor=requestor,
            line_addr=line_addr,
            rank=my_rank,
            cycle=now,
        )
        try:
            line, outcome = self._bus_write_impl(
                requestor, line_addr, addr, size, value, now, my_rank, telemetry
            )
        finally:
            # Closes the span and any descendants a raise left open.
            telemetry.end(span)
        telemetry.end(
            span,
            from_memory=outcome.from_memory,
            cache_to_cache=outcome.cache_to_cache,
            flushes=outcome.flushes,
            invalidations=outcome.invalidations,
            updates=outcome.updates,
            squashed=len(outcome.squashed_ranks),
            end_cycle=outcome.end_cycle,
        )
        return line, outcome

    def _bus_write_impl(
        self,
        requestor: int,
        line_addr: int,
        addr: int,
        size: int,
        value: int,
        now: int,
        my_rank: int,
        telemetry,
    ) -> Tuple[SVCLine, BusOutcome]:
        system = self.system
        amap = system.amap
        full = amap.full_mask
        vbs = amap.versioning_block_size
        cache = system.caches[requestor]
        # The store's block masks, from the memos SVCSystem.store filled
        # for this access shape. Blocks the store fully covers need no
        # fill data.
        offset = amap.line_offset(addr)
        memo_key = (offset << 5) | size
        block_mask = system._block_mask_memo.get(memo_key)
        if block_mask is None:
            block_mask = amap.block_mask(addr, size)
        full_cover = system._full_cover_memo.get(memo_key)
        if full_cover is None:
            full_cover = amap.full_cover_mask(addr, size)

        entries, ranks, vol = self._snoop(line_addr, telemetry)
        own = entries.get(requestor)
        own_active = own is not None and not own.committed

        if own_active:
            position = vol.index(requestor)
            keep_mask = own.valid_mask
        else:
            position = self._insertion_index(vol, entries, ranks, my_rank)
            keep_mask = 0
        need_mask = full & ~keep_mask & ~full_cover

        data, suppliers, stamps = self._compose(
            line_addr, entries, vol, position, need_mask
        )
        from_memory = cache_to_cache = False
        for source, cache_id in suppliers.values():
            if source == MEMORY:
                from_memory = True
                continue
            cache_to_cache = True
            if source == CACHE:
                # _clear_supplier_exclusivity, folded into this pass.
                entries[cache_id].exclusive = False
        self._revoke_other_exclusivity(entries, requestor)

        # Invalidation window and violation detection (section 3.2.3,
        # per versioning block as in section 3.7). The walk visits every
        # later task's entry until each block meets the next version of
        # that block. The window spans the *whole line*: a later L bit
        # on a newly stored block is a violation; copies of every other
        # block are invalidated or updated so that, when nothing
        # downstream survives, the X bit can stand for "no later task
        # holds any piece of this line" and future stores to any block
        # complete locally.
        viol_mask = block_mask
        # The content stamp of the version state this store creates;
        # patched copies must carry the same stamp as the version.
        pending_content = system.next_content_seq()
        start_index = position + 1 if own_active else position
        if start_index < len(vol):
            # Projected content of the new version, used to patch copies
            # under the write-update policy; only a window with entries
            # in it can need them. Outside ``need_mask`` the fill data is
            # zeros, so without an own line it is the projection itself.
            if own_active:
                projected = bytearray(own.data)
                for block in amap.blocks_in_mask(need_mask):
                    start = block * vbs
                    projected[start : start + vbs] = data[start : start + vbs]
            else:
                projected = bytearray(data)
            write_mask = (1 << (8 * size)) - 1
            projected[offset : offset + size] = (value & write_mask).to_bytes(
                size, "little"
            )
            # Per-block stamps of the projected line: stored blocks carry
            # the new stamp, everything else keeps the stamp of the data
            # it actually holds (own blocks, fill suppliers, or memory).
            # A window patch must copy these per block — stamping an
            # unmodified block with the new version's stamp would make
            # the T machinery treat old bytes as the newest version.
            projected_stamps = (
                list(own.block_content)
                if own_active
                else [0] * amap.blocks_per_line
            )
            for block in amap.blocks_in_mask(need_mask):
                projected_stamps[block] = stamps[block]
            for block in amap.blocks_in_mask(block_mask):
                projected_stamps[block] = pending_content
        squashed_ranks: List[int] = []
        invalidations = 0
        updates = 0
        visited = 0
        exclusive_ok = True
        blocks_remaining = full
        window_span = (
            telemetry.begin(
                VOL_WALK,
                "invalidation window",
                phase="window",
                start_index=start_index,
            )
            if telemetry is not None
            else None
        )
        for index in range(start_index, len(vol)):
            if not blocks_remaining:
                break
            cache_id = vol[index]
            visited += 1
            if cache_id == requestor:
                raise ProtocolError("requestor encountered in its own window")
            line = entries[cache_id]
            if line.committed:
                raise ProtocolError("committed entry after an active entry")
            overlap = blocks_remaining
            if line.load_mask & overlap & viol_mask:
                # Use-before-definition by a later task: memory
                # dependence violation; squash it and everything after.
                squashed_ranks = system.squash_from_rank(
                    ranks[cache_id], reason="violation"
                )
                break
            if line.load_mask & overlap:
                # A later task legitimately read a block we own or may
                # come to own; its recorded interest forbids silent
                # stores, which would bypass violation detection.
                exclusive_ok = False
            barrier = line.store_mask & overlap
            if line.store_mask or line.load_mask & ~overlap:
                # The entry survives the window (own version blocks, or
                # L state beyond our reach): the line is not exclusive.
                exclusive_ok = False
            patch = overlap & ~line.store_mask
            if patch:
                done_invalidate, done_update = self._apply_window_policy(
                    cache_id, line_addr, line, patch, projected, projected_stamps
                )
                invalidations += done_invalidate
                updates += done_update
                if done_update:
                    # Updated copies stay live downstream; every further
                    # store must go to the bus to re-patch them.
                    exclusive_ok = False
            blocks_remaining &= ~barrier
        if window_span is not None:
            telemetry.end(
                window_span,
                visited=visited,
                invalidations=invalidations,
                updates=updates,
                squashed=len(squashed_ranks),
            )

        # Committed versions are purged when the requestor's own cache
        # holds committed state — the new version needs the way, and the
        # figure-13 semantics order the writebacks. A store elsewhere
        # leaves committed versions resident (figure 12's pre-state).
        flushes = 0
        own_now = cache.line_for(line_addr)
        if own_now is not None and own_now.committed:
            if own_now.dirty:
                flushes += self._purge_committed(line_addr, retain_newest=False)
            own_now = cache.line_for(line_addr)
            if own_now is not None:
                cache.drop(line_addr)
            own_now = None

        if own_active:
            line = own
            for block in amap.blocks_in_mask(need_mask):
                start = block * vbs
                line.data[start : start + vbs] = data[start : start + vbs]
                line.block_content[block] = stamps[block]
            line.valid_mask |= need_mask | full_cover
        else:
            # The fill data is zeros outside ``need_mask``: it is the new
            # line's content as it stands.
            line = SVCLine(
                data=data,
                valid_mask=need_mask | full_cover,
                task_id=my_rank,
            )
            line.ensure_block_stamps(amap.blocks_per_line)
            for block, stamp in stamps.items():
                line.block_content[block] = stamp
            cache.install(line_addr, line)

        cache.apply_store(line, addr, size, value, block_mask)
        for block in amap.blocks_in_mask(block_mask):
            line.block_content[block] = pending_content
        # Version stamp: rank + 1, reserving 0 for copies of the
        # architectural (memory) image so a rank-0 version is
        # distinguishable from a pre-speculation memory copy.
        line.version_seq = my_rank + 1
        line.architectural = (
            system.features.architectural_bit and my_rank == system.head_rank()
        )
        line.written_back = False
        # The X grant additionally requires that no other cache holds
        # valid data for the line *anywhere* in the VOL — not just
        # downstream. A later silent store changes the tail-of-VOL with
        # no bus event to snoop, so an earlier entry's T bit would go
        # stale-while-clear and its eventual committed copy could be
        # wrongly reused (T-clear local reuse reads the old version).
        # Re-read residency: the window walk may have dropped copies.
        line.exclusive = exclusive_ok and all(
            other.valid_mask == 0
            for cid, other in self._snapshot(line_addr)[0].items()
            if cid != requestor
        )

        # Repair before the bus event fires (see bus_read).
        self._finalize(line_addr)
        extra = system.bus.config.commit_flush_extra_cycles * flushes
        transaction = system.bus.reserve(
            now,
            BusRequestKind.WRITE,
            requestor,
            line_addr,
            block_mask,
            cache_to_cache,
            extra,
        )
        end = transaction.end_cycle
        if from_memory:
            end += system.config.miss_penalty_cycles
            system._counters["memory_supplies"] += 1

        outcome = BusOutcome(
            BusRequestKind.WRITE,
            end,
            from_memory,
            cache_to_cache,
            flushes,
            squashed_ranks,
            (),
            invalidations,
            updates,
        )
        return line, outcome

    def _apply_window_policy(
        self,
        cache_id: int,
        line_addr: int,
        line: SVCLine,
        patch: int,
        projected: bytearray,
        projected_stamps: List[int],
    ) -> Tuple[int, int]:
        """Invalidate or update the copy blocks a store made stale.

        Pure invalidate clears the valid bits (the whole line drops when
        nothing useful remains); pure update pushes the new version's
        bytes into the copy, each block keeping the stamp of the data
        it receives; hybrid (section 3.8) updates copies whose task has
        demonstrated interest (any L bit set) and invalidates the rest.
        """
        system = self.system
        policy = system.features.update_policy
        if policy == UpdatePolicy.HYBRID:
            policy = (
                UpdatePolicy.UPDATE if line.load_mask else UpdatePolicy.INVALIDATE
            )
        if policy == UpdatePolicy.UPDATE:
            vbs = system.amap.versioning_block_size
            for block in system.amap.blocks_in_mask(patch):
                start = block * vbs
                line.data[start : start + vbs] = projected[start : start + vbs]
                line.block_content[block] = projected_stamps[block]
            line.valid_mask |= patch
            # The copy now carries speculative data; it must not survive
            # a squash as "architectural".
            line.architectural = False
            system._counters["update_responses"] += 1
            return 0, 1
        line.valid_mask &= ~patch
        system._counters["invalidation_responses"] += 1
        if line.valid_mask == 0 and line.store_mask == 0 and line.load_mask == 0:
            system.caches[cache_id].drop(line_addr)
        return 1, 0

    # -- cast-outs and drain ---------------------------------------------------

    def cast_out(self, cache_id: int, line_addr: int, now: int) -> int:
        """Replace a resident line; dirty lines go over the bus.

        A committed dirty victim triggers a full committed purge of its
        address, which preserves the program-order of writebacks; an
        active dirty victim (legal only for the head task) writes its
        blocks back after any committed versions.
        """
        system = self.system
        cache = system.caches[cache_id]
        line = cache.line_for(line_addr)
        if line is None:
            return now
        if not line.dirty:
            cache.drop(line_addr)
            system._counters["silent_evictions"] += 1
            self._finalize(line_addr)
            return now

        telemetry = system.telemetry
        span = (
            telemetry.begin(
                BUS_TXN,
                f"wback {line_addr:#x}",
                request="wback",
                requestor=cache_id,
                line_addr=line_addr,
                cycle=now,
            )
            if telemetry is not None
            else None
        )
        try:
            flushes = 0
            if line.committed:
                flushes += self._purge_committed(line_addr, retain_newest=False)
            else:
                if system.task_rank(cache_id) != system.head_rank():
                    raise ProtocolError(
                        "only the head task may cast out an active dirty line"
                    )
                flushes += self._purge_committed(line_addr, retain_newest=False)
                self._write_blocks(
                    line_addr, line, line.store_mask & line.valid_mask
                )
                flushes += 1
                cache.drop(line_addr)
            # Repair before the bus event fires (see bus_read).
            self._finalize(line_addr)
            extra = system.bus.config.commit_flush_extra_cycles * max(
                0, flushes - 1
            )
            transaction = system.bus.reserve(
                now, BusRequestKind.WBACK, cache_id, line_addr, extra_cycles=extra
            )
            if span is not None:
                telemetry.end(
                    span, flushes=flushes, end_cycle=transaction.end_cycle
                )
            return transaction.end_cycle
        finally:
            if span is not None:
                # Idempotent when already ended; closes descendants a
                # raise left open.
                telemetry.end(span)

    def drain(self) -> None:
        """End-of-run flush of every committed version to memory."""
        addresses = set()
        for cache in self.system.caches:
            for line_addr, line in cache.lines():
                if line.dirty:
                    if not line.committed:
                        raise ProtocolError(
                            "drain with uncommitted speculative state on "
                            f"cache {cache.cache_id}, line {line_addr:#x}"
                        )
                    addresses.add(line_addr)
        for line_addr in sorted(addresses):
            self._purge_committed(line_addr, retain_newest=False)
        for cache in self.system.caches:
            cache.flash_invalidate_all()
