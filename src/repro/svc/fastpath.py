"""Persistent columnar protocol engine for the hot VCL bus path.

:class:`FastpathKernel` is the structure-of-arrays fast path behind
``SVCConfig.use_fastpath``. The expensive derived state of a line — its
holder snapshot in canonical (ascending cache id) order and the
reconstructed Version Ordering List — lives across bus transactions in
:attr:`_snaps` and is *maintained incrementally* at exactly the points
where the object model changes anything the columns depend on:

* install and drop (residency changes) update the snapshot in place:
  :meth:`on_install` joins an active line to the holder dict and the
  VOL, :meth:`on_drop` takes a holder out of both, and the snapshot
  goes when its last holder leaves;
* flash commit, flash squash and flash invalidate (C-bit waves and
  rank retirement) invalidate the snapshot, and so do the local
  reactivation paths in ``probe_load`` / ``probe_store`` (a passive
  line silently turning active). These reorder the committed prefix.

:class:`repro.svc.cache.SVCCache` calls the hooks from those points.
The snapshot is the only holder index the SVC keeps: a rebuild reads
the cache arrays through :meth:`repro.svc.vcl.VersionControlLogic.
_entries`, one ``line_for`` per cache. Everything *else*
the protocol does to a line — L/S/valid mask updates, byte writes,
content stamps, X/T/A bits, pointer repair — leaves VOL membership and
order untouched, so the snapshot stays valid and the next transaction
on the line pays **zero** snoops and zero ``build_vol`` calls. The
``SVCLine`` objects remain the source of truth for per-line *bits* (the
snapshot holds references, not copies), which is what makes the narrow
hook set sufficient: only membership, the C bit, committed
``version_seq`` order and the rank map can reorder a VOL, and each of
those has exactly one mutation point, all hooked.

On top of the persistent columns the kernel keeps the fused kernels —
stamp-compare snarfing and one-pass VOL repair — both fed from
:meth:`acquire`, as are the VCL's snoop, committed purge and X-bit
grants (through ``VersionControlLogic._snapshot``). A bus transaction
(snoop, committed purge, fill install, snarfs, X grant and final
repair) therefore resolves
against the one snapshot its snoop acquired, carried forward by the
install and drop hooks, with no rebuild unless a flash wave or a
reactivation invalidated the line in between.

Invariants
----------

1. **Observable equivalence.** With ``SVCConfig.use_fastpath`` off, the
   VCL runs the original per-line object model (the executable
   reference specification); with it on, every event stream, statistics
   snapshot, committed load value and final memory image must be
   byte-identical. Enforced by :mod:`repro.harness.differential`
   across all six design tiers with fault plans,
   and by the conformance corpus pinning default-configuration event
   streams.
2. **Snapshot freshness.** A cached ``(entries, vol)`` snapshot is
   bit-equal to what a fresh read of the cache arrays plus
   ``build_vol`` would produce, at every moment it is served.
   :meth:`audit` re-derives every cached snapshot from the arrays and
   raises on the first divergence; :meth:`repro.svc.system.SVCSystem.
   verify` runs it, and tests/svc/test_fastpath.py runs it at every
   event the runtime invariant checker audits and plants each kind of
   desync it must catch.
3. **Stamps name exact data states.** The stamp-compare snarf accept is
   sound because a content stamp is allocated globally (one per store,
   :meth:`repro.svc.system.SVCSystem.next_content_seq`) and written
   back alongside the bytes it stamps — equal stamps at the same
   (line, block) imply equal bytes. When a candidate's stamps do *not*
   match, the kernel falls back to the reference byte composition and
   comparison, so stamp mismatches can only cost time, never
   correctness (tests/svc/test_fastpath.py pins the fallback).
4. **Canonical snapshot order, immutable snapshots.** Cached snapshots
   are always in ascending cache-id order (the order ``_entries``
   reads the arrays in). The hooks build a new dict and a new VOL list
   instead of mutating the cached ones, because transaction code still
   holds the snapshot its snoop acquired. The snarf loop's own holder
   dict keeps the reference loop's *insertion* order (each snarfed copy
   appended last): clean-supplier selection takes the first match in
   dict order (:func:`repro.svc.vol.clean_supplier`), so it must see
   exactly the iteration order the reference path sees.

docs/PERFORMANCE.md documents the column lifecycle and the measured
effect; docs/ARCHITECTURE.md places the engine in the subsystem map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.svc.line import SVCLine
from repro.svc.vol import (
    CACHE,
    CLEAN,
    MEMORY,
    build_vol,
    check_invariants,
    supply_sources,
)
from repro.telemetry import VOL_WALK


class FastpathKernel:
    """Persistent SoA columns + fused kernels behind ``use_fastpath``."""

    __slots__ = (
        "vcl",
        "system",
        "_vcl_module",
        "_full_mask",
        "_n_blocks",
        "_blocks_in_mask",
        "_snaps",
        "snap_builds",
    )

    def __init__(self, vcl) -> None:
        # The pointer rewrite is a deliberate seam: the checker's
        # seeded-bug drill patches ``repro.svc.vcl.rewrite_pointers``,
        # and both paths must break identically when it is broken, so
        # :meth:`finalize` looks it up on the module at every call.
        import repro.svc.vcl as vcl_module

        self._vcl_module = vcl_module
        self.vcl = vcl
        self.system = vcl.system
        amap = self.system.amap
        self._full_mask = amap.full_mask
        self._n_blocks = amap.blocks_per_line
        self._blocks_in_mask = amap.blocks_in_mask
        #: Persistent columns: line_addr -> (entries, vol). ``entries``
        #: is the canonical ascending-cache-id holder snapshot, ``vol``
        #: the reconstructed ordering. Only *valid* snapshots are kept;
        #: the maintenance hooks below replace or pop them on any
        #: order-relevant change.
        self._snaps: Dict[int, Tuple[Dict[int, SVCLine], List[int]]] = {}
        #: Snapshot rebuilds so far; never consulted by protocol logic
        #: (tests/svc/test_fastpath.py reads it to pin that installs and
        #: drops maintain snapshots instead of forcing rebuilds).
        self.snap_builds = 0
        # Register for incremental maintenance: caches notify on every
        # residency or activation change.
        for cache in self.system.caches:
            cache.engine = self

    # -- persistent column maintenance ---------------------------------------

    def invalidate(self, line_addr: int) -> None:
        """Drop the cached columns of one line (C-bit or rank-relevant
        change: a local reactivation)."""
        self._snaps.pop(line_addr, None)

    def invalidate_many(self, line_addrs) -> None:
        """Drop cached columns for many lines (flash commit/squash)."""
        pop = self._snaps.pop
        for line_addr in line_addrs:
            pop(line_addr, None)

    def on_install(self, cache_id: int, line_addr: int, line: SVCLine) -> None:
        """Join a newly installed line to the line's cached snapshot.

        An active line enters the holder dict in ascending cache-id
        order and the VOL after the committed prefix and after every
        older task — where a fresh ``build_vol`` would put it. New
        objects replace the cached ones (invariant 4). Anything else
        (a committed install, a holder already recorded, a cache with no
        task) drops the snapshot, so the next :meth:`acquire` rebuilds
        it and raises exactly where the reference path would.
        """
        snaps = self._snaps
        snap = snaps.get(line_addr)
        if snap is None:
            return
        entries, vol = snap
        ranks = self.system._active_ranks
        rank = ranks.get(cache_id)
        if line.committed or rank is None or cache_id in entries:
            del snaps[line_addr]
            return
        holders = {**entries, cache_id: line}
        new_vol = list(vol)
        new_vol.insert(
            self.vcl._insertion_index(vol, entries, ranks, rank), cache_id
        )
        snaps[line_addr] = ({cid: holders[cid] for cid in sorted(holders)}, new_vol)

    def on_drop(self, cache_id: int, line_addr: int) -> None:
        """Take a dropped holder out of the line's cached snapshot (and
        the snapshot itself when its last holder leaves)."""
        snaps = self._snaps
        snap = snaps.get(line_addr)
        if snap is None:
            return
        entries, vol = snap
        if len(entries) <= 1 or cache_id not in entries:
            del snaps[line_addr]
            return
        snaps[line_addr] = (
            {cid: held for cid, held in entries.items() if cid != cache_id},
            [cid for cid in vol if cid != cache_id],
        )

    def acquire(self, line_addr: int) -> Tuple[Dict[int, SVCLine], List[int]]:
        """The ``(entries, vol)`` columns for one line.

        Serves the persistent snapshot unless a hook has invalidated it;
        otherwise rebuilds it once — in canonical ascending cache-id
        order — and re-caches it. The returned dict and list are shared
        protocol-wide and must never be mutated: the hooks replace them
        with new objects instead.
        """
        snap = self._snaps.get(line_addr)
        if snap is not None:
            return snap
        snap = self.vcl._fresh_snapshot(line_addr)
        self._snaps[line_addr] = snap
        self.snap_builds += 1
        return snap

    def audit(self) -> None:
        """Cross-check every cached column set against the materialized
        ``SVCLine`` state (the new ``--verify`` invariant).

        Re-derives each snapshot the slow way — a fresh
        :meth:`~repro.svc.vcl.VersionControlLogic._entries` read of the
        arrays and a fresh ``build_vol`` — and requires the cached
        version to hold the *same line objects* under the same cache ids
        in the same canonical order, with the identical VOL. A stale
        snapshot would let a snoop resolve against yesterday's ordering,
        so any divergence is a protocol violation, not a cache miss.
        """
        ranks = self.system._active_ranks
        for line_addr, (entries, vol) in self._snaps.items():
            actual = self.vcl._entries(line_addr)
            if list(entries) != list(actual):
                raise ProtocolError(
                    f"fastpath column desync for {line_addr:#x}: cached "
                    f"holders {list(entries)} vs arrays {list(actual)}"
                )
            for cache_id, line in actual.items():
                if entries[cache_id] is not line:
                    raise ProtocolError(
                        f"fastpath column for {line_addr:#x} cache "
                        f"{cache_id} tracks a different line object than "
                        "the array holds"
                    )
            if build_vol(actual, ranks) != vol:
                raise ProtocolError(
                    f"fastpath VOL column for {line_addr:#x} is {vol} but "
                    f"a fresh reconstruction orders {build_vol(actual, ranks)}"
                )

    # -- supply plans --------------------------------------------------------

    def supply_plan(
        self,
        line_addr: int,
        entries: Dict[int, SVCLine],
        vol: List[int],
        position: int,
    ) -> Tuple[Dict[int, Tuple[str, Optional[int]]], List[int]]:
        """Per-block (supplier, stamp) columns for a full-line fill at
        ``position`` — the metadata half of :meth:`VersionControlLogic.
        _compose`, with no byte movement and no memory reads."""
        memory_stamps = self.vcl.memory_stamps_for(line_addr)
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
        """The VOL_WALK span the reference ``_compose`` would have
        emitted for this candidate, so traces keep the same shape on
        both paths."""
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

    # -- snarf ---------------------------------------------------------------

    def snarf(
        self,
        requestor: int,
        line_addr: int,
        new_line: SVCLine,
        ranks: Dict[int, int],
    ) -> List[int]:
        """HR-design snarfing with stamp-compare accept.

        Observably identical to the reference loop in
        :meth:`VersionControlLogic._snarf`: the same candidates are
        visited in the same order and the same copies are installed with
        the same bits. Only the *mechanism* differs — a candidate whose
        supply-plan stamps equal the bus line's stamps is accepted
        without composing a byte buffer (invariant 3 in the module
        docstring), and plans are memoized per insertion position until
        an install changes the VOL.
        """
        system = self.system
        vcl = self.vcl
        telemetry = system.telemetry
        counters = system._counters
        snarfed: List[int] = []
        entries, vol = self.acquire(line_addr)
        plans: Dict[int, Tuple[Dict[int, Tuple[str, Optional[int]]], List[int]]] = {}
        for cache in system.caches:
            cid = cache.cache_id
            # ``entries`` names exactly the caches holding the line
            # (invariant 2, plus each copy installed below), so holders
            # are skipped without probing their arrays.
            if cid in entries or cache.current_task is None:
                continue
            if not cache.array.has_free_way(line_addr):
                continue
            position = vcl._insertion_index(vol, entries, ranks, ranks[cid])
            plan = plans.get(position)
            if plan is None:
                plan = self.supply_plan(line_addr, entries, vol, position)
                plans[position] = plan
            suppliers, stamps = plan
            if stamps == new_line.block_content:
                data = new_line.data
                if telemetry is not None:
                    self._emit_supply_span(telemetry, position, suppliers)
            else:
                data, suppliers, stamp_map = vcl._compose(
                    line_addr, entries, vol, position, self._full_mask
                )
                if bytes(data) != bytes(new_line.data):
                    continue
                stamps = [stamp_map.get(b, 0) for b in range(self._n_blocks)]
            vcl._clear_supplier_exclusivity(entries, suppliers)
            vcl._revoke_other_exclusivity(entries, cid)
            copy = SVCLine(
                data=bytearray(data),
                valid_mask=self._full_mask,
                architectural=vcl._suppliers_architectural(
                    suppliers, entries, ranks
                ),
                version_seq=new_line.version_seq,
                block_content=list(stamps),
                task_id=ranks[cid],
            )
            # The install hook carries the cached snapshot forward in
            # canonical order; the loop's own dict appends the copy last,
            # exactly like the reference loop (invariant 4), and is a new
            # object so no snapshot anyone holds is mutated.
            cache.install(line_addr, copy)
            entries = {**entries, cid: copy}
            vol = self.acquire(line_addr)[1]
            plans.clear()
            snarfed.append(cid)
            counters["snarfs"] += 1
        return snarfed

    # -- fused VOL repair ----------------------------------------------------

    def finalize(self, line_addr: int) -> None:
        """Pointer rewrite + T-bit refresh in one backward VOL pass.

        Matches :meth:`VersionControlLogic._finalize_impl` exactly:
        pointers mirror the rebuilt VOL, tail stamps are the newest
        ``store_mask & valid_mask`` writer of each block (else the
        memory stamp), and a line is stale iff any valid block's stamp
        differs from the tail stamp. Runs against :meth:`acquire`, so a
        transaction that changed nothing order-relevant repairs against
        the persistent columns with no rebuild at all — and leaves the
        rebuilt snapshot cached for the next transaction on the line.
        """
        vcl = self.vcl
        system = self.system
        entries, vol = self.acquire(line_addr)
        ranks = system._active_ranks
        # Late-bound through the vcl module namespace (see __init__).
        vcl_module = self._vcl_module

        if len(vol) == 1:
            # Sole-holder fast path: the pointer is trivially None and
            # the tail stamps collapse to "own written blocks over the
            # memory image", so staleness reduces to any valid,
            # unwritten block diverging from the memory stamp.
            only = entries[vol[0]]
            vcl_module.rewrite_pointers(entries, vol)
            if system.features.stale_bit:
                memory_stamps = vcl.memory_stamps_for(line_addr)
                content = only.block_content
                stale = False
                for block in self._blocks_in_mask(
                    only.valid_mask & ~only.store_mask
                ):
                    if content[block] != memory_stamps[block]:
                        stale = True
                        break
                only.stale = stale
            if system.config.check_invariants:
                check_invariants(
                    entries,
                    vol,
                    ranks,
                    vcl.memory_stamps_for(line_addr),
                    check_stale=system.features.stale_bit,
                )
            return

        vcl_module.rewrite_pointers(entries, vol)

        if system.features.stale_bit:
            blocks_in_mask = self._blocks_in_mask
            tail = list(vcl.memory_stamps_for(line_addr))
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

        if system.config.check_invariants:
            check_invariants(
                entries,
                vol,
                ranks,
                vcl.memory_stamps_for(line_addr),
                check_stale=system.features.stale_bit,
            )


__all__ = ["FastpathKernel"]
