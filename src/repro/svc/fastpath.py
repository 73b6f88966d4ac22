"""Persistent holder/VOL snapshots for the VCL's bus path.

:class:`FastpathKernel` is the VCL's snapshot store. The expensive
derived state of a line — its holder snapshot in canonical (ascending
cache id) order and the reconstructed Version Ordering List — lives
across bus transactions in :attr:`_snaps` and is *maintained
incrementally* at exactly the points where the object model changes
anything the snapshot depends on:

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
_fresh_snapshot`, one ``line_for`` per cache. Everything *else*
the protocol does to a line — L/S/valid mask updates, byte writes,
content stamps, X/T/A bits, pointer repair — leaves VOL membership and
order untouched, so the snapshot stays valid and the next transaction
on the line pays **zero** snoops and zero ``build_vol`` calls. The
``SVCLine`` objects remain the source of truth for per-line *bits* (the
snapshot holds references, not copies), which is what makes the narrow
hook set sufficient: only membership, the C bit, committed
``version_seq`` order and the rank map can reorder a VOL, and each of
those has exactly one mutation point, all hooked.

The VCL reads every snapshot through :meth:`acquire`
(``VersionControlLogic._snapshot``): its snoop, committed purge, snarf
loop, X-bit grants and VOL repair. A bus transaction therefore
resolves against the one snapshot its snoop acquired, carried forward
by the install and drop hooks, with no rebuild unless a flash wave or
a reactivation invalidated the line in between.

Invariants
----------

1. **Snapshot freshness.** A cached ``(entries, vol)`` snapshot is
   bit-equal to what a fresh read of the cache arrays plus
   ``build_vol`` would produce, at every moment it is served.
   :meth:`audit` re-derives every cached snapshot from the arrays and
   raises on the first divergence; :meth:`repro.svc.system.SVCSystem.
   verify` runs it, and tests/svc/test_fastpath.py runs it at every
   event the runtime invariant checker audits and plants each kind of
   desync it must catch.
2. **Canonical snapshot order, immutable snapshots.** Cached snapshots
   are always in ascending cache-id order (the order ``_entries``
   reads the arrays in). The hooks build a new dict and a new VOL list
   instead of mutating the cached ones, because transaction code still
   holds the snapshot its snoop acquired.

docs/PERFORMANCE.md documents the snapshot lifecycle and the measured
effect; docs/ARCHITECTURE.md places the store in the subsystem map.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import ProtocolError
from repro.svc.line import SVCLine
from repro.svc.vol import build_vol


class FastpathKernel:
    """The persistent ``(entries, vol)`` snapshot of every warm line."""

    __slots__ = ("vcl", "system", "_snaps", "snap_builds")

    def __init__(self, vcl) -> None:
        self.vcl = vcl
        self.system = vcl.system
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
        objects replace the cached ones (invariant 2). Anything else
        (a committed install, a holder already recorded, a cache with no
        task) drops the snapshot, so the next :meth:`acquire` rebuilds
        it from the arrays, and ``build_vol`` raises there if an active
        line has no task.
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
        ``SVCLine`` state (invariant 1, snapshot freshness;
        ``SVCSystem.verify()`` runs this audit).

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


__all__ = ["FastpathKernel"]
