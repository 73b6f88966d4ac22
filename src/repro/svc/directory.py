"""Line-granular version directory: snoop filtering for the VCL.

The seed implementation resolved every bus request by brute force —
``for cache in self.system.caches: cache.line_for(line_addr)`` — an
O(n_caches × lookup) broadcast snoop per transaction, repeated several
times per request (fill composition, purge, exclusivity checks, VOL
repair). Directory-style filtering of broadcast snoops is the classic
fix: keep, per line address, the set of caches that currently hold the
line, and consult only those.

:class:`VersionDirectory` is that filter. It maps ``line_addr ->
{cache_id: SVCLine}`` and is maintained *incrementally* at the only
points where residency changes — :meth:`repro.svc.cache.SVCCache.install`,
:meth:`~repro.svc.cache.SVCCache.drop` and the flash squash/invalidate
paths — so a snapshot costs O(holders) instead of O(n_caches × ways).
The line *objects* are shared with the cache arrays, so per-line bits
(C, T, A, X, masks) read through the directory are always current; only
residency needs explicit bookkeeping.

The directory is a pure accelerator: :class:`repro.svc.vcl.
VersionControlLogic` falls back to the brute-force scan when
``SVCConfig.use_directory`` is off, and the two paths are required to be
*byte-identical* in observable behaviour (event streams, stats, memory
images) — enforced by :mod:`repro.harness.differential` and the
property tests. In the spirit of RealityCheck, the fast path is
verified against the slow path rather than trusted:
:meth:`VersionDirectory.audit_holders` cross-checks the directory
against a holder map read from the cache arrays in one pass.
:meth:`repro.svc.system.SVCSystem.verify` builds that map with
:func:`scan_holders`; the runtime :class:`repro.check.InvariantChecker`
builds it with :func:`scan_cache`, in the same pass that collects each
cache's uncommitted lines. :meth:`VersionDirectory.audit` scans and
compares in one call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.svc.line import SVCLine


class VersionDirectory:
    """Incrementally maintained map of line address -> holder set."""

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        #: line_addr -> {cache_id: line}. Holder dicts are keyed by
        #: cache id; :meth:`entries` returns them in ascending cache-id
        #: order, matching the brute-force scan's iteration order so the
        #: two paths are observably identical.
        self._holders: Dict[int, Dict[int, SVCLine]] = {}

    # -- maintenance (called from SVCCache at every residency change) -------

    def on_install(self, cache_id: int, line_addr: int, line: SVCLine) -> None:
        holders = self._holders.get(line_addr)
        if holders is None:
            holders = {}
            self._holders[line_addr] = holders
        holders[cache_id] = line

    def on_drop(self, cache_id: int, line_addr: int) -> None:
        holders = self._holders.get(line_addr)
        if holders is None or cache_id not in holders:
            raise ProtocolError(
                f"directory desync: cache {cache_id} dropped line "
                f"{line_addr:#x} it was never recorded as holding"
            )
        del holders[cache_id]
        if not holders:
            del self._holders[line_addr]

    def on_clear(self, cache_id: int, line_addrs: Iterable[int]) -> None:
        """Flash invalidate: one cache drops every listed line at once."""
        for line_addr in line_addrs:
            self.on_drop(cache_id, line_addr)

    # -- queries -------------------------------------------------------------

    def entries(self, line_addr: int) -> Dict[int, SVCLine]:
        """Fresh ``{cache_id: line}`` snapshot for one line, ascending by
        cache id (callers mutate the returned dict)."""
        holders = self._holders.get(line_addr)
        if not holders:
            return {}
        if len(holders) == 1:
            return dict(holders)
        return {cid: holders[cid] for cid in sorted(holders)}

    def holder_map(self, line_addr: int) -> Optional[Dict[int, SVCLine]]:
        """The *internal* holder dict for one line, or ``None``.

        Zero-copy accessor for the fastpath kernel's residency checks;
        callers must treat the result as read-only.
        """
        return self._holders.get(line_addr)

    def holder_ids(self, line_addr: int) -> List[int]:
        holders = self._holders.get(line_addr)
        return sorted(holders) if holders else []

    def __len__(self) -> int:
        return len(self._holders)

    def __iter__(self) -> Iterator[Tuple[int, Dict[int, SVCLine]]]:
        return iter(self._holders.items())

    # -- verification --------------------------------------------------------

    def audit(self, caches) -> None:
        """Differential check of the fast path against the slow path.

        Rebuilds the holder map by brute-force scan of every cache array
        (:func:`scan_holders`) and compares it with the directory
        (:meth:`audit_holders`).
        """
        self.audit_holders(scan_holders(caches))

    def audit_holders(self, actual: Dict[int, Dict[int, SVCLine]]) -> None:
        """Compare the directory with ``actual``, a holder map read from
        the cache arrays, and raise :class:`ProtocolError` on the first
        disagreement — a missing holder would let a snoop skip a cache
        that holds the line (an undetected violation), a phantom holder
        would corrupt VOL construction.
        """
        recorded_map = self._holders
        if actual.keys() != recorded_map.keys():
            missing = sorted(actual.keys() - recorded_map.keys())
            phantom = sorted(recorded_map.keys() - actual.keys())
            raise ProtocolError(
                "version directory address set diverged from the cache "
                f"arrays (missing={list(map(hex, missing))}, "
                f"phantom={list(map(hex, phantom))})"
            )
        for line_addr, holders in actual.items():
            recorded = recorded_map[line_addr]
            if holders.keys() != recorded.keys():
                raise ProtocolError(
                    f"version directory holder set for {line_addr:#x} is "
                    f"{sorted(recorded)} but the arrays hold "
                    f"{sorted(holders)}"
                )
            for cache_id, line in holders.items():
                if recorded[cache_id] is not line:
                    raise ProtocolError(
                        f"version directory for {line_addr:#x} cache "
                        f"{cache_id} tracks a different line object than "
                        "the array holds"
                    )


def scan_cache(cache, holders: Dict[int, Dict[int, SVCLine]]) -> Dict[int, SVCLine]:
    """One pass over ``cache``'s array: record every resident line in
    ``holders`` (``line_addr -> {cache_id: line}``) and return the
    cache's uncommitted lines as ``{line_addr: line}``."""
    cache_id = cache.cache_id
    active: Dict[int, SVCLine] = {}
    for line_addr, line in cache.lines():
        if not line.committed:
            active[line_addr] = line
        held = holders.get(line_addr)
        if held is None:
            holders[line_addr] = {cache_id: line}
        else:
            held[cache_id] = line
    return active


def scan_holders(caches) -> Dict[int, Dict[int, SVCLine]]:
    """The brute-force holder map: one pass over every cache array.
    Each holder dict is ascending by cache id when ``caches`` is, as the
    system's cache list is."""
    holders: Dict[int, Dict[int, SVCLine]] = {}
    for cache in caches:
        scan_cache(cache, holders)
    return holders
