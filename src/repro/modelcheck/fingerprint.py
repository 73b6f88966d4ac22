"""Canonical state fingerprints for duplicate-schedule pruning.

Two schedule prefixes that land the system in the same state have
identical futures, so the explorer only needs each state once. "Same
state" must mean *observationally* same, so the fingerprint canonicalizes
everything the protocol cannot observe under the model-check geometry
(which guarantees zero replacements):

* LRU order inside a set is excluded — with no replacements it can
  never influence an outcome,
* content stamps (``version_seq``, ``block_content``, memory stamps) are
  renamed by first appearance — stamps only ever feed equality
  comparisons, so the allocation counter's absolute values are noise,
* invalid blocks' data bytes are zeroed — the protocol never reads them.

Scheduler progress (per-task op index, executions, commit state and the
PU assignment) is folded in as well: two identical memory states with
different remaining work are of course different nodes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class _StampRenamer:
    """Injective first-appearance renaming of content stamps.

    Stamp 0 is the "never written" sentinel in both the line blocks and
    the memory stamp table, so it stays fixed.
    """

    def __init__(self) -> None:
        self._map: Dict[int, int] = {0: 0}

    def __call__(self, stamp: int) -> int:
        renamed = self._map.get(stamp)
        if renamed is None:
            renamed = len(self._map)
            self._map[stamp] = renamed
        return renamed


def _progress_key(driver) -> Tuple:
    return tuple(
        (s.pu, s.op_index, tuple(s.observed_loads), s.committed)
        for s in driver.tasks
    )


def _masked_data(data, valid_mask: int, block_masks: List[Tuple[int, int]]) -> bytes:
    """Line data with every invalid block's bytes forced to zero."""
    out = bytearray(data)
    for block_mask, (start, stop) in block_masks:
        if not valid_mask & block_mask:
            for i in range(start, stop):
                out[i] = 0
    return bytes(out)


def _svc_fingerprint(system, driver) -> Tuple:
    rename = _StampRenamer()
    block = system.geometry.versioning_block_size
    block_masks = [
        (1 << i, (i * block, (i + 1) * block))
        for i in range(system.amap.blocks_per_line)
    ]
    caches = []
    for cache in system.caches:
        lines = []
        for line_addr, line in sorted(cache.lines()):
            lines.append(
                (
                    line_addr,
                    _masked_data(line.data, line.valid_mask, block_masks),
                    line.valid_mask,
                    line.store_mask,
                    line.load_mask,
                    line.committed,
                    line.stale,
                    line.architectural,
                    line.exclusive,
                    line.task_id,
                    line.written_back,
                    rename(line.version_seq),
                    tuple(rename(s) for s in line.block_content),
                )
            )
        caches.append((cache.current_task, tuple(lines)))
    memory = tuple(sorted(system.memory.image().items()))
    mem_stamps = tuple(
        (addr, tuple(rename(s) for s in stamps))
        for addr, stamps in sorted(system.vcl._memory_stamps.items())
        if any(stamps)
    )
    return ("svc", _progress_key(driver), system._committed_through,
            tuple(caches), memory, mem_stamps)


def _arb_fingerprint(system, driver) -> Tuple:
    rows = []
    for word_addr, row in sorted(system.buffer._rows.items()):
        entries = tuple(
            (rank, e.load_mask, e.store_mask,
             bytes(b if (e.store_mask >> i) & 1 else 0
                   for i, b in enumerate(e.data)))
            for rank, e in sorted(row.entries.items())
            if not e.empty
        )
        if entries:
            rows.append((word_addr, entries))
    dcache = tuple(
        (line_addr, bytes(line.data), line.dirty)
        for line_addr, line in sorted(system.data_cache.array.lines())
    )
    units = tuple(sorted(system._task_of_unit.items()))
    memory = tuple(sorted(system.memory.image().items()))
    return ("arb", _progress_key(driver), system._committed_through,
            units, tuple(rows), dcache, memory)


def fingerprint(system, driver) -> Tuple:
    """A hashable canonical key for (system state, the driver's
    schedule progress)."""
    if hasattr(system, "vcl"):
        return _svc_fingerprint(system, driver)
    if hasattr(system, "buffer"):
        return _arb_fingerprint(system, driver)
    raise TypeError(f"cannot fingerprint {type(system).__name__}")
