"""Version Ordering List construction, search and repair.

The VOL of a line is the program order among its copies and versions
(paper section 2.3). Physically it is a pointer chain through the lines;
logically, on every bus request the VCL reconstructs it from the snooped
states plus the task-assignment order, exactly as the paper's VCL does:

* **committed entries** (C set) form a prefix. Committed *versions*
  (passive dirty) are ordered by the version sequence stamp — the
  functional equivalent of the pointer-chain order, robust to holes that
  silent evictions of clean lines punch in the chain. Committed *copies*
  (passive clean) carry no ordering obligation (they never supply data or
  receive writeback order); they are placed after the committed versions.
* **active entries** (C clear) are ordered by the current task rank of
  the PU owning each cache — the "implicit total order among the PUs"
  the paper derives from task assignment.

After each bus request the VCL rewrites every line's pointer to mirror the
reconstructed order, which is how the paper's ECS design repairs dangling
pointers after squashes (Figure 17).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.svc.line import SVCLine

#: Where a fill block comes from (:func:`supply_sources`).
MEMORY = "memory"
CACHE = "cache"  # a version supplied speculative data
CLEAN = "clean"  # another cache supplied an architectural copy


def build_vol(
    entries: Dict[int, SVCLine],
    task_rank_of_cache: Dict[int, int],
) -> List[int]:
    """Reconstruct the logical VOL order for one line address.

    Parameters
    ----------
    entries:
        ``cache_id -> line`` for every cache currently holding the line,
        in ascending cache id (as every holder read passes them).
    task_rank_of_cache:
        ``cache_id -> rank`` of the task currently assigned to each PU;
        smaller rank means older in program order. Caches holding only
        committed state need not appear.

    Returns
    -------
    Cache ids in VOL order (oldest first): committed versions by version
    stamp, tied stamps in ascending cache id; then committed copies, by
    the stamp of the version they copied (0 for architectural copies)
    and cache id, since their order is immaterial; then active entries
    by task rank. Each entry is keyed by a ``(group, stamp or rank,
    cache_id)`` tuple, so one native sort orders them all and a sole
    holder is not sorted.
    """
    keys = []
    for cache_id, line in entries.items():
        if line.committed:
            keys.append((0 if line.store_mask else 1, line.version_seq, cache_id))
        elif cache_id in task_rank_of_cache:
            keys.append((2, task_rank_of_cache[cache_id], cache_id))
        else:
            raise ProtocolError(
                f"cache {cache_id} holds an active line but runs no task"
            )
    if len(keys) == 1:
        return [keys[0][2]]
    keys.sort()
    return [key[2] for key in keys]


def rewrite_pointers(entries: Dict[int, SVCLine], vol: List[int]) -> None:
    """Make every line's pointer name its VOL successor (repair step)."""
    successor = None
    for cache_id in reversed(vol):
        entries[cache_id].pointer = successor
        successor = cache_id


def closest_previous_writer(
    entries: Dict[int, SVCLine],
    vol: List[int],
    position: int,
    block: int,
) -> Optional[int]:
    """Cache id of the closest previous version of ``block`` before VOL
    index ``position``, or ``None`` when memory must supply it.

    Only an entry with the S bit set *and* valid data for the block can
    supply it; an entry whose block was invalidated by a forward store
    cannot (its data there is a hole).
    """
    bit = 1 << block
    for index in range(position - 1, -1, -1):
        line = entries[vol[index]]
        if line.store_mask & bit and line.valid_mask & bit:
            return vol[index]
    return None


def clean_supplier(
    entries: Dict[int, SVCLine],
    block: int,
    memory_stamps: List[int],
) -> Optional[int]:
    """A cache able to supply ``block`` as a clean (architectural) copy.

    Any resident line whose block carries the same content stamp as the
    bytes last written back to memory holds exactly the architectural
    data — the cache-to-cache transfer of read-only data the paper
    mentions in section 3.8.1. Position in the VOL is irrelevant:
    the data equals memory's.
    """
    bit = 1 << block
    for cache_id, line in entries.items():
        if line.valid_mask & bit and line.block_content[block] == memory_stamps[block]:
            return cache_id
    return None


def supply_sources(
    entries: Dict[int, SVCLine],
    vol: List[int],
    position: int,
    need_mask: int,
    memory_stamps: List[int],
) -> Dict[int, Tuple[str, Optional[int]]]:
    """The supplier of every block in ``need_mask`` for a fill at VOL
    index ``position``, in ascending block order: ``(CACHE, writer)``
    from the closest previous version that wrote the block, else
    ``(CLEAN, cache)`` from a copy holding memory's data, else
    ``(MEMORY, None)``.

    Block by block this is :func:`closest_previous_writer`, then
    :func:`clean_supplier`; here all blocks share one backward VOL walk
    and at most one pass over ``entries``, each stopping once every
    block it looks for is found.
    """
    writers: Dict[int, int] = {}
    remaining = need_mask
    for index in range(position - 1, -1, -1):
        if not remaining:
            break
        cache_id = vol[index]
        line = entries[cache_id]
        writes = line.store_mask & line.valid_mask & remaining
        if writes:
            remaining &= ~writes
            block = 0
            while writes:
                if writes & 1:
                    writers[block] = cache_id
                writes >>= 1
                block += 1
    # ``remaining`` now holds the blocks no version supplies; the first
    # entry (in ``entries`` order) with memory's stamp for one supplies it.
    cleans: Dict[int, int] = {}
    for cache_id, line in entries.items():
        if not remaining:
            break
        candidates = line.valid_mask & remaining
        content = line.block_content
        block = 0
        while candidates:
            if candidates & 1 and content[block] == memory_stamps[block]:
                cleans[block] = cache_id
                remaining &= ~(1 << block)
            candidates >>= 1
            block += 1
    sources: Dict[int, Tuple[str, Optional[int]]] = {}
    mask, block = need_mask, 0
    while mask:
        if mask & 1:
            if block in writers:
                sources[block] = (CACHE, writers[block])
            elif block in cleans:
                sources[block] = (CLEAN, cleans[block])
            else:
                sources[block] = (MEMORY, None)
        mask >>= 1
        block += 1
    return sources

