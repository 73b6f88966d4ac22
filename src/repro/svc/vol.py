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
        ``cache_id -> line`` for every cache currently holding the line.
    task_rank_of_cache:
        ``cache_id -> rank`` of the task currently assigned to each PU;
        smaller rank means older in program order. Caches holding only
        committed state need not appear.

    Returns
    -------
    Cache ids in VOL order (oldest first).
    """
    committed_versions = []
    committed_copies = []
    active = []
    for cache_id, line in entries.items():
        if line.committed:
            if line.dirty:
                committed_versions.append(cache_id)
            else:
                committed_copies.append(cache_id)
        else:
            if cache_id not in task_rank_of_cache:
                raise ProtocolError(
                    f"cache {cache_id} holds an active line but runs no task"
                )
            active.append(cache_id)

    committed_versions.sort(key=lambda cid: entries[cid].version_seq)
    # Committed copies: order is immaterial; keep deterministic by the
    # sequence of the version they copied (0 for architectural copies).
    committed_copies.sort(key=lambda cid: (entries[cid].version_seq, cid))
    active.sort(key=lambda cid: task_rank_of_cache[cid])
    return committed_versions + committed_copies + active


def rewrite_pointers(entries: Dict[int, SVCLine], vol: List[int]) -> None:
    """Make every line's pointer name its VOL successor (repair step)."""
    successor = None
    for cache_id in reversed(vol):
        entries[cache_id].pointer = successor
        successor = cache_id


def last_version_index(entries: Dict[int, SVCLine], vol: List[int]) -> Optional[int]:
    """Index in ``vol`` of the most recent version, or ``None`` if no
    cache holds a version (all entries are copies)."""
    for index in range(len(vol) - 1, -1, -1):
        if entries[vol[index]].dirty:
            return index
    return None


def tail_stamps(
    entries: Dict[int, SVCLine],
    vol: List[int],
    memory_stamps: List[int],
) -> List[int]:
    """The per-block content stamps a brand-new tail task's fill would
    receive: the closest previous writer's stamp for each block, falling
    back to the stamp of the bytes last written back to memory."""
    n_blocks = len(memory_stamps)
    stamps = list(memory_stamps)
    for block in range(n_blocks):
        writer = closest_previous_writer(entries, vol, len(vol), block)
        if writer is not None:
            stamps[block] = entries[writer].block_content[block]
    return stamps


def is_fresh(line: SVCLine, tail: List[int]) -> bool:
    """Whether every valid block of ``line`` holds the data a tail-task
    fill would be supplied — the reuse-safety condition behind T."""
    for block, stamp in enumerate(tail):
        if line.valid_mask & (1 << block) and line.block_content[block] != stamp:
            return False
    return True


def refresh_stale_bits(
    entries: Dict[int, SVCLine],
    vol: List[int],
    memory_stamps: List[int],
) -> None:
    """Enforce the T-bit invariant of section 3.4.3.

    The paper's statement — the most recent version and its copies have
    T clear, all other versions and copies have T set — generalizes
    under versioning blocks to: a line is *not stale* exactly when every
    valid block matches the state a tail-of-VOL composition would
    supply. With one block per line the two statements coincide; with
    several, block-accurate stamps are required because a write-update
    patch can freshen one block of a copy while the rest stay old.
    """
    tail = tail_stamps(entries, vol, memory_stamps)
    for cache_id in vol:
        line = entries[cache_id]
        line.stale = not is_fresh(line, tail)


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


def check_invariants(
    entries: Dict[int, SVCLine],
    vol: List[int],
    task_rank_of_cache: Dict[int, int],
    memory_stamps: List[int],
    check_stale: bool = True,
) -> None:
    """Debug-mode consistency checks run after every bus request.

    ``check_stale`` is cleared for designs below EC, which have no T
    bit to audit (Figure 11)."""
    if sorted(vol) != sorted(entries):
        raise ProtocolError("VOL does not cover exactly the valid entries")
    # Committed prefix property.
    seen_active = False
    for cache_id in vol:
        if entries[cache_id].committed:
            if seen_active:
                raise ProtocolError("committed entry after an active entry in VOL")
        else:
            seen_active = True
    # Active entries ascend in task rank.
    active_ranks = [
        task_rank_of_cache[cid] for cid in vol if not entries[cid].committed
    ]
    if active_ranks != sorted(active_ranks):
        raise ProtocolError("active VOL entries out of task order")
    # Committed versions ascend in stamp order.
    stamps = [
        entries[cid].version_seq
        for cid in vol
        if entries[cid].committed and entries[cid].dirty
    ]
    if stamps != sorted(stamps):
        raise ProtocolError("committed versions out of stamp order")
    # Pointer chain mirrors the order.
    for index, cache_id in enumerate(vol):
        expected = vol[index + 1] if index + 1 < len(vol) else None
        if entries[cache_id].pointer != expected:
            raise ProtocolError(
                f"pointer of cache {cache_id} is {entries[cache_id].pointer}, "
                f"expected {expected}"
            )
    # T-bit invariant.
    if check_stale:
        tail = tail_stamps(entries, vol, memory_stamps)
        for cache_id in vol:
            line = entries[cache_id]
            if line.stale != (not is_fresh(line, tail)):
                raise ProtocolError(f"T bit wrong on cache {cache_id}")
