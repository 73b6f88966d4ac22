"""Per-PU SVC cache controller: the processor side of the protocol.

The controller makes only *local* decisions — hit/miss/upgrade
classification, L/S bit updates, flash commit and squash — exactly the
split the paper draws between the cache FSM (Figures 10 and 18) and the
Version Control Logic. Anything requiring knowledge of other caches
(supplying versions, invalidation windows, VOL surgery) lives in
:class:`repro.svc.vcl.VersionControlLogic`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.config import CacheGeometry, SVCFeatures
from repro.common.errors import ProtocolError
from repro.mem.storage import SetAssociativeArray
from repro.svc.line import LineState, SVCLine


class ProbeOutcome:
    """Local classification of a PU request."""

    HIT = "hit"
    MISS = "miss"
    UPGRADE = "upgrade"  # store to a resident line lacking S coverage


class SVCCache:
    """One private L1 cache of the SVC."""

    def __init__(
        self, cache_id: int, geometry: CacheGeometry, features: SVCFeatures
    ) -> None:
        self.cache_id = cache_id
        self.geometry = geometry
        self.features = features
        self.amap = geometry.address_map
        self.array: SetAssociativeArray[SVCLine] = SetAssociativeArray(geometry)
        #: (offset << 5) | size -> partial-block RMW mask; the partial
        #: set depends only on the access shape, not the address.
        self._partial_memo = {}
        #: Line addresses made active (C clear) by the current task;
        #: the flash-commit / flash-squash working set.
        self.active_lines: Set[int] = set()
        #: Rank of the task currently executing on this cache's PU.
        self.current_task: Optional[int] = None
        #: Fault injection (repro.faults): when set, replacement picks an
        #: adversarial victim from the legal candidates instead of LRU.
        self.victim_bias_rng = None
        #: The VCL's snapshot store (repro.svc.fastpath) whose cached
        #: (entries, VOL) columns must follow whenever this cache changes
        #: anything VOL reconstruction depends on: residency (maintained
        #: in place by the install/drop hooks), the C bit, or a committed
        #: line's version order (invalidated). Every SVCSystem wires it;
        #: None only on a cache built outside one.
        self.engine = None

    # -- lookup helpers --------------------------------------------------------

    def line_for(self, line_addr: int, touch: bool = False) -> Optional[SVCLine]:
        return self.array.lookup(line_addr, touch=touch)

    def state_of(self, line_addr: int) -> str:
        line = self.line_for(line_addr)
        return LineState.INVALID if line is None else line.state

    # -- PU-side probes ---------------------------------------------------------

    def probe_load(self, line_addr: int, block_mask: int) -> Tuple[str, Optional[SVCLine]]:
        """Classify a load. A hit needs an active line (or a reusable
        passive clean line — EC design, T clear) with valid data covering
        the accessed blocks."""
        line = self.array.lookup(line_addr)
        if line is None:
            return ProbeOutcome.MISS, None
        if not line.committed:
            if (line.valid_mask & block_mask) == block_mask:
                return ProbeOutcome.HIT, line
            # Partial-coverage active line: a miss that keeps the
            # resident line (the fill merges around its S blocks).
            return ProbeOutcome.MISS, line
        # Passive line. A passive clean copy that is not stale can be
        # reused locally: reset C, set A (section 3.5.1). A written-back
        # passive dirty line is equivalent — its version is already in
        # memory, so dropping the S bits turns it into a clean copy with
        # nothing left to lose on a squash. Everything else (stale
        # copies, unflushed versions) goes to the bus.
        if (
            self.features.stale_bit
            and (not line.dirty or line.written_back)
            and not line.stale
            and line.covers(block_mask)
        ):
            line.store_mask = 0
            line.committed = False
            line.architectural = self.features.architectural_bit
            line.written_back = False
            line.load_mask = 0
            line.task_id = self.current_task
            self.active_lines.add(line_addr)
            if self.engine is not None:
                self.engine.invalidate(line_addr)
            return ProbeOutcome.HIT, line
        return ProbeOutcome.MISS, line

    def probe_store(
        self, line_addr: int, block_mask: int, full_cover: int = 0
    ) -> Tuple[str, Optional[SVCLine]]:
        """Classify a store.

        A hit needs an active line with the X bit — no later task holds
        any copy of (or recorded interest in) this line, so the store
        needs no invalidation window — plus valid data for any partially
        covered block (the read half of the read-modify-write). A
        resident active line without exclusivity is an upgrade (BusWrite,
        possibly without data); anything else is a miss.
        """
        line = self.array.lookup(line_addr)
        if line is None:
            return ProbeOutcome.MISS, None
        if line.committed:
            # Local reactivation: our PU holds the sole, already
            # written-back committed version and no later task holds any
            # piece of the line (X set). The new task may build its
            # version in place — the old data is safe in memory, so even
            # a squash loses nothing, and with no downstream holders
            # there is no window to open.
            if (
                self.features.lazy_commit
                and line.exclusive
                and (not line.dirty or line.written_back)
                and line.covers(block_mask & ~full_cover)
            ):
                line.store_mask = 0
                line.load_mask = 0
                line.committed = False
                line.architectural = False
                line.written_back = False
                line.task_id = self.current_task
                line.version_seq = (
                    self.current_task + 1 if self.current_task is not None else 0
                )
                self.active_lines.add(line_addr)
                if self.engine is not None:
                    self.engine.invalidate(line_addr)
                return ProbeOutcome.HIT, line
            return ProbeOutcome.MISS, line
        if line.exclusive:
            need = block_mask & ~full_cover
            if (line.valid_mask & need) == need:
                return ProbeOutcome.HIT, line
        return ProbeOutcome.UPGRADE, line

    def record_load(self, line: SVCLine, block_mask: int) -> None:
        """Set L bits for loaded blocks the task has not yet defined —
        the use-before-definition record that detects violations."""
        line.load_mask |= block_mask & ~line.store_mask

    def apply_store(
        self, line: SVCLine, addr: int, size: int, value: int, block_mask: int
    ) -> None:
        """Write store data and update S/valid masks.

        A store covering only part of a versioning block is a
        read-modify-write of that block: the merged block depends on the
        pre-store bytes, so the L bit is set as well. This is what makes
        intra-block false sharing *detected* (by a violation squash)
        rather than silent — the effect section 3.7 attributes to
        coarse-grained versioning blocks.
        """
        offset = self.amap.line_offset(addr)
        line.data[offset : offset + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
        memo_key = (offset << 5) | size
        partial = self._partial_memo.get(memo_key)
        if partial is None:
            partial = 0
            block_bytes = self.amap.versioning_block_size
            for block in self.amap.blocks_in_mask(block_mask):
                start = block * block_bytes
                if offset > start or offset + size < start + block_bytes:
                    partial |= 1 << block
            self._partial_memo[memo_key] = partial
        line.load_mask |= partial & ~line.store_mask
        line.store_mask |= block_mask
        line.valid_mask |= block_mask

    # -- installation and replacement -------------------------------------------

    def can_evict(self, line_addr: int, line: SVCLine, is_head: bool) -> bool:
        """Replacement veto (section 3.2.5): active lines hold
        information needed for correctness and may be replaced only by
        the head (non-speculative) task; passive lines are always fair
        game."""
        if line.committed:
            return True
        return is_head

    def choose_victim(
        self, line_addr: int, is_head: bool
    ) -> Optional[Tuple[int, SVCLine]]:
        if self.victim_bias_rng is not None:
            candidates = self.array.victim_candidates(
                line_addr, lambda addr, line: self.can_evict(addr, line, is_head)
            )
            if not candidates:
                return None
            # Adversarial bias: usually evict the hottest (MRU) legal
            # line, sometimes a random one — maximal conflict churn at a
            # fixed associativity. Correctness must not depend on the
            # replacement policy, only on the can_evict veto.
            if self.victim_bias_rng.random() < 0.75:
                return candidates[-1]
            return self.victim_bias_rng.choice(candidates)
        return self.array.choose_victim(
            line_addr, lambda addr, line: self.can_evict(addr, line, is_head)
        )

    def install(self, line_addr: int, line: SVCLine) -> None:
        """Insert a freshly filled line; the caller has made room."""
        self.array.insert(line_addr, line)
        if not line.committed:
            self.active_lines.add(line_addr)
        if self.engine is not None:
            self.engine.on_install(self.cache_id, line_addr, line)

    def drop(self, line_addr: int) -> SVCLine:
        """Remove a line (invalidation, purge or cast-out)."""
        self.active_lines.discard(line_addr)
        line = self.array.remove(line_addr)
        if self.engine is not None:
            self.engine.on_drop(self.cache_id, line_addr)
        return line

    # -- task lifecycle -----------------------------------------------------------

    def begin_task(self, rank: int) -> None:
        if self.current_task is not None:
            raise ProtocolError(
                f"cache {self.cache_id} already runs task {self.current_task}"
            )
        if self.active_lines:
            raise ProtocolError(
                f"cache {self.cache_id} has active lines but no task"
            )
        self.current_task = rank

    def flash_commit(self) -> List[int]:
        """EC-design commit: set the C bit on the task's lines, locally
        and in one step (section 3.4). Returns the affected addresses."""
        committed = []
        if self.engine is not None and self.active_lines:
            self.engine.invalidate_many(self.active_lines)
        for line_addr in self.active_lines:
            line = self.array.lookup(line_addr, touch=False)
            if line is None:
                raise ProtocolError("active-line set out of sync with array")
            line.committed = True
            committed.append(line_addr)
        self.active_lines.clear()
        self.current_task = None
        return committed

    def dirty_active_lines(self) -> List[Tuple[int, SVCLine]]:
        """The current task's versions (base-design commit writes these
        back eagerly)."""
        result = []
        for line_addr in sorted(self.active_lines):
            line = self.array.lookup(line_addr, touch=False)
            if line is not None and line.dirty:
                result.append((line_addr, line))
        return result

    def flash_invalidate_all(self) -> None:
        """Base-design commit/squash epilogue: drop every line."""
        if self.engine is not None:
            self.engine.invalidate_many([addr for addr, _ in self.array.lines()])
        self.array.clear()
        self.active_lines.clear()

    def flash_squash(self) -> List[int]:
        """Squash the current task's speculative state.

        ECS design: active lines with the A bit set and no dirty data are
        retained as passive clean (architectural data survives squashes);
        everything else the task touched is invalidated. Returns the
        addresses whose lines were dropped (their VOLs now dangle until
        the VCL repairs them on the next bus request).
        """
        dropped = []
        if self.engine is not None and self.active_lines:
            self.engine.invalidate_many(self.active_lines)
        for line_addr in sorted(self.active_lines):
            line = self.array.lookup(line_addr, touch=False)
            if line is None:
                raise ProtocolError("active-line set out of sync with array")
            if self.features.architectural_bit and line.architectural and not line.dirty:
                line.committed = True
                line.load_mask = 0
                line.task_id = None
                # A squashed task's copy has no exclusivity claim: X
                # would wrongly authorize a silent local reactivation.
                line.exclusive = False
            else:
                self.array.remove(line_addr)
                dropped.append(line_addr)
        self.active_lines.clear()
        self.current_task = None
        return dropped

    def lines(self) -> Iterable[Tuple[int, SVCLine]]:
        return self.array.lines()


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

