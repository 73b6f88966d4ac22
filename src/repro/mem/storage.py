"""Set-associative storage array with LRU replacement and victim veto.

The array is generic over the line payload: the SMP controller stores
coherence lines, the SVC controller stores versioned lines. Replacement
policy is LRU, but the *caller* decides which resident lines are legal
victims — the SVC forbids replacing active speculative lines except by the
head task (paper section 3.2.5), which it expresses through the
``can_evict`` predicate.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, ItemsView, List, Optional, Tuple, TypeVar

from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolError

LineT = TypeVar("LineT")


class SetAssociativeArray(Generic[LineT]):
    """``n_sets`` sets of ``associativity`` ways, keyed by line address.

    Every resident payload lives in one flat dict keyed by line address,
    so a lookup is one dict get and a walk of the resident lines is one
    dict iteration. Each set keeps only its resident addresses, in LRU
    order (least recently used first), for replacement.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._lines: Dict[int, LineT] = {}
        self._set_addrs: List[List[int]] = [[] for _ in range(geometry.n_sets)]
        # lookup() is the single hottest call in a timing sweep; when the
        # geometry allows (power-of-two set count and line size — every
        # paper configuration), index with shift+mask instead of div+mod.
        n_sets = geometry.n_sets
        line_size = geometry.line_size
        if n_sets & (n_sets - 1) == 0 and line_size & (line_size - 1) == 0:
            self._line_shift: Optional[int] = line_size.bit_length() - 1
            self._set_mask = n_sets - 1
        else:
            self._line_shift = None
            self._set_mask = 0
        # Direct-mapped arrays need no LRU maintenance: each set holds at
        # most one line, so recency can never influence victim choice.
        self._lru = geometry.associativity > 1

    def _addrs_for(self, line_addr: int) -> List[int]:
        """The resident addresses of ``line_addr``'s set, LRU first."""
        if self._line_shift is not None:
            return self._set_addrs[(line_addr >> self._line_shift) & self._set_mask]
        return self._set_addrs[self.geometry.set_index(line_addr)]

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[LineT]:
        """The resident payload for ``line_addr``, updating LRU by default."""
        line = self._lines.get(line_addr)
        if line is not None and touch and self._lru:
            if self._line_shift is not None:
                addrs = self._set_addrs[(line_addr >> self._line_shift) & self._set_mask]
            else:
                addrs = self._set_addrs[self.geometry.set_index(line_addr)]
            if addrs[-1] != line_addr:
                addrs.remove(line_addr)
                addrs.append(line_addr)
        return line

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._lines

    def set_is_full(self, line_addr: int) -> bool:
        return len(self._addrs_for(line_addr)) >= self.geometry.associativity

    def has_free_way(self, line_addr: int) -> bool:
        """True when the set for ``line_addr`` has an empty way (snarfing)."""
        return not self.set_is_full(line_addr)

    def choose_victim(
        self,
        line_addr: int,
        can_evict: Optional[Callable[[int, LineT], bool]] = None,
    ) -> Optional[Tuple[int, LineT]]:
        """LRU-ordered victim for inserting ``line_addr``, or ``None``.

        Returns ``None`` either when no eviction is needed (free way) or
        when every resident line is vetoed by ``can_evict`` — callers that
        need to distinguish should check :meth:`set_is_full` first.
        """
        addrs = self._addrs_for(line_addr)
        if len(addrs) < self.geometry.associativity:
            return None
        lines = self._lines
        for addr in addrs:  # LRU first
            line = lines[addr]
            if can_evict is None or can_evict(addr, line):
                return addr, line
        return None

    def victim_candidates(
        self,
        line_addr: int,
        can_evict: Optional[Callable[[int, LineT], bool]] = None,
    ) -> List[Tuple[int, LineT]]:
        """Every legal victim for ``line_addr`` in LRU order, or an empty
        list when no eviction is needed (free way) or none is legal —
        same ambiguity as :meth:`choose_victim`, and callers that biased
        replacement policies (fault injection) pick from this list."""
        addrs = self._addrs_for(line_addr)
        if len(addrs) < self.geometry.associativity:
            return []
        lines = self._lines
        return [
            (addr, lines[addr])
            for addr in addrs
            if can_evict is None or can_evict(addr, lines[addr])
        ]

    def insert(self, line_addr: int, line: LineT) -> None:
        """Insert into a set with a free way; caller evicts first if full."""
        if line_addr in self._lines:
            raise ProtocolError(f"line {line_addr:#x} already resident")
        addrs = self._addrs_for(line_addr)
        if len(addrs) >= self.geometry.associativity:
            raise ProtocolError(
                f"set for {line_addr:#x} is full; evict before inserting"
            )
        addrs.append(line_addr)
        self._lines[line_addr] = line

    def remove(self, line_addr: int) -> LineT:
        if line_addr not in self._lines:
            raise ProtocolError(f"line {line_addr:#x} not resident")
        self._addrs_for(line_addr).remove(line_addr)
        return self._lines.pop(line_addr)

    def lines(self) -> ItemsView[int, LineT]:
        """All resident (line address, payload) pairs: a live view of the
        flat map. Every pair appears exactly once, in insertion order; an
        LRU touch does not reorder it. Callers must not insert or remove
        lines while iterating."""
        return self._lines.items()

    def resident_count(self) -> int:
        return len(self._lines)

    def clear(self) -> None:
        self._lines.clear()
        for addrs in self._set_addrs:
            addrs.clear()
