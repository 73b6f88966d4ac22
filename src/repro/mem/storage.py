"""Set-associative storage array with LRU replacement and victim veto.

The array is generic over the line payload: the SMP controller stores
coherence lines, the SVC controller stores versioned lines. Replacement
policy is LRU, but the *caller* decides which resident lines are legal
victims — the SVC forbids replacing active speculative lines except by the
head task (paper section 3.2.5), which it expresses through the
``can_evict`` predicate.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolError

LineT = TypeVar("LineT")


class SetAssociativeArray(Generic[LineT]):
    """``n_sets`` sets of ``associativity`` ways, keyed by line address.

    Each set is an :class:`OrderedDict` from line address to payload, kept
    in LRU order (least recently used first).
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List["OrderedDict[int, LineT]"] = [
            OrderedDict() for _ in range(geometry.n_sets)
        ]
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

    def _set_for(self, line_addr: int) -> "OrderedDict[int, LineT]":
        if self._line_shift is not None:
            return self._sets[(line_addr >> self._line_shift) & self._set_mask]
        return self._sets[self.geometry.set_index(line_addr)]

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[LineT]:
        """The resident payload for ``line_addr``, updating LRU by default."""
        if self._line_shift is not None:
            way_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        else:
            way_set = self._sets[self.geometry.set_index(line_addr)]
        line = way_set.get(line_addr)
        if line is not None and touch and self._lru:
            way_set.move_to_end(line_addr)
        return line

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._set_for(line_addr)

    def set_is_full(self, line_addr: int) -> bool:
        return len(self._set_for(line_addr)) >= self.geometry.associativity

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
        way_set = self._set_for(line_addr)
        if len(way_set) < self.geometry.associativity:
            return None
        for addr, line in way_set.items():  # LRU first
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
        way_set = self._set_for(line_addr)
        if len(way_set) < self.geometry.associativity:
            return []
        return [
            (addr, line)
            for addr, line in way_set.items()
            if can_evict is None or can_evict(addr, line)
        ]

    def insert(self, line_addr: int, line: LineT) -> None:
        """Insert into a set with a free way; caller evicts first if full."""
        way_set = self._set_for(line_addr)
        if line_addr in way_set:
            raise ProtocolError(f"line {line_addr:#x} already resident")
        if len(way_set) >= self.geometry.associativity:
            raise ProtocolError(
                f"set for {line_addr:#x} is full; evict before inserting"
            )
        way_set[line_addr] = line

    def remove(self, line_addr: int) -> LineT:
        way_set = self._set_for(line_addr)
        if line_addr not in way_set:
            raise ProtocolError(f"line {line_addr:#x} not resident")
        return way_set.pop(line_addr)

    def lines(self) -> Iterator[Tuple[int, LineT]]:
        """All resident (line address, payload) pairs, set by set, each
        set in LRU order. A C-level chain over the live set views: no
        Python frame per pair, and nothing cached on the array."""
        return chain.from_iterable(map(OrderedDict.items, self._sets))

    def resident_count(self) -> int:
        return sum(len(way_set) for way_set in self._sets)

    def clear(self) -> None:
        for way_set in self._sets:
            way_set.clear()
