"""The Address Resolution Buffer proper: rows x stages of L/S/value.

Structure follows Franklin & Sohi's ARB as configured in the paper's
evaluation (section 4.2): a fully associative buffer of ``n_rows`` rows;
each row tracks one word of memory and holds, per task stage, a load
bit, a store bit and the buffered store data. Disambiguation is at byte
granularity ("disambiguation is performed at the byte-level"), so the
per-stage bits are byte masks within the row's word.

Stages are assigned to active tasks in sequence order; an extra stage
holding architectural data (mentioned in section 4) is modeled by the
backing shared data cache rather than as a literal sixth stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional

from repro.common.errors import ConfigError

WORD_SIZE = 4
#: Store mask of an access covering the whole word.
FULL_WORD_MASK = (1 << WORD_SIZE) - 1

_BY_SEQ = attrgetter("seq")


@dataclass(slots=True)
class ARBEntry:
    """One (row, stage) cell: byte-masked load/store state plus data."""

    load_mask: int = 0
    store_mask: int = 0
    data: bytearray = field(default_factory=lambda: bytearray(WORD_SIZE))

    @property
    def empty(self) -> bool:
        return self.load_mask == 0 and self.store_mask == 0


@dataclass(slots=True)
class ARBRow:
    """One fully-associative row: a word address and per-task entries.

    Entries are keyed by task rank, which plays the role of the paper's
    stage index; the sliding head/tail window over ranks is enforced by
    :class:`repro.arb.system.ARBSystem`.
    """

    word_addr: int
    entries: Dict[int, ARBEntry] = field(default_factory=dict)
    #: Allocation sequence stamp: rows_of_rank() iterates in this order,
    #: which is exactly the buffer dict's insertion order, so per-rank
    #: indexed walks drain stores in the same order a full scan would.
    seq: int = 0

    @property
    def empty(self) -> bool:
        for entry in self.entries.values():
            if entry.load_mask or entry.store_mask:
                return False
        return True


class AddressResolutionBuffer:
    """Fixed pool of fully-associative ARB rows."""

    def __init__(self, n_rows: int) -> None:
        if n_rows <= 0:
            raise ConfigError("ARB needs at least one row")
        self.n_rows = n_rows
        self._rows: Dict[int, ARBRow] = {}
        self._alloc_seq = 0
        #: rank -> word addresses of rows holding an entry for that rank.
        #: Lets commits and squashes visit only the rows a task touched
        #: instead of scanning the whole buffer.
        self._rank_rows: Dict[int, set] = {}

    def lookup(self, word_addr: int) -> Optional[ARBRow]:
        return self._rows.get(word_addr)

    def lookup_or_allocate(self, word_addr: int) -> Optional[ARBRow]:
        """The row for ``word_addr``, allocating if free space exists.
        Returns ``None`` when the buffer is full (the PU must stall)."""
        row = self._rows.get(word_addr)
        if row is not None:
            return row
        if len(self._rows) >= self.n_rows:
            return None
        row = ARBRow(word_addr, {}, self._alloc_seq)
        self._alloc_seq += 1
        self._rows[word_addr] = row
        return row

    def rows_of_rank(self, rank: int) -> List[ARBRow]:
        """Rows currently holding an entry for ``rank``, in allocation
        order (identical to the order a full :meth:`rows` scan yields)."""
        addrs = self._rank_rows.get(rank)
        if not addrs:
            return []
        rows = []
        for word_addr in addrs:
            row = self._rows.get(word_addr)
            if row is not None and rank in row.entries:
                rows.append(row)
        rows.sort(key=_BY_SEQ)
        return rows

    def drop_rank_index(self, rank: int) -> None:
        """Forget the per-rank row index (the rank is fully retired)."""
        self._rank_rows.pop(rank, None)

    def release_if_empty(self, word_addr: int) -> None:
        row = self._rows.get(word_addr)
        if row is not None and row.empty:
            del self._rows[word_addr]

    def rows(self) -> List[ARBRow]:
        return list(self._rows.values())

    def occupancy(self) -> int:
        return len(self._rows)

    def clear_rank(self, rank: int) -> None:
        """Drop one task's entries from every row (squash epilogue)."""
        addrs = self._rank_rows.pop(rank, None)
        if not addrs:
            return
        for word_addr in addrs:
            row = self._rows.get(word_addr)
            if row is None:
                continue
            row.entries.pop(rank, None)
            if not row.entries:
                del self._rows[word_addr]
