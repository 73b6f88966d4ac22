"""Bus request vocabulary shared by the SMP and SVC protocols.

The three request kinds come straight from the paper's Figures 3 and 10:
``BusRead`` on a load miss, ``BusWrite`` on a store miss (or store to a
non-exclusive line), ``BusWback`` to cast out a dirty line. The SVC adds a
store mask to BusWrite (section 3.7: masks indicate the versioning blocks
modified by the store that caused the request).
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class BusRequestKind:
    """String constants naming the snooping-bus request types."""

    READ = "BusRead"
    WRITE = "BusWrite"
    WBACK = "BusWback"

    ALL = (READ, WRITE, WBACK)


class BusTransaction(NamedTuple):
    """One completed bus transaction, for accounting and event replay.

    ``requester`` is a cache identifier, or ``None`` when the next level
    of memory initiated the action. ``store_mask`` is the versioning-block
    mask of a BusWrite (0 for other kinds). ``cache_to_cache`` records
    whether data moved between L1 caches without a memory access.
    Immutable: assigning a field raises ``AttributeError``. A named tuple
    rather than a frozen dataclass because the bus builds one per
    transaction, and a tuple builds several times faster.
    """

    kind: str
    requester: Optional[int]
    line_addr: int
    start_cycle: int
    end_cycle: int
    store_mask: int = 0
    cache_to_cache: bool = False

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle
