"""Miss Status Holding Registers (Kroft / Sohi-Franklin style).

Both the SVC caches and the ARB/data cache are non-blocking: a miss
allocates an MSHR and later accesses to the same line combine into it, up
to a per-MSHR combining limit (paper section 4.2: 8 MSHRs combining 4 for
each SVC cache; 32 MSHRs combining 8 for the ARB and data cache).

The timing simulator asks :meth:`MSHRFile.allocate` on every miss; the
answer distinguishes a *primary* miss (starts a bus/memory transaction), a
*secondary* miss (combined, waits on the primary) and a structural stall
(file full or combining limit hit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError


@dataclass(slots=True)
class MSHR:
    """One in-flight line miss and the accesses combined into it."""

    line_addr: int
    ready_cycle: int
    waiter_ids: List[int] = field(default_factory=list)


class AllocationResult:
    """Outcome of an MSHR allocation attempt."""

    PRIMARY = "primary"
    SECONDARY = "secondary"
    STALL = "stall"


class MSHRFile:
    """Fixed pool of MSHRs with per-entry access combining."""

    def __init__(self, n_entries: int, combining: int) -> None:
        if n_entries <= 0 or combining <= 0:
            raise ConfigError("MSHR count and combining limit must be positive")
        self.n_entries = n_entries
        self.combining = combining
        self._entries: Dict[int, MSHR] = {}

    def lookup(self, line_addr: int) -> Optional[MSHR]:
        return self._entries.get(line_addr)

    def allocate(self, line_addr: int, waiter_id: int, ready_cycle: int) -> str:
        """Try to track a miss on ``line_addr`` for access ``waiter_id``.

        Returns one of the :class:`AllocationResult` verbs. For a secondary
        miss the existing entry's ready cycle is kept (the line arrives
        when the primary's transaction completes).
        """
        entry = self._entries.get(line_addr)
        if entry is not None:
            if len(entry.waiter_ids) >= self.combining:
                return AllocationResult.STALL
            entry.waiter_ids.append(waiter_id)
            return AllocationResult.SECONDARY
        if len(self._entries) >= self.n_entries:
            return AllocationResult.STALL
        self._entries[line_addr] = MSHR(line_addr, ready_cycle, [waiter_id])
        return AllocationResult.PRIMARY

    def pop_ready(self, now: int) -> List[MSHR]:
        """Remove and return every entry whose line has arrived by ``now``."""
        entries = self._entries
        if not entries:
            return []
        ready = [e for e in entries.values() if e.ready_cycle <= now]
        for entry in ready:
            del entries[entry.line_addr]
        return ready

    def earliest_ready(self) -> Optional[int]:
        """Cycle at which the first in-flight miss completes, if any."""
        if not self._entries:
            return None
        return min(entry.ready_cycle for entry in self._entries.values())

    def flush(self) -> List[MSHR]:
        """Drop all in-flight entries (task squash)."""
        entries = list(self._entries.values())
        self._entries.clear()
        return entries

    def in_flight(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.n_entries
