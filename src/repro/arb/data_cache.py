"""Shared L1 data cache backing the ARB.

Direct-mapped (as in the paper's configuration), 16-byte lines, holding
only architectural data: committed stores drain into it; loads that the
ARB stages cannot satisfy read through it. Dirty lines write back to
main memory on eviction or drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.config import CacheGeometry
from repro.common.stats import StatsRegistry
from repro.mem.main_memory import MainMemory
from repro.mem.storage import SetAssociativeArray


@dataclass(slots=True)
class DataCacheLine:
    data: bytearray
    dirty: bool = False


class SharedDataCache:
    """The ARB's backing store for architectural data."""

    def __init__(
        self,
        geometry: CacheGeometry,
        memory: MainMemory,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.geometry = geometry
        self.amap = geometry.address_map
        self.memory = memory
        self.stats = stats if stats is not None else StatsRegistry()
        self._line_size = geometry.line_size
        self.array: SetAssociativeArray[DataCacheLine] = SetAssociativeArray(geometry)
        # Hot-path address math, precomputed once (read/write are on the
        # ARB's per-access critical path). The direct-mapped fast path
        # additionally reads the backing array's flat line map inline.
        line_size = geometry.line_size
        self._offset_mask = line_size - 1 if line_size & (line_size - 1) == 0 else None
        self._fast_lines = None
        if self._offset_mask is not None and geometry.associativity == 1:
            self._fast_lines = self.array._lines
        self._counters = self.stats._counters

    def _fill(self, line_addr: int) -> DataCacheLine:
        """Fetch a line from memory, evicting (and writing back) if needed.

        A direct-mapped cache takes its set's one resident address, if
        any, as the victim.
        """
        fast_lines = self._fast_lines
        array = self.array
        if fast_lines is not None:
            addrs = array._addrs_for(line_addr)
            if addrs:
                victim_addr = addrs.pop(0)
                victim = victim_addr, fast_lines.pop(victim_addr)
            else:
                victim = None
        elif array.set_is_full(line_addr):
            victim = array.choose_victim(line_addr)
            array.remove(victim[0])
        else:
            victim = None
        if victim is not None:
            victim_addr, victim_line = victim
            if victim_line.dirty:
                self.memory.write_line(victim_addr, bytes(victim_line.data))
                self._counters["dcache_writebacks"] += 1
        line = DataCacheLine(self.memory.read_line(line_addr, self._line_size))
        if fast_lines is None or addrs:
            # insert() raises if the line is resident or the set still full.
            array.insert(line_addr, line)
        else:
            addrs.append(line_addr)
            fast_lines[line_addr] = line
        return line

    def read(self, addr: int, size: int) -> Tuple[bytes, bool]:
        """Read bytes; returns (data, hit?)."""
        fast_lines = self._fast_lines
        if fast_lines is not None:
            offset = addr & self._offset_mask
            line_addr = addr - offset
            line = fast_lines.get(line_addr)
        else:
            line_addr = self.amap.line_address(addr)
            offset = self.amap.line_offset(addr)
            line = self.array.lookup(line_addr)
        hit = line is not None
        if line is None:
            self._counters["dcache_misses"] += 1
            line = self._fill(line_addr)
        return bytes(line.data[offset : offset + size]), hit

    def read_value(self, addr: int, size: int) -> Tuple[int, bool]:
        """Read a little-endian integer; returns (value, hit?).

        Same lookup as :meth:`read` without materializing the
        intermediate ``bytes`` — the ARB's load path wants the integer.
        """
        fast_lines = self._fast_lines
        if fast_lines is not None:
            offset = addr & self._offset_mask
            line_addr = addr - offset
            line = fast_lines.get(line_addr)
        else:
            line_addr = self.amap.line_address(addr)
            offset = self.amap.line_offset(addr)
            line = self.array.lookup(line_addr)
        hit = line is not None
        if line is None:
            self._counters["dcache_misses"] += 1
            line = self._fill(line_addr)
        return int.from_bytes(line.data[offset : offset + size], "little"), hit

    def write(self, addr: int, data: bytes) -> bool:
        """Write bytes (fetch-on-write-miss); returns hit?."""
        fast_lines = self._fast_lines
        if fast_lines is not None:
            offset = addr & self._offset_mask
            line_addr = addr - offset
            line = fast_lines.get(line_addr)
        else:
            line_addr = self.amap.line_address(addr)
            offset = self.amap.line_offset(addr)
            line = self.array.lookup(line_addr)
        hit = line is not None
        if line is None:
            self._counters["dcache_misses"] += 1
            line = self._fill(line_addr)
        line.data[offset : offset + len(data)] = data
        line.dirty = True
        return hit

    def drain(self) -> None:
        """Write every dirty line back to memory."""
        for line_addr, line in self.array.lines():
            if line.dirty:
                self.memory.write_line(line_addr, bytes(line.data))
                line.dirty = False
