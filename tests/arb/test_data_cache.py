"""Shared direct-mapped data cache behind the ARB."""

import pytest

from repro.arb.data_cache import DataCacheLine, SharedDataCache
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolError
from repro.mem.main_memory import MainMemory


def make_cache():
    memory = MainMemory()
    geometry = CacheGeometry(size_bytes=256, associativity=1, line_size=16)
    return SharedDataCache(geometry, memory), memory


def test_read_miss_fills_from_memory():
    cache, memory = make_cache()
    memory.write_int(0x100, 4, 0x42)
    data, hit = cache.read(0x100, 4)
    assert not hit
    assert int.from_bytes(data, "little") == 0x42
    _, hit = cache.read(0x100, 4)
    assert hit


def test_write_allocates_and_dirties():
    cache, memory = make_cache()
    hit = cache.write(0x100, (0x7).to_bytes(4, "little"))
    assert not hit
    data, hit = cache.read(0x100, 4)
    assert hit and int.from_bytes(data, "little") == 7


def test_conflict_eviction_writes_back_dirty():
    cache, memory = make_cache()
    cache.write(0x000, (11).to_bytes(4, "little"))
    # Same set in a 256B direct-mapped cache: +256 bytes.
    cache.read(0x100, 4)
    assert memory.read_int(0x000, 4) == 11
    assert cache.stats.get("dcache_writebacks") == 1


def test_drain_flushes_dirty_lines():
    cache, memory = make_cache()
    cache.write(0x40, (9).to_bytes(4, "little"))
    cache.drain()
    assert memory.read_int(0x40, 4) == 9


def test_associative_fill_evicts_lru_and_writes_back():
    memory = MainMemory()
    geometry = CacheGeometry(size_bytes=256, associativity=2, line_size=16)
    cache = SharedDataCache(geometry, memory)
    # 8 sets of 2 ways: 0x000, 0x080 and 0x100 share set 0.
    cache.write(0x000, (5).to_bytes(4, "little"))
    cache.read(0x080, 4)
    cache.read(0x000, 4)  # 0x080 becomes least recently used
    cache.read(0x100, 4)  # evicts the clean 0x080
    assert cache.stats.get("dcache_writebacks") == 0
    assert memory.read_int(0x000, 4) == 0
    cache.read(0x080, 4)  # evicts the dirty 0x000
    assert cache.stats.get("dcache_writebacks") == 1
    assert memory.read_int(0x000, 4) == 5


@pytest.mark.parametrize(
    "resident,fill,message",
    [((0x000, 0x100), 0x200, "full"), ((0x100, 0x000), 0x000, "already resident")],
)
def test_direct_mapped_fill_keeps_the_insert_checks(resident, fill, message):
    cache, _ = make_cache()
    way_set = cache.array._sets[0]
    for line_addr in resident:  # corrupt: two lines in a one-way set
        way_set[line_addr] = DataCacheLine(bytearray(16))
    with pytest.raises(ProtocolError, match=message):
        cache._fill(fill)
