"""Set-associative array: LRU, victim veto, bookkeeping errors."""

import pytest

from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolError
from repro.mem.storage import SetAssociativeArray


def geometry():
    return CacheGeometry(size_bytes=128, associativity=2, line_size=16)


def addr_in_set(set_index, way):
    """A line address mapping to the requested set (4 sets here)."""
    return (set_index + 4 * way) * 16


class TestLookup:
    def test_miss_returns_none(self):
        array = SetAssociativeArray(geometry())
        assert array.lookup(0x0) is None
        assert 0x0 not in array

    def test_insert_then_hit(self):
        array = SetAssociativeArray(geometry())
        array.insert(0x10, "payload")
        assert array.lookup(0x10) == "payload"
        assert 0x10 in array


class TestReplacement:
    def test_lru_victim(self):
        array = SetAssociativeArray(geometry())
        a, b = addr_in_set(0, 0), addr_in_set(0, 1)
        array.insert(a, "a")
        array.insert(b, "b")
        array.lookup(a)  # touch a; b becomes LRU
        victim = array.choose_victim(addr_in_set(0, 2))
        assert victim == (b, "b")

    def test_no_victim_needed_when_free(self):
        array = SetAssociativeArray(geometry())
        array.insert(addr_in_set(0, 0), "a")
        assert array.choose_victim(addr_in_set(0, 1)) is None
        assert array.has_free_way(addr_in_set(0, 1))

    def test_veto_skips_to_next_lru(self):
        array = SetAssociativeArray(geometry())
        a, b = addr_in_set(0, 0), addr_in_set(0, 1)
        array.insert(a, "protected")
        array.insert(b, "evictable")
        victim = array.choose_victim(
            addr_in_set(0, 2), can_evict=lambda addr, line: line != "protected"
        )
        assert victim == (b, "evictable")

    def test_all_vetoed_returns_none(self):
        array = SetAssociativeArray(geometry())
        array.insert(addr_in_set(0, 0), "x")
        array.insert(addr_in_set(0, 1), "y")
        assert array.set_is_full(addr_in_set(0, 2))
        victim = array.choose_victim(addr_in_set(0, 2), can_evict=lambda a, l: False)
        assert victim is None


class TestErrors:
    def test_double_insert_rejected(self):
        array = SetAssociativeArray(geometry())
        array.insert(0x10, "a")
        with pytest.raises(ProtocolError):
            array.insert(0x10, "b")

    def test_insert_into_full_set_rejected(self):
        array = SetAssociativeArray(geometry())
        array.insert(addr_in_set(0, 0), "a")
        array.insert(addr_in_set(0, 1), "b")
        with pytest.raises(ProtocolError):
            array.insert(addr_in_set(0, 2), "c")

    def test_remove_missing_rejected(self):
        with pytest.raises(ProtocolError):
            SetAssociativeArray(geometry()).remove(0x10)


def test_lines_iterates_everything():
    array = SetAssociativeArray(geometry())
    array.insert(0x10, "a")
    array.insert(0x20, "b")
    assert dict(array.lines()) == {0x10: "a", 0x20: "b"}
    assert array.resident_count() == 2
    array.clear()
    assert array.resident_count() == 0


def test_lines_lists_each_pair_once_in_insertion_order_and_tracks_changes():
    array = SetAssociativeArray(geometry())
    array.insert(addr_in_set(2, 0), "c")
    array.insert(addr_in_set(0, 1), "b")
    array.insert(addr_in_set(0, 0), "a")
    array.insert(addr_in_set(2, 1), "d")
    array.lookup(addr_in_set(2, 0))  # "c" becomes set 2's MRU line...
    assert list(array.lines()) == [  # ...but keeps its place in lines()
        (addr_in_set(2, 0), "c"),
        (addr_in_set(0, 1), "b"),
        (addr_in_set(0, 0), "a"),
        (addr_in_set(2, 1), "d"),
    ]
    assert array.choose_victim(addr_in_set(2, 2)) == (addr_in_set(2, 1), "d")
    array.remove(addr_in_set(0, 1))
    array.insert(addr_in_set(1, 0), "e")
    array.remove(addr_in_set(2, 0))
    array.insert(addr_in_set(2, 0), "c2")  # re-inserted: now last
    assert list(array.lines()) == [
        (addr_in_set(0, 0), "a"),
        (addr_in_set(2, 1), "d"),
        (addr_in_set(1, 0), "e"),
        (addr_in_set(2, 0), "c2"),
    ]
    array.clear()
    assert list(array.lines()) == []
