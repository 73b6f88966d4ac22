"""ARB row/stage storage."""

import pytest

from repro.arb.buffer import AddressResolutionBuffer, ARBEntry
from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig
from repro.common.errors import ConfigError


def test_allocate_and_lookup():
    arb = AddressResolutionBuffer(4)
    row = arb.lookup_or_allocate(0x100)
    assert row.word_addr == 0x100
    assert arb.lookup(0x100) is row
    assert arb.occupancy() == 1


def test_full_buffer_returns_none():
    arb = AddressResolutionBuffer(1)
    arb.lookup_or_allocate(0x100)
    assert arb.lookup_or_allocate(0x200) is None


def test_existing_row_found_even_when_full():
    arb = AddressResolutionBuffer(1)
    first = arb.lookup_or_allocate(0x100)
    assert arb.lookup_or_allocate(0x100) is first


def test_release_if_empty():
    arb = AddressResolutionBuffer(4)
    row = arb.lookup_or_allocate(0x100)
    row.entries[0] = ARBEntry(load_mask=1)
    arb.release_if_empty(0x100)
    assert arb.lookup(0x100) is not None  # not empty: kept
    row.entries[0].load_mask = 0
    arb.release_if_empty(0x100)
    assert arb.lookup(0x100) is None


def test_clear_rank_drops_entries_and_empty_rows():
    # Entries come from real stores, which also keep the buffer's
    # rank -> rows index that clear_rank walks.
    system = ARBSystem(ARBConfig(n_rows=4))
    system.begin_task(0, 5)
    system.begin_task(1, 6)
    system.store(0, 0x100, 1)
    system.store(1, 0x100, 2)
    system.store(1, 0x200, 3)
    arb = system.buffer
    arb.clear_rank(5)
    assert set(arb.lookup(0x100).entries) == {6}
    arb.clear_rank(6)
    assert arb.lookup(0x100) is None
    assert arb.lookup(0x200) is None
    assert arb.occupancy() == 0


def test_zero_rows_rejected():
    with pytest.raises(ConfigError):
        AddressResolutionBuffer(0)


def test_entry_empty_property():
    entry = ARBEntry()
    assert entry.empty
    entry.load_mask = 1
    assert not entry.empty
