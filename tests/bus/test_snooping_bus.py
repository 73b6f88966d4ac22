"""Snooping bus: arbitration, occupancy accounting, utilization."""

import pytest

from repro.bus.requests import BusRequestKind
from repro.bus.snooping_bus import SnoopingBus
from repro.common.config import BusConfig


def make_bus(**kwargs):
    return SnoopingBus(BusConfig(), keep_history=True, **kwargs)


def test_transaction_occupies_three_cycles():
    bus = make_bus()
    txn = bus.reserve(0, BusRequestKind.READ, 0, 0x100)
    assert txn.start_cycle == 0
    assert txn.end_cycle == 3
    assert txn.cycles == 3


def test_back_to_back_requests_serialize():
    bus = make_bus()
    first = bus.reserve(0, BusRequestKind.READ, 0, 0x100)
    second = bus.reserve(1, BusRequestKind.WRITE, 1, 0x200)
    assert second.start_cycle == first.end_cycle
    assert bus.stats.get("bus_wait_cycles") == 2


def test_idle_bus_starts_immediately():
    bus = make_bus()
    bus.reserve(0, BusRequestKind.READ, 0, 0x100)
    late = bus.reserve(50, BusRequestKind.READ, 1, 0x200)
    assert late.start_cycle == 50


def test_commit_flush_extra_cycle():
    bus = make_bus()
    txn = bus.reserve(0, BusRequestKind.WBACK, 0, 0x100, extra_cycles=1)
    assert txn.cycles == 4


def test_utilization():
    bus = make_bus()
    bus.reserve(0, BusRequestKind.READ, 0, 0x100)
    assert bus.utilization(total_cycles=12) == 0.25
    assert bus.utilization(total_cycles=0) == 0.0


def test_per_kind_counters():
    bus = make_bus()
    bus.reserve(0, BusRequestKind.READ, 0, 0x100)
    bus.reserve(0, BusRequestKind.WRITE, 0, 0x100, cache_to_cache=True)
    assert bus.stats.get("bus_BusRead") == 1
    assert bus.stats.get("bus_BusWrite") == 1
    assert bus.stats.get("bus_cache_to_cache") == 1
    assert bus.stats.get("bus_transactions") == 2


def test_history_and_store_mask():
    bus = make_bus()
    bus.reserve(0, BusRequestKind.WRITE, 2, 0x100, store_mask=0b0110)
    assert bus.history[0].store_mask == 0b0110
    assert bus.history[0].requester == 2


def test_transaction_record_is_immutable():
    bus = make_bus()
    txn = bus.reserve(0, BusRequestKind.READ, 0, 0x100)
    with pytest.raises(AttributeError):
        txn.end_cycle = 99
    assert txn.end_cycle == 3
