"""What a commit drain and the ARB's counters must keep: drain order,
byte runs, and hand-computed statistics for a scripted run."""

from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, CacheGeometry

A = 0x1000
#: Same set as ``A`` in the 512-byte direct-mapped data cache.
B = A + 0x200
#: Another set.
C = A + 0x40


def make_arb(hit_cycles=1):
    config = ARBConfig(
        hit_cycles=hit_cycles,
        cache_geometry=CacheGeometry(size_bytes=512, associativity=1, line_size=16),
    )
    system = ARBSystem(config)
    for unit in range(system.n_units):
        system.begin_task(unit, unit)
    return system


def record_writes(system):
    """Every data-cache write as ``(addr, bytes)``, in call order."""
    writes = []
    write = system.data_cache.write

    def recording(addr, data):
        writes.append((addr, bytes(data)))
        return write(addr, data)

    system.data_cache.write = recording
    return writes


def test_rank_drains_in_row_allocation_order():
    arb = make_arb()
    arb.load(0, B)  # allocates B's row first and fills B's line
    arb.store(1, A, 1)
    arb.store(1, B, 2)
    writes = record_writes(arb)
    arb.commit_head(0)
    arb.commit_head(1)
    # Task 1 touched A first, but B's row is older, so B drains first and
    # A's fill evicts it: A stays resident.
    assert [addr for addr, _ in writes] == [B, A]
    assert arb.stats.get("dcache_writebacks") == 1  # B, dirty, evicted
    arb.begin_task(0, 4)
    arb.begin_task(1, 5)
    assert arb.load(0, A).hit
    assert not arb.load(1, B).hit


def test_partial_word_drains_as_byte_runs():
    arb = make_arb()
    arb.store(0, A, 0xAA, size=1)
    arb.store(0, A + 2, 0xCC, size=1)  # store mask 0b0101
    arb.store(0, A + 5, 0xBBDD, size=2)  # store mask 0b0110
    arb.store(0, A + 8, 0x11223344)  # full word
    writes = record_writes(arb)
    arb.commit_head(0)
    assert writes == [
        (A, b"\xaa"),
        (A + 2, b"\xcc"),
        (A + 5, b"\xdd\xbb"),
        (A + 8, b"\x44\x33\x22\x11"),
    ]
    assert arb.stats.get("commit_stores_drained") == 3  # rows, not runs


def test_counters_and_results_of_a_scripted_run():
    arb = make_arb(hit_cycles=2)
    penalty = arb.config.miss_penalty_cycles
    results = []
    # Cold load: the data cache misses and memory supplies the word.
    results.append(arb.load(1, A, now=0))
    # An older store to the loaded word squashes tasks 1-3.
    results.append(arb.store(0, A, 0x11223344, now=5))
    arb.begin_task(1, 1)
    # Forwarded from task 0's stage: no data-cache access.
    results.append(arb.load(1, A, now=20))
    results.append(arb.store(1, A + 4, 0xAB, size=1, now=21))
    arb.commit_head(0)  # drains A: a data-cache hit
    arb.commit_head(1)  # drains A + 4's byte: a hit in the same line
    arb.begin_task(0, 2)
    # Same set as A: the dirty line is written back, memory supplies B.
    results.append(arb.load(0, B, now=30))
    arb.begin_task(1, 3)
    results.append(arb.store(0, C, 0xEE, size=1, now=40))
    # Byte 0 from task 2's stage, the rest from memory through a miss.
    results.append(arb.load(1, C, now=41))

    assert [
        (r.value, r.hit, r.end_cycle, r.from_memory, r.cache_to_cache, r.squashed_ranks)
        for r in results
    ] == [
        (0, False, 2 + penalty, True, False, ()),
        (None, True, 7, False, False, [1, 2, 3]),
        (0x11223344, True, 22, False, False, ()),
        (None, True, 23, False, False, []),
        (0, False, 32 + penalty, True, False, ()),
        (None, True, 42, False, False, []),
        (0xEE, False, 43 + penalty, True, False, ()),
    ]
    assert arb.stats.snapshot() == {
        "loads": 4,
        "stores": 3,
        "memory_supplies": 3,
        "dcache_misses": 3,
        "dcache_writebacks": 1,
        "commits": 2,
        "commit_stores_drained": 2,
        "squashes_violation": 3,
    }
    assert arb.memory.read_int(A, 4) == 0x11223344
    assert arb.memory.read_int(A + 4, 1) == 0xAB
