"""RL design (section 3.7): versioning blocks within realistic lines.

Per-block L/S bits, store masks on BusWrite, per-block data composition
and the false-sharing behaviour coarser blocks introduce.
"""

import pytest

from conftest import make_svc

LINE = 0x100  # blocks at 0x100, 0x104, 0x108, 0x10C


@pytest.fixture
def system():
    s = make_svc("final")
    for cache_id in range(4):
        s.begin_task(cache_id, cache_id)
    return s


class TestPerBlockVersioning:
    def test_two_tasks_version_different_blocks_of_one_line(self, system):
        system.store(0, LINE, 0xA)
        system.store(1, LINE + 4, 0xB)
        result = system.load(2, LINE, size=4)
        assert result.value == 0xA
        assert system.load(2, LINE + 4).value == 0xB

    def test_composition_merges_closest_writer_per_block(self, system):
        system.memory.write_int(LINE + 8, 4, 0xC)
        system.store(0, LINE, 1)
        system.store(1, LINE, 2)       # newer version of block 0
        system.store(0, LINE + 4, 3)   # block 1 only from task 0
        line = None
        result = system.load(2, LINE)
        assert result.value == 2               # closest previous block 0
        assert system.load(2, LINE + 4).value == 3   # from task 0
        assert system.load(2, LINE + 8).value == 0xC  # from memory

    def test_store_to_unrelated_block_does_not_squash_reader(self, system):
        """Per-block L bits prevent the false-sharing squash a
        line-granular protocol would take."""
        system.load(2, LINE + 8)            # task 2 reads block 2
        result = system.store(0, LINE, 7)   # task 0 writes block 0
        assert result.squashed_ranks == []

    def test_store_to_read_block_does_squash(self, system):
        system.load(2, LINE + 8)
        result = system.store(0, LINE + 8, 7)
        assert 2 in result.squashed_ranks


class TestPartialBlockStores:
    def test_partial_store_merges_with_filled_bytes(self, system):
        system.memory.write_int(LINE, 4, 0x11223344)
        system.store(0, LINE, 0xFF, size=1)
        assert system.load(0, LINE).value == 0x112233FF

    def test_partial_store_records_implicit_read(self, system):
        """A store covering part of a versioning block is a
        read-modify-write: the L bit must expose it to earlier stores."""
        system.store(2, LINE + 1, 0xEE, size=1)   # partial block 0
        line = system.line_in(2, LINE)
        assert line.load_mask & 0b0001
        result = system.store(0, LINE, 0x55667788)  # earlier full write
        assert 2 in result.squashed_ranks

    def test_full_block_store_is_not_an_implicit_read(self, system):
        system.store(2, LINE, 0xAA)               # full block 0
        line = system.line_in(2, LINE)
        assert not (line.load_mask & 0b0001)
        result = system.store(0, LINE, 0x55)
        assert result.squashed_ranks == []        # def-before-use shields


class TestCommitWritebackMasks:
    def test_commits_merge_block_writes_in_task_order(self, system):
        system.store(0, LINE, 0xA0)
        system.store(1, LINE + 4, 0xB1)
        system.store(2, LINE, 0xC2)   # task 2 overwrites block 0
        for cache_id in range(4):
            system.commit_head(cache_id)
        system.drain()
        assert system.memory.read_int(LINE, 4) == 0xC2
        assert system.memory.read_int(LINE + 4, 4) == 0xB1

    def test_uncovered_blocks_of_older_versions_reach_memory(self, system):
        """Coverage rule: an older committed version's block is written
        back when no newer committed version wrote that block."""
        system.store(0, LINE, 1)          # block 0
        system.store(1, LINE + 12, 2)     # block 3 (different block!)
        for cache_id in range(4):
            system.commit_head(cache_id)
        system.drain()
        assert system.memory.read_int(LINE, 4) == 1
        assert system.memory.read_int(LINE + 12, 4) == 2


def test_byte_level_disambiguation_with_byte_blocks():
    """versioning_block_size=1 gives the paper's byte-level
    disambiguation: byte stores by different tasks never alias."""
    from conftest import small_geometry
    import dataclasses
    from repro.check import InvariantChecker
    from repro.common.config import SVCConfig
    from repro.svc.designs import final_design
    from repro.svc.system import SVCSystem

    config = final_design(SVCConfig(
        geometry=small_geometry(versioning_block_size=1),
    ))
    system = SVCSystem(config, checker=InvariantChecker())
    for cache_id in range(4):
        system.begin_task(cache_id, cache_id)
    system.store(0, LINE, 0x11, size=1)
    system.store(1, LINE + 1, 0x22, size=1)
    result = system.store(0, LINE + 2, 0x33, size=1)
    assert result.squashed_ranks == []  # no false sharing at byte level
    assert system.load(2, LINE, size=4).value & 0xFFFFFF == 0x332211
