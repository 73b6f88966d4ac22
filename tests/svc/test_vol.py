"""Version Ordering List: construction, search, repair primitives, and
the T bits and pointers the VCL's repair leaves."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import small_geometry
from repro.check import InvariantChecker
from repro.common.config import SVCConfig
from repro.common.errors import InvariantViolation, ProtocolError
from repro.svc.designs import design_config
from repro.svc.line import SVCLine
from repro.svc.system import SVCSystem
from repro.svc.vol import (
    build_vol,
    clean_supplier,
    closest_previous_writer,
    rewrite_pointers,
)

A = 0x100


def line(store=0, valid=0b1111, committed=False, seq=0, stamps=None):
    result = SVCLine(
        data=bytearray(16),
        valid_mask=valid,
        store_mask=store,
        committed=committed,
        version_seq=seq,
    )
    result.block_content = list(stamps) if stamps else [0, 0, 0, 0]
    return result


class TestBuildVOL:
    def test_committed_versions_by_stamp_then_actives_by_rank(self):
        entries = {
            0: line(store=1, committed=True, seq=2),
            1: line(store=1, committed=True, seq=1),
            2: line(store=1),
            3: line(),
        }
        ranks = {2: 7, 3: 5}
        assert build_vol(entries, ranks) == [1, 0, 3, 2]

    def test_committed_copies_after_committed_versions(self):
        entries = {
            0: line(committed=True, seq=3),            # copy
            1: line(store=1, committed=True, seq=5),   # version
        }
        assert build_vol(entries, {}) == [1, 0]

    def test_active_without_task_is_error(self):
        with pytest.raises(ProtocolError):
            build_vol({0: line()}, {})


def key_sorted_vol(entries, task_rank_of_cache):
    """The VOL as three stable key-function sorts built it, so ties keep
    the order of ``entries``: the reference for :func:`build_vol`."""
    committed_versions = []
    committed_copies = []
    active = []
    for cache_id, held in entries.items():
        if held.committed:
            if held.dirty:
                committed_versions.append(cache_id)
            else:
                committed_copies.append(cache_id)
        else:
            if cache_id not in task_rank_of_cache:
                raise ProtocolError(
                    f"cache {cache_id} holds an active line but runs no task"
                )
            active.append(cache_id)
    committed_versions.sort(key=lambda cid: entries[cid].version_seq)
    committed_copies.sort(key=lambda cid: (entries[cid].version_seq, cid))
    active.sort(key=lambda cid: task_rank_of_cache[cid])
    return committed_versions + committed_copies + active


def _vol_outcome(build, entries, ranks):
    try:
        return "vol", build(entries, ranks)
    except ProtocolError as exc:
        return "raised", str(exc)


#: One holder's (committed, store mask, version stamp); stamps and ranks
#: come from a few values, so ties are common. A cache's rank is ``None``
#: about one time in five: it runs no task.
_HOLDER = st.tuples(st.booleans(), st.integers(0, 1), st.integers(0, 2))
_RANKS = st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=8, max_size=8)


@settings(max_examples=400)
@given(
    holders=st.dictionaries(st.integers(0, 7), _HOLDER, min_size=1, max_size=6),
    ranks=_RANKS,
)
@example(holders={3: (False, 1, 0)}, ranks=[None] * 8)  # a sole unranked holder
def test_build_vol_matches_the_key_sorted_reconstruction(holders, ranks):
    """For holders in ascending cache id, as every caller passes them."""
    entries = {
        cache_id: line(store=store, committed=committed, seq=seq)
        for cache_id, (committed, store, seq) in sorted(holders.items())
    }
    rank_of = {cid: rank for cid, rank in enumerate(ranks) if rank is not None}
    assert _vol_outcome(build_vol, entries, rank_of) == _vol_outcome(
        key_sorted_vol, entries, rank_of
    )


class TestPointers:
    def test_rewrite_chains_in_order(self):
        entries = {0: line(store=1), 1: line(), 2: line()}
        ranks = {0: 1, 1: 2, 2: 3}
        vol = build_vol(entries, ranks)
        rewrite_pointers(entries, vol)
        assert entries[0].pointer == 1
        assert entries[1].pointer == 2
        assert entries[2].pointer is None


class TestSearch:
    def test_closest_previous_writer_respects_blocks(self):
        entries = {
            0: line(store=0b0001),
            1: line(store=0b0010),
            2: line(),
        }
        ranks = {0: 0, 1: 1, 2: 2}
        vol = build_vol(entries, ranks)
        assert closest_previous_writer(entries, vol, 2, 0) == 0
        assert closest_previous_writer(entries, vol, 2, 1) == 1
        assert closest_previous_writer(entries, vol, 2, 2) is None

    def test_invalid_block_cannot_supply(self):
        entries = {0: line(store=0b0001, valid=0b1110)}
        vol = build_vol(entries, {0: 0})
        assert closest_previous_writer(entries, vol, 1, 0) is None

    def test_clean_supplier_requires_memory_stamp_match(self):
        entries = {0: line(stamps=[5, 0, 0, 0])}
        assert clean_supplier(entries, 0, [5, 0, 0, 0]) == 0
        assert clean_supplier(entries, 0, [6, 0, 0, 0]) is None


def repaired(holders, ranks, memory):
    """A final-design system whose caches hold ``holders`` (cache id ->
    line) of line ``A`` and run the tasks ``ranks`` (cache id -> rank),
    with ``memory`` as the block stamps last written back, after the
    VCL's repair of the line (``VersionControlLogic._finalize_impl``)."""
    system = SVCSystem(
        design_config("final", SVCConfig(geometry=small_geometry())),
        checker=InvariantChecker(),
    )
    for cache_id, rank in ranks.items():
        system.begin_task(cache_id, rank)
    for cache_id, held in holders.items():
        if not held.committed:
            held.task_id = ranks[cache_id]
        system.caches[cache_id].install(A, held)
    system.vcl._memory_stamps[A] = list(memory)
    system.vcl._finalize_impl(A)
    return system


class TestStaleBits:
    """T as the repair sets it: stale exactly when a valid block's stamp
    differs from the tail-of-VOL composition (section 3.4.3)."""

    def test_tail_stamps_prefer_versions_over_memory(self):
        version = line(store=0b0001, stamps=[9, 2, 3, 4])
        fresh_copy = line(stamps=[9, 2, 3, 4])
        memory_copy = line(stamps=[1, 2, 3, 4])
        repaired({0: version, 1: fresh_copy, 2: memory_copy},
                 {0: 0, 1: 1, 2: 2}, [1, 2, 3, 4])
        assert not version.stale
        assert not fresh_copy.stale
        assert memory_copy.stale  # block 0 is the version's, not memory's

    def test_is_fresh_checks_only_valid_blocks(self):
        for memory, stale in (([7, 0, 0, 0], False), ([8, 0, 0, 0], True)):
            copy = line(valid=0b0001, stamps=[7, 99, 99, 99])
            repaired({0: copy}, {0: 0}, memory)
            assert copy.stale is stale

    def test_refresh_marks_copies_of_old_states(self):
        old_copy = line(stamps=[1, 1, 1, 1])
        version = line(store=0b1111, stamps=[2, 2, 2, 2])
        repaired({0: old_copy, 1: version}, {0: 0, 1: 1}, [0, 0, 0, 0])
        assert old_copy.stale
        assert not version.stale

    def test_refresh_clears_when_no_version(self):
        copy = line(stamps=[3, 3, 3, 3])
        copy.stale = True
        repaired({0: copy}, {0: 0}, [3, 3, 3, 3])
        assert not copy.stale


class TestInvariants:
    """The repair's result against the checker's rules for a line just
    repaired (``check_svc(repaired=True)``, as at a BusRead or BusWrite)."""

    def _system(self):
        entries = {0: line(store=1, committed=True, seq=1), 1: line()}
        return repaired(entries, {1: 4}, [0, 0, 0, 0])

    def test_accepts_consistent_state(self):
        system = self._system()
        assert system.line_in(0, A).pointer == 1
        system.checker.check_svc(line_addr=A, repaired=True)

    def test_rejects_bad_pointer(self):
        system = self._system()
        system.line_in(0, A).pointer = None  # break the chain
        with pytest.raises(InvariantViolation) as excinfo:
            system.checker.check_svc(line_addr=A, repaired=True)
        assert excinfo.value.invariant == "vol-pointers-repaired"

    def test_rejects_wrong_stale_bit(self):
        version = line(store=1, stamps=[1, 0, 0, 0])
        version.stale = True
        system = repaired({0: version}, {0: 0}, [0, 0, 0, 0])
        assert not version.stale  # a lone version is never stale
        version.stale = True
        with pytest.raises(InvariantViolation) as excinfo:
            system.checker.check_svc(line_addr=A, repaired=True)
        assert excinfo.value.invariant == "t-set-implies-stale"
