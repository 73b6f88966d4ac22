"""Hypothesis properties of the substrate data structures."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.common.addresses import AddressMap
from repro.common.errors import ProtocolError
from repro.mem.main_memory import MainMemory
from repro.mem.storage import SetAssociativeArray
from repro.common.config import CacheGeometry

POWERS = [4, 8, 16, 32]


class TestAddressMapProperties:
    @given(
        line_size=st.sampled_from(POWERS),
        addr=st.integers(0, 2**24),
    )
    def test_line_address_idempotent_and_aligned(self, line_size, addr):
        amap = AddressMap(line_size=line_size, versioning_block_size=4)
        line = amap.line_address(addr)
        assert line % line_size == 0
        assert amap.line_address(line) == line
        assert line <= addr < line + line_size

    @given(addr=st.integers(0, 2**24))
    def test_offset_plus_line_reconstructs(self, addr):
        amap = AddressMap()
        assert amap.line_address(addr) + amap.line_offset(addr) == addr

    @given(
        addr=st.integers(0, 2**20),
        size=st.sampled_from([1, 2, 4]),
    )
    def test_block_mask_covers_every_byte(self, addr, size):
        amap = AddressMap()
        addr -= addr % size  # aligned accesses
        mask = amap.block_mask(addr, size)
        for byte in range(size):
            assert mask & (1 << amap.block_index(addr + byte))

    @given(addr=st.integers(0, 2**20), size=st.sampled_from([1, 2, 4]))
    def test_full_cover_is_subset_of_block_mask(self, addr, size):
        amap = AddressMap()
        addr -= addr % size
        full = amap.full_cover_mask(addr, size)
        mask = amap.block_mask(addr, size)
        assert full & ~mask == 0


class TestMainMemoryProperties:
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 255), st.sampled_from([1, 2, 4]),
                      st.integers(0, 2**32 - 1)),
            max_size=30,
        )
    )
    def test_matches_flat_dict(self, writes):
        memory = MainMemory()
        reference = {}
        for slot, size, value in writes:
            addr = 0x1000 + slot * 4
            memory.write_int(addr, size, value)
            for i, byte in enumerate(
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            ):
                reference[addr + i] = byte
        for addr, byte in reference.items():
            assert memory.read_byte(addr) == byte
        assert memory.image() == {a: b for a, b in reference.items() if b}


class TestLRUProperties:
    @given(
        accesses=st.lists(st.integers(0, 5), min_size=1, max_size=40),
    )
    def test_occupancy_never_exceeds_ways(self, accesses):
        geometry = CacheGeometry(size_bytes=64, associativity=2, line_size=16)
        array = SetAssociativeArray(geometry)
        for slot in accesses:
            # All addresses land in the same set (stride = n_sets*line).
            addr = slot * geometry.n_sets * geometry.line_size
            if addr in array:
                array.lookup(addr)
                continue
            if array.set_is_full(addr):
                victim_addr, _ = array.choose_victim(addr)
                array.remove(victim_addr)
            array.insert(addr, slot)
        assert array.resident_count() <= geometry.associativity

    @given(accesses=st.lists(st.integers(0, 4), min_size=3, max_size=40))
    def test_most_recent_access_never_evicted(self, accesses):
        geometry = CacheGeometry(size_bytes=64, associativity=2, line_size=16)
        array = SetAssociativeArray(geometry)
        last = None
        for slot in accesses:
            addr = slot * geometry.n_sets * geometry.line_size
            if addr in array:
                array.lookup(addr)
            else:
                if array.set_is_full(addr):
                    victim_addr, _ = array.choose_victim(addr)
                    assert victim_addr != last  # LRU: never the MRU line
                    array.remove(victim_addr)
                array.insert(addr, slot)
            last = addr


class LRUModel:
    """Reference for :class:`SetAssociativeArray`: one ``OrderedDict``
    per set, least recently used first, with the array's method names,
    signatures and error messages."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.sets = [OrderedDict() for _ in range(geometry.n_sets)]

    def _set(self, addr):
        return self.sets[self.geometry.set_index(addr)]

    def __contains__(self, addr):
        return addr in self._set(addr)

    def set_is_full(self, addr):
        return len(self._set(addr)) >= self.geometry.associativity

    def lookup(self, addr, touch):
        way_set = self._set(addr)
        line = way_set.get(addr)
        if line is not None and touch:
            way_set.move_to_end(addr)
        return line

    def insert(self, addr, line):
        if addr in self:
            raise ProtocolError(f"line {addr:#x} already resident")
        if self.set_is_full(addr):
            raise ProtocolError(f"set for {addr:#x} is full; evict before inserting")
        self._set(addr)[addr] = line

    def remove(self, addr):
        if addr not in self:
            raise ProtocolError(f"line {addr:#x} not resident")
        return self._set(addr).pop(addr)

    def victim_candidates(self, addr, can_evict):
        if not self.set_is_full(addr):
            return []
        return [
            (a, line) for a, line in self._set(addr).items()
            if can_evict is None or can_evict(a, line)
        ]

    def choose_victim(self, addr, can_evict):
        candidates = self.victim_candidates(addr, can_evict)
        return candidates[0] if candidates else None

    def clear(self):
        for way_set in self.sets:
            way_set.clear()

    def lines(self):
        return {a: line for way_set in self.sets for a, line in way_set.items()}


def _even_payload(addr, line):
    return line % 2 == 0


def _never(addr, line):
    return False


#: Direct-mapped, 2-way and 4-way arrays of four 16-byte-line sets, and
#: a 2-way array of three sets (set index by div/mod, not shift/mask).
LRU_GEOMETRIES = [
    CacheGeometry(size_bytes=64, associativity=1, line_size=16),
    CacheGeometry(size_bytes=128, associativity=2, line_size=16),
    CacheGeometry(size_bytes=256, associativity=4, line_size=16),
    CacheGeometry(size_bytes=96, associativity=2, line_size=16),
]

_SLOT = st.integers(0, 9)
_VETO = st.sampled_from([None, _even_payload, _never])
_INSERT = st.tuples(st.just("insert"), _SLOT, st.integers(0, 99))
_LOOKUP = st.tuples(st.just("lookup"), _SLOT, st.booleans())
#: Inserts and lookups drawn more often than the rest, so sets fill up.
ARRAY_OPS = st.one_of(
    _INSERT, _INSERT, _INSERT, _INSERT, _LOOKUP, _LOOKUP, _LOOKUP,
    st.tuples(st.just("remove"), _SLOT, st.none()),
    st.tuples(st.just("choose_victim"), _SLOT, _VETO),
    st.tuples(st.just("victim_candidates"), _SLOT, _VETO),
    st.tuples(st.just("clear"), _SLOT, st.none()),
)


def _outcome(method, args):
    try:
        return "returned", method(*args)
    except ProtocolError as exc:
        return "raised", str(exc)


class TestArrayMatchesLRUModel:
    @settings(max_examples=300)
    @given(
        geometry=st.sampled_from(LRU_GEOMETRIES),
        ops=st.lists(ARRAY_OPS, min_size=20, max_size=100),
    )
    def test_every_op_matches_the_per_set_model(self, geometry, ops):
        array = SetAssociativeArray(geometry)
        model = LRUModel(geometry)
        # The first and the last set, one more tag in each than it has
        # ways: the sets fill and their addresses collide.
        n_sets = geometry.n_sets
        sets = (0, n_sets - 1)
        universe = [
            (set_index + n_sets * tag) * geometry.line_size
            for tag in range(geometry.associativity + 1)
            for set_index in sets
        ]
        for name, slot, arg in ops:
            addr = universe[slot % len(universe)]
            args = {"clear": (), "remove": (addr,)}.get(name, (addr, arg))
            assert _outcome(getattr(array, name), args) == _outcome(
                getattr(model, name), args
            ), (name, hex(addr), arg)
            for probe in universe:
                assert (probe in array) == (probe in model)
                assert array.set_is_full(probe) == model.set_is_full(probe)
                assert array.has_free_way(probe) == (not model.set_is_full(probe))
            for probe in universe[: len(sets)]:  # a full set's whole LRU order
                assert array.victim_candidates(probe) == model.victim_candidates(
                    probe, None
                )
            pairs = list(array.lines())
            assert len(pairs) == array.resident_count() == len(model.lines())
            assert dict(pairs) == model.lines()
