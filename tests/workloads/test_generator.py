"""Synthetic workload generator: determinism, a by-value pin of the SPEC95
streams, op sharing and structural properties."""

import hashlib

import pytest

from repro.common.errors import ConfigError
from repro.hier.task import OpKind
from repro.workloads.generator import WorkloadSpec, _AddressStreams, generate_tasks
from repro.workloads.spec95 import SPEC95_PROFILES


def spec(**overrides):
    params = dict(name="test", n_tasks=50, ops_per_task_mean=20, seed=7)
    params.update(overrides)
    return WorkloadSpec(**params)


def test_deterministic_generation():
    a = generate_tasks(spec())
    b = generate_tasks(spec())
    assert len(a) == len(b)
    for task_a, task_b in zip(a, b):
        assert task_a.ops == task_b.ops
        assert task_a.mispredicted == task_b.mispredicted


def test_seed_changes_stream():
    a = generate_tasks(spec())
    b = generate_tasks(spec(), seed=99)
    assert any(x.ops != y.ops for x, y in zip(a, b))


def test_memory_fraction_respected():
    tasks = generate_tasks(spec(memory_fraction=0.5, n_tasks=200))
    ops = [op for task in tasks for op in task.ops]
    mem = sum(1 for op in ops if op.kind != OpKind.COMPUTE)
    assert 0.4 < mem / len(ops) < 0.6


def test_zero_memory_fraction_is_all_compute():
    tasks = generate_tasks(spec(memory_fraction=0.0))
    assert all(op.kind == OpKind.COMPUTE for t in tasks for op in t.ops)


def test_first_task_never_mispredicted():
    tasks = generate_tasks(spec(mispredict_rate=1.0))
    assert not tasks[0].mispredicted
    assert all(t.mispredicted for t in tasks[1:])


def test_region_layout_contiguous():
    streams = _AddressStreams(spec(working_set_bytes=10 * 1024, shared_bytes=3 * 1024))
    assert streams.shared_base == streams.stream_base + 10 * 1024
    assert streams.read_only_base == streams.shared_base + 3 * 1024
    assert streams.private_base > streams.read_only_base


def test_stream_task_alignment():
    streams = _AddressStreams(spec())
    streams.stream_pointer = 5  # mid-line
    streams.start_task()
    assert streams.stream_pointer % 4 == 0


def test_addresses_stay_in_their_regions():
    s = spec(n_tasks=100, memory_fraction=1.0)
    tasks = generate_tasks(s)
    streams = _AddressStreams(s)
    for task in tasks:
        for op in task.ops:
            if op.kind == OpKind.COMPUTE:
                continue
            assert streams.stream_base <= op.addr < streams.private_base + 64 * 1024


def test_region_probabilities_validated():
    with pytest.raises(ConfigError):
        spec(p_private=0.6, p_shared=0.3, p_read_only=0.3)


def test_scaled_multiplies_tasks():
    assert spec().scaled(2.0).n_tasks == 100
    assert spec().scaled(0.01).n_tasks == 4  # floor of 4


def test_dependences_reference_earlier_ops():
    tasks = generate_tasks(spec(n_tasks=100))
    for task in tasks:
        for index, op in enumerate(task.ops):
            assert all(0 <= dep < index for dep in op.depends_on)


#: sha256 prefix of every SPEC95 model's stream at scale 0.05: each
#: task's name and ``mispredicted`` flag, then all seven fields of each
#: of its ops. Any change to the generator's draw sequence or to a field
#: moves one.
STREAM_DIGESTS = {
    "compress": "5725d2b16576e1b6",
    "gcc": "c6ef2b3e2fe56a38",
    "vortex": "1d59c6198b51b3f7",
    "perl": "ffd93961b0132d30",
    "ijpeg": "062dc8a9a96cac5b",
    "mgrid": "a170f4d93304b688",
    "apsi": "00f0c74f968359c1",
}


def _stream_digest(tasks):
    digest = hashlib.sha256()
    for task in tasks:
        digest.update(repr((task.name, task.mispredicted)).encode())
        for op in task.ops:
            fields = (
                op.kind, op.addr, op.size, op.value, op.latency,
                op.depends_on, op.value_deps,
            )
            digest.update(repr(fields).encode())
    return digest.hexdigest()[:16]


def test_stream_digests_cover_every_profile():
    assert STREAM_DIGESTS.keys() == SPEC95_PROFILES.keys()


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_generated_streams_are_pinned_by_value(name):
    tasks = generate_tasks(SPEC95_PROFILES[name].scaled(0.05))
    assert _stream_digest(tasks) == STREAM_DIGESTS[name]


def test_equal_loads_and_compute_ops_are_one_object():
    tasks = generate_tasks(spec(n_tasks=200))
    ops = [op for task in tasks for op in task.ops]
    stores = [op for op in ops if op.kind == OpKind.STORE]
    first = {}
    for op in ops:
        if op.kind != OpKind.STORE:
            assert first.setdefault(op, op) is op
    # The stream repeats loads and compute ops, but every store is its
    # own object.
    assert len(first) < len(ops) - len(stores)
    assert len({id(op) for op in stores}) == len(stores)


def test_calls_share_no_op():
    a = generate_tasks(spec())
    b = generate_tasks(spec())
    ids_a = {id(op) for task in a for op in task.ops}
    assert all(id(op) not in ids_a for task in b for op in task.ops)


def _shared_values(tasks):
    """Non-empty ``depends_on`` tuples and memory-op addresses of ``tasks``."""
    ops = [op for task in tasks for op in task.ops]
    deps = [op.depends_on for op in ops if op.depends_on]
    addrs = [op.addr for op in ops if op.kind != OpKind.COMPUTE]
    return deps, addrs


def test_equal_dependence_lists_and_addresses_are_one_object():
    deps, addrs = _shared_values(generate_tasks(spec(n_tasks=200)))
    for values in (deps, addrs):
        first = {}
        for value in values:
            assert first.setdefault(value, value) is value
        # The stream repeats both, so sharing saves objects.
        assert len(first) < len(values)


def test_calls_share_no_dependence_tuple_or_address():
    deps_a, addrs_a = _shared_values(generate_tasks(spec()))
    deps_b, addrs_b = _shared_values(generate_tasks(spec()))
    assert deps_a == deps_b and addrs_a == addrs_b
    ids_a = {id(value) for value in deps_a + addrs_a}
    assert all(id(value) not in ids_a for value in deps_b + addrs_b)


def test_svc_paper_streams_hold_one_object_per_distinct_value():
    """The seed-0 streams of the benchmark's ``svc-paper`` workload (every
    SPEC95 model at scale 0.5) hold one op per distinct load or compute op
    plus every store, and one dependence tuple and one address int per
    distinct value per stream. The counts are deterministic: a change that
    stops sharing fails here, not in a memory measurement."""
    streams = [
        generate_tasks(SPEC95_PROFILES[name].scaled(0.5))
        for name in SPEC95_PROFILES
    ]
    ops, deps, addrs = set(), set(), set()
    distinct_deps = distinct_addrs = 0
    for tasks in streams:
        ops.update(id(op) for task in tasks for op in task.ops)
        stream_deps, stream_addrs = _shared_values(tasks)
        deps.update(map(id, stream_deps))
        addrs.update(map(id, stream_addrs))
        distinct_deps += len(set(stream_deps))
        distinct_addrs += len(set(stream_addrs))
    assert (len(ops), len(deps), len(addrs)) == (94_873, 6_836, 30_814)
    assert (distinct_deps, distinct_addrs) == (len(deps), len(addrs))
