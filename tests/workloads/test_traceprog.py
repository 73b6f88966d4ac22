"""The trace-kernel corpus: correctness, determinism, golden files,
and the ``trace:<file>`` workload scheme."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_svc
from repro.common.errors import ConfigError
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import OpKind
from repro.oracle.sequential import SequentialOracle, verify_run
from repro.workloads.traceio import dump_tasks, load_tasks
from repro.workloads.traceprog import (
    TRACE_KERNELS,
    build_kernel,
    histogram_kernel,
    is_trace_workload,
    memcpy_kernel,
    pointer_chase_kernel,
    resolve_tasks,
    trace_digest,
    trace_path,
    trace_repeats,
    trace_tasks,
)

REPO = Path(__file__).resolve().parents[2]
TRACES = REPO / "examples" / "traces"


def _word(image, addr):
    return sum(image.get(addr + i, 0) << (8 * i) for i in range(4))


def _run_preloaded(kernel, seed):
    """Write the kernel's first task, its input stores, straight into
    memory, then run the loop's tasks speculatively on the final SVC."""
    system = make_svc("final")
    for op in kernel[0].ops:
        system.memory.write_int(op.addr, op.size, op.value)
    report = SpeculativeExecutionDriver(system, kernel[1:], seed=seed).run()
    return system, report


# -- kernel semantics ---------------------------------------------------------


def test_registry_has_the_six_kernels():
    assert sorted(TRACE_KERNELS) == [
        "histogram", "lockfree_counter", "memcpy",
        "pointer_chase", "producer_consumer", "strided_sum",
    ]


@pytest.mark.parametrize("name", sorted(TRACE_KERNELS))
def test_kernel_is_deterministic(name):
    first = build_kernel(name)
    second = build_kernel(name)
    assert [t.ops for t in first] == [t.ops for t in second]
    assert [t.name for t in first] == [t.name for t in second]


@pytest.mark.parametrize("name", sorted(TRACE_KERNELS))
def test_kernel_runs_speculatively_and_matches_oracle(name):
    tasks = build_kernel(name)
    oracle = SequentialOracle().run(tasks)
    for seed in (7, 0, 1, 2):
        system = make_svc("final")
        report = SpeculativeExecutionDriver(system, tasks, seed=seed).run()
        assert verify_run(report, oracle, system.memory) == [], seed


def test_conflict_kernel_squashes_and_still_matches_oracle():
    """One bin: every iteration increments the same counter, a true
    dependence between adjacent tasks that eager consumers violate."""
    tasks = histogram_kernel(n_values=40, n_bins=1)
    system = make_svc("final")
    report = SpeculativeExecutionDriver(system, tasks, seed=5).run()
    oracle = SequentialOracle().run(tasks)
    assert verify_run(report, oracle, system.memory) == []
    assert system.memory.read_int(0x6_0000, 4) == 40
    assert report.violation_squashes > 0


@pytest.mark.parametrize("seed", [1, 11, 21])
def test_memcpy_over_preloaded_input_never_squashes(seed):
    """Independent iterations: with the input already in memory, no
    copy reads what another task writes."""
    kernel = memcpy_kernel(n=64)
    system, report = _run_preloaded(kernel, seed)
    assert report.violation_squashes == 0
    assert system.memory.image() == SequentialOracle().run(kernel).memory_image


@pytest.mark.parametrize(
    "kernel", [histogram_kernel, pointer_chase_kernel], ids=lambda k: k.__name__
)
def test_increment_stores_depend_on_their_loads(kernel):
    """Every read-modify-write stores 1 plus the value its load saw."""
    for task in kernel()[1:]:
        for index, op in enumerate(task.ops):
            if op.kind != OpKind.STORE:
                continue
            (load_index,) = op.value_deps
            load = task.ops[load_index]
            assert (load.kind, load.addr, op.value) == (OpKind.LOAD, op.addr, 1)
            assert op.depends_on == (index - 1,)


def test_pointer_chase_nodes_are_padded_apart():
    kernel = pointer_chase_kernel(chain_length=30, n_nodes=10)
    initial = {op.addr: op.value for op in kernel[0].ops}
    assert sorted(initial) == [0x4_0000 + 8 * node for node in range(10)]
    assert all(initial.values())
    touched = {
        op.addr for t in kernel[1:] for op in t.ops if op.kind != OpKind.COMPUTE
    }
    assert touched <= set(initial)


def test_pointer_chase_updates_every_node():
    kernel = pointer_chase_kernel(chain_length=30, n_nodes=10)
    initial = {op.addr: op.value for op in kernel[0].ops}
    visits = dict.fromkeys(initial, 0)
    for task in kernel[1:]:
        for op in task.ops:
            if op.kind == OpKind.STORE:
                visits[op.addr] += 1
    assert sum(visits.values()) == 30
    system, _report = _run_preloaded(kernel, seed=1)
    for addr, count in visits.items():
        assert system.memory.read_int(addr, 4) == initial[addr] + count


def test_memcpy_copies_every_word():
    image = SequentialOracle().run(build_kernel("memcpy")).memory_image
    for i in range(24):
        src = _word(image, 0x1_0000 + 4 * i)
        assert src != 0
        assert _word(image, 0x2_0000 + 4 * i) == src


def test_lockfree_counter_counts_every_increment():
    image = SequentialOracle().run(build_kernel("lockfree_counter")).memory_image
    assert _word(image, 0x3_0000) == 12 * 2


def test_strided_sum_accumulates_the_stream():
    image = SequentialOracle().run(build_kernel("strided_sum")).memory_image
    total = sum(_word(image, 0x1_0000 + 4 * i * 3) for i in range(24))
    assert total != 0
    assert _word(image, 0x3_0000) == total


def test_histogram_bins_sum_to_input_count():
    image = SequentialOracle().run(build_kernel("histogram")).memory_image
    counts = [_word(image, 0x6_0000 + 4 * b) for b in range(5)]
    assert sum(counts) == 32
    assert all(count >= 0 for count in counts)


def test_producer_consumer_publishes_every_value():
    image = SequentialOracle().run(build_kernel("producer_consumer")).memory_image
    for i in range(8):
        data = _word(image, 0x1_0000 + 16 * i)
        assert data != 0
        assert _word(image, 0x5_0000 + 16 * i) == 1  # flag
        # The consumer publishes data + 1 (store value 1 + loaded dep).
        assert _word(image, 0x2_0000 + 16 * i) == data + 1


def test_unknown_kernel_rejected():
    with pytest.raises(ConfigError, match="unknown trace kernel"):
        build_kernel("quicksort")


# -- golden corpus ------------------------------------------------------------


def test_bundled_traces_are_regeneration_stable():
    """tools/gen_traces.py --check proves every bundled trace file is
    byte-identical to what the generator produces today."""
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "gen_traces.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("name", sorted(TRACE_KERNELS))
def test_bundled_trace_loads_back_to_the_kernel(name):
    loaded = load_tasks(TRACES / f"{name}.jsonl")
    built = build_kernel(name)
    assert [t.ops for t in loaded] == [t.ops for t in built]
    assert [t.name for t in loaded] == [t.name for t in built]


# -- the trace:<file> workload scheme ----------------------------------------


def test_trace_prefix_parsing():
    assert is_trace_workload("trace:a/b.jsonl")
    assert not is_trace_workload("compress")
    assert trace_path("trace:a/b.jsonl") == "a/b.jsonl"


def test_trace_scale_repeats_the_whole_program():
    assert trace_repeats(1.0) == 1
    assert trace_repeats(0.02) == 1  # never truncates below one run
    assert trace_repeats(2.6) == 3

    path = TRACES / "memcpy.jsonl"
    base = trace_tasks(str(path), scale=1)
    tripled = trace_tasks(str(path), scale=3)
    assert len(tripled) == 3 * len(base)
    assert tripled[0].name == base[0].name
    assert tripled[len(base)].name == f"{base[0].name}@1"
    assert [t.ops for t in tripled[: len(base)]] == [t.ops for t in base]


def test_resolve_tasks_routes_both_schemes():
    trace = resolve_tasks(f"trace:{TRACES / 'memcpy.jsonl'}", 1)
    assert trace[0].name == "init"
    spec = resolve_tasks("compress", 0.02)
    assert len(spec) > 0


def test_empty_trace_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(ConfigError, match="no tasks"):
        trace_tasks(str(path))


# -- result-store keys track trace content -----------------------------------


def test_point_key_tracks_trace_content(tmp_path):
    from repro.common.config import SVCConfig
    from repro.harness.parallel import PointSpec
    from repro.harness.resultstore import point_key
    from repro.svc.designs import final_design

    path = tmp_path / "workload.jsonl"
    dump_tasks(build_kernel("memcpy"), path)
    spec = PointSpec(
        f"trace:{path}", "svc_4x8k", "svc",
        final_design(SVCConfig.paper_32kb()), 1.0, None,
    )
    before = point_key(spec)
    assert before == point_key(spec)  # stable

    dump_tasks(build_kernel("histogram"), path)
    assert point_key(spec) != before  # content change invalidates

    assert trace_digest(str(path)) == trace_digest(str(path))
