"""Whole-processor timing: determinism, latency sensitivity, recovery."""

import pytest

from conftest import make_svc
from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, CacheGeometry
from repro.hier.task import MemOp, TaskProgram
from repro.timing.simulator import TimingSimulator
from repro.workloads.generator import WorkloadSpec, generate_tasks


def make_arb(hit_cycles=1):
    return ARBSystem(ARBConfig(
        hit_cycles=hit_cycles,
        cache_geometry=CacheGeometry(size_bytes=1024, associativity=1, line_size=16),
    ))


def simple_tasks(n=8, ops=6):
    tasks = []
    for i in range(n):
        body = [MemOp.store(0x100 + 16 * (i % 4), i)]
        body += [MemOp.compute(depends_on=(j,)) for j in range(ops - 1)]
        tasks.append(TaskProgram(ops=body))
    return tasks


def test_deterministic_runs():
    tasks = simple_tasks()
    a = TimingSimulator(make_svc("final"), tasks).run()
    b = TimingSimulator(make_svc("final"), tasks).run()
    assert a.cycles == b.cycles
    assert a.ipc == b.ipc


def test_all_instructions_commit():
    tasks = simple_tasks()
    report = TimingSimulator(make_svc("final"), tasks).run()
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)
    assert report.cycles > 0


def test_arb_ipc_monotone_in_hit_latency():
    tasks = simple_tasks(n=16)
    ipcs = [
        TimingSimulator(make_arb(hit), tasks).run().ipc for hit in (1, 2, 4)
    ]
    assert ipcs[0] >= ipcs[1] >= ipcs[2]


def test_violation_squash_costs_cycles():
    # Task 1 loads what task 0 stores; make task 0 slow so the load
    # runs ahead, misspeculates and is squashed.
    slow_store = TaskProgram(
        ops=[MemOp.compute(latency=4)] * 10 + [MemOp.store(0x100, 7)]
    )
    eager_load = TaskProgram(ops=[MemOp.load(0x100)])
    report = TimingSimulator(make_svc("final"), [slow_store, eager_load]).run()
    assert report.violation_squashes >= 1


def test_mispredicted_task_squashes_and_recovers():
    tasks = simple_tasks(n=6)
    tasks[2] = TaskProgram(ops=tasks[2].ops, mispredicted=True)
    report = TimingSimulator(make_svc("final"), tasks).run()
    assert report.misprediction_squashes == 1
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)


def test_memory_stats_flow_through():
    report = TimingSimulator(make_svc("final"), simple_tasks()).run()
    assert report.memory_stats.get("stores", 0) > 0
    assert 0 <= report.bus_utilization() <= 1
    assert 0 <= report.miss_ratio() <= 1


def test_pu_count_must_match():
    from repro.common.config import ProcessorConfig
    from repro.common.errors import SimulationError

    with pytest.raises(SimulationError):
        TimingSimulator(
            make_svc("final"), simple_tasks(), ProcessorConfig(n_pus=2)
        )


def test_faster_memory_means_fewer_cycles():
    """Hit latency must show up in end-to-end cycles (the paper's
    central sensitivity)."""
    loads = [
        TaskProgram(ops=[MemOp.load(0x100), MemOp.compute(depends_on=(0,))] * 8)
        for _ in range(8)
    ]
    fast = TimingSimulator(make_arb(hit_cycles=1), loads).run()
    slow = TimingSimulator(make_arb(hit_cycles=4), loads).run()
    assert slow.cycles > fast.cycles


@pytest.mark.parametrize("system", ["svc", "arb"])
def test_run_counts_memory_ops_without_building_the_lists(system):
    """``committed_memory_ops`` is each program's cached count; a timing
    run never materializes ``TaskProgram.memory_ops``."""
    tasks = generate_tasks(
        WorkloadSpec(name="count", n_tasks=24, ops_per_task_mean=16, seed=3)
    )
    memory = make_svc("final") if system == "svc" else make_arb()
    report = TimingSimulator(memory, tasks).run()
    assert all(task._memory_ops is None for task in tasks)
    expected = sum(len(task.memory_ops) for task in tasks)
    assert expected > 0
    assert report.committed_memory_ops == expected
