"""Driver scheduling policies, including the adversarial one."""

import pytest

from conftest import make_svc
from repro.common.errors import SimulationError
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import MemOp, TaskProgram
from repro.oracle.sequential import SequentialOracle, verify_run


def producer_consumer_chain(n=8, addr=0x100):
    tasks = [TaskProgram(ops=[MemOp.store(addr, 1)])]
    for _ in range(n - 1):
        tasks.append(TaskProgram(ops=[MemOp.load(addr),
                                      MemOp.store(addr, 1, value_deps=(0,))]))
    return tasks


def test_unknown_schedule_rejected():
    with pytest.raises(SimulationError):
        SpeculativeExecutionDriver(make_svc("final"), [], schedule="zigzag")


def test_oldest_first_never_misspeculates():
    tasks = producer_consumer_chain()
    system = make_svc("final")
    report = SpeculativeExecutionDriver(
        system, tasks, schedule="oldest_first"
    ).run()
    assert report.violation_squashes == 0
    assert system.memory.read_int(0x100, 4) == len(tasks)


def test_youngest_first_maximizes_misspeculation_but_stays_correct():
    tasks = producer_consumer_chain()
    system = make_svc("final")
    report = SpeculativeExecutionDriver(
        system, tasks, schedule="youngest_first"
    ).run()
    # Every consumer raced ahead of its producer at least once.
    assert report.violation_squashes >= len(tasks) - 2
    oracle = SequentialOracle().run(tasks)
    assert verify_run(report, oracle, system.memory) == []


def test_adversarial_schedule_survives_capacity_pressure():
    """Youngest-first plus a tiny cache: stalled speculative tasks must
    not livelock the scheduler."""
    from conftest import small_geometry
    from repro.check import InvariantChecker
    from repro.common.config import SVCConfig
    from repro.svc.designs import design_config
    from repro.svc.system import SVCSystem

    system = SVCSystem(
        design_config("final", SVCConfig(
            geometry=small_geometry(size_bytes=64, associativity=2),
        )),
        checker=InvariantChecker(),
    )
    stride = system.geometry.n_sets * system.geometry.line_size
    tasks = [
        TaskProgram(ops=[MemOp.store(0x1000 + w * stride, i) for w in range(3)])
        for i in range(5)
    ]
    report = SpeculativeExecutionDriver(
        system, tasks, schedule="youngest_first"
    ).run()
    assert report.replacement_stalls > 0
    oracle = SequentialOracle().run(tasks)
    assert verify_run(report, oracle, system.memory) == []


@pytest.mark.parametrize("schedule", SpeculativeExecutionDriver.SCHEDULES)
def test_all_schedules_preserve_semantics(schedule):
    tasks = producer_consumer_chain(6)
    system = make_svc("final")
    report = SpeculativeExecutionDriver(
        system, tasks, seed=7, schedule=schedule
    ).run()
    oracle = SequentialOracle().run(tasks)
    assert verify_run(report, oracle, system.memory) == []
