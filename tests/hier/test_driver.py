"""Functional speculative driver: scheduling, squash recovery, reports."""

import pytest

from conftest import make_svc
from repro.common.errors import SimulationError
from repro.faults import FaultPlan
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import MemOp, TaskProgram


def chain_tasks(n, addr=0x100):
    """Task i stores i then loads: a forwarding chain across tasks."""
    tasks = []
    for i in range(n):
        tasks.append(TaskProgram(ops=[MemOp.load(addr), MemOp.store(addr, i + 1)]))
    return tasks


def test_runs_more_tasks_than_pus():
    system = make_svc("final")
    tasks = chain_tasks(10)
    report = SpeculativeExecutionDriver(system, tasks, seed=1).run()
    # Every committed task observed its predecessor's value.
    assert report.load_values == [[i] for i in range(10)]


def test_violations_are_recovered():
    system = make_svc("final")
    tasks = [
        TaskProgram(ops=[MemOp.store(0x100, 42)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    # Seed chosen arbitrarily; whatever interleaving happens, the
    # committed value must be the sequential one.
    report = SpeculativeExecutionDriver(system, tasks, seed=3).run()
    assert report.load_values[1] == [42]


def test_injected_squashes_preserve_semantics():
    system = make_svc("final")
    tasks = chain_tasks(8)
    report = SpeculativeExecutionDriver(
        system, tasks, seed=5, fault_plan=FaultPlan(seed=5, squash_rate=0.3)
    ).run()
    assert report.load_values == [[i] for i in range(8)]
    assert report.injected_squashes > 0
    assert max(report.task_executions) > 1  # some task really re-ran


def test_empty_tasks_commit():
    system = make_svc("final")
    tasks = [TaskProgram(ops=[]) for _ in range(6)]
    report = SpeculativeExecutionDriver(system, tasks, seed=0).run()
    assert report.load_values == [[]] * 6


def test_max_steps_guard():
    system = make_svc("final")
    tasks = chain_tasks(4)
    driver = SpeculativeExecutionDriver(system, tasks, seed=0, max_steps=1)
    with pytest.raises(SimulationError):
        driver.run()


def test_report_counts_steps_and_stalls():
    system = make_svc("final")
    report = SpeculativeExecutionDriver(system, chain_tasks(5), seed=2).run()
    assert report.steps >= 15  # ops + commits
    assert report.replacement_stalls == 0
