"""Timing simulator: structural stall and recovery paths."""

import dataclasses
import hashlib
import json

import pytest

from conftest import make_svc, small_geometry, stall_pressure
from repro.check import InvariantChecker
from repro.common.config import SVCConfig
from repro.common.errors import ReplacementStall, SimulationError
from repro.hier.task import MemOp, TaskProgram
from repro.oracle.sequential import SequentialOracle
from repro.svc.designs import final_design
from repro.svc.system import SVCSystem
from repro.timing.simulator import TimingSimulator


def test_replacement_stalls_retry_and_finish():
    """Tasks whose working set exceeds their set's ways must stall and
    retry (non-head), yet the run completes with correct totals."""
    config = final_design(SVCConfig(
        geometry=small_geometry(size_bytes=64, associativity=2),
    ))
    system = SVCSystem(config, checker=InvariantChecker())
    stride = system.geometry.n_sets * system.geometry.line_size
    tasks = []
    for i in range(6):
        ops = [MemOp.store(0x1000 + w * stride, i) for w in range(3)]
        tasks.append(TaskProgram(ops=ops))
    report = TimingSimulator(system, tasks).run()
    assert report.replacement_stall_retries > 0
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)


#: (tier, cycles, replacement-stall retries, memory_stats digest) of the
#: stall-pressure scenario. Every retry re-probes the memory system, so
#: these pin the retry path's timing and its stat accounting together.
STALL_PINS = [
    ("base", 241, 54, "889698199bc90edf"),
    ("ec", 235, 53, "a609453e101d4792"),
    ("ecs", 235, 53, "a609453e101d4792"),
    ("hr", 235, 53, "a609453e101d4792"),
    ("rl", 235, 53, "e46fb07e81e04cc7"),
    ("final", 235, 53, "e46fb07e81e04cc7"),
    ("arb", 224, 35, "4eb3128175a3d6da"),
]


@pytest.mark.parametrize(
    "tier,cycles,retries,stats_digest", STALL_PINS,
    ids=[pin[0] for pin in STALL_PINS],
)
def test_stall_path_reports_pinned(tier, cycles, retries, stats_digest):
    system, tasks = stall_pressure(tier)
    report = TimingSimulator(system, tasks).run()
    assert report.cycles == cycles
    assert report.replacement_stall_retries == retries
    digest = hashlib.sha256(
        json.dumps(sorted(report.memory_stats.items())).encode()
    ).hexdigest()[:16]
    assert digest == stats_digest
    assert system.memory.image() == SequentialOracle().run(tasks).memory_image


def test_long_running_head_is_not_a_livelock():
    """Task 0 stores to one set, then computes for 5000 cycles; tasks
    1-3 each store to three lines of that set, so they stall on
    replacement for as long as task 0 runs, far past 200 retries each.
    Only the head's own retries feed the watchdog."""
    system = SVCSystem(final_design(SVCConfig(
        geometry=small_geometry(size_bytes=64, associativity=2),
    )))
    stride = system.geometry.n_sets * system.geometry.line_size
    tasks = [TaskProgram(ops=[
        MemOp.store(0x1000, 99), MemOp.compute(latency=5000),
    ])]
    for i in range(1, 4):
        tasks.append(TaskProgram(
            ops=[MemOp.store(0x1000 + w * stride, i) for w in range(3)]
        ))
    report = TimingSimulator(system, tasks).run()
    assert report.replacement_stall_retries > 600
    assert system.memory.image() == SequentialOracle().run(tasks).memory_image


def test_watchdog_reports_a_stalled_head():
    """A head that can never store trips the watchdog, which names the
    head's PU and lists every PU's state."""
    system, tasks = stall_pressure("final")

    def always_stall(pu, addr, value, size, now):
        raise ReplacementStall(pu, addr)

    system.store = always_stall
    with pytest.raises(SimulationError) as excinfo:
        TimingSimulator(system, tasks).run()
    assert excinfo.type is SimulationError
    message = str(excinfo.value)
    assert message.startswith("PU 0 retried a replacement stall 201 times")
    for pu in range(4):
        assert f"  pu {pu}: rank {pu} op 0/6" in message


def test_mshr_pressure_defers_but_completes():
    """More outstanding misses than MSHRs: issue must defer, not drop."""
    config = dataclasses.replace(
        final_design(SVCConfig(geometry=small_geometry())),
        n_mshrs=1,
        mshr_combining=1,
    )
    system = SVCSystem(config)
    tasks = []
    for i in range(4):
        # Many distinct-line loads in a row: misses pile onto 1 MSHR.
        ops = [MemOp.load(0x4000 + 16 * (8 * i + j)) for j in range(8)]
        tasks.append(TaskProgram(ops=ops))
    report = TimingSimulator(system, tasks).run()
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)


def test_squash_restart_penalty_extends_cycles():
    fast = [
        TaskProgram(ops=[MemOp.store(0x100, 1)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    # The same program where the consumer is forced to run early:
    slow_producer = [
        TaskProgram(ops=[MemOp.compute(latency=8)] * 6 + [MemOp.store(0x100, 1)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    clean = TimingSimulator(make_svc("final"), fast).run()
    squashy = TimingSimulator(make_svc("final"), slow_producer).run()
    assert squashy.violation_squashes >= 1
    assert squashy.cycles > clean.cycles


def test_stale_events_from_squashed_attempts_ignored():
    """A squashed attempt's scheduled events must not corrupt the
    restarted attempt (epoch filtering)."""
    tasks = [
        TaskProgram(ops=[MemOp.compute(latency=6)] * 4 + [MemOp.store(0x100, 7)]),
        TaskProgram(ops=[MemOp.load(0x100), MemOp.load(0x100),
                         MemOp.load(0x100)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    report = TimingSimulator(make_svc("final"), tasks).run()
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)
    assert report.violation_squashes >= 1
