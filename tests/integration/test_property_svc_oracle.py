"""Property-based correctness: the SVC preserves sequential semantics.

Hypothesis generates random task programs (loads/stores over a small
address pool, with word and sub-word sizes), random PU interleavings and
random injected squashes; the functional driver replays them over every
SVC design level with protocol-invariant checking enabled, and
``FastpathKernel.audit`` re-derives every cached VOL snapshot from the
cache arrays after each bus transaction. After the run:

* every load value retained by a committed task equals what a purely
  sequential execution produces, and
* the drained architectural memory equals the sequential final image.

This is the paper's correctness obligation for speculative versioning
(section 1) stated as an executable property.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import InvariantChecker
from repro.common.config import CacheGeometry, SVCConfig
from repro.common.events import EventLog
from repro.faults import FaultPlan
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import MemOp, TaskProgram
from repro.oracle.sequential import SequentialOracle, verify_run
from repro.svc.designs import design_config
from repro.svc.system import SVCSystem

ADDRESS_POOL = [0x1000 + 4 * i for i in range(8)]

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def task_programs(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=8))
    tasks = []
    counter = 1
    for _ in range(n_tasks):
        n_ops = draw(st.integers(min_value=0, max_value=6))
        ops = []
        for _ in range(n_ops):
            addr = draw(st.sampled_from(ADDRESS_POOL))
            size = draw(st.sampled_from([1, 2, 4]))
            addr -= addr % size
            if draw(st.booleans()):
                ops.append(MemOp.load(addr, size))
            else:
                ops.append(MemOp.store(addr, counter % (1 << (8 * size)), size))
                counter += 1
        tasks.append(TaskProgram(ops=ops))
    return tasks


def run_and_verify(design, tasks, seed, squash_rate):
    config = design_config(
        design,
        SVCConfig(
            geometry=CacheGeometry(size_bytes=256, associativity=2, line_size=16),
        ),
    )
    system = SVCSystem(config, event_log=EventLog(), checker=InvariantChecker())

    def audit_snapshots(event):
        if event.kind == "bus":
            system.vcl.fastpath.audit()

    system.event_log.attach(audit_snapshots)
    driver = SpeculativeExecutionDriver(
        system, tasks, seed=seed,
        fault_plan=FaultPlan(seed=seed, squash_rate=squash_rate),
    )
    # run() ends with system.verify(), the structural audit of every
    # resident line, before it drains the caches.
    report = driver.run()
    oracle = SequentialOracle().run(tasks)
    problems = verify_run(report, oracle, system.memory)
    assert problems == [], "\n".join(problems)


@pytest.mark.parametrize("design", ["base", "ecs", "final"])
class TestSequentialSemantics:
    @SETTINGS
    @given(tasks=task_programs(), seed=st.integers(0, 2**16))
    def test_random_interleavings(self, design, tasks, seed):
        run_and_verify(design, tasks, seed, squash_rate=0.0)

    @SETTINGS
    @given(tasks=task_programs(), seed=st.integers(0, 2**16))
    def test_with_injected_squashes(self, design, tasks, seed):
        run_and_verify(design, tasks, seed, squash_rate=0.15)


@pytest.mark.parametrize("design", ["ec", "hr", "rl"])
class TestRemainingDesigns:
    """The other design levels, with a lighter example budget."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tasks=task_programs(), seed=st.integers(0, 2**16))
    def test_random_interleavings(self, design, tasks, seed):
        # The EC design assumes no squashes (section 3.4); others take them.
        squash = 0.0 if design == "ec" else 0.1
        run_and_verify(design, tasks, seed, squash_rate=squash)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tasks=task_programs(), seed=st.integers(0, 2**16))
def test_tiny_cache_with_evictions(tasks, seed):
    """A one-set-per-way cache forces evictions and replacement stalls
    on every conflict; semantics must survive the churn."""
    config = design_config(
        "final",
        SVCConfig(
            geometry=CacheGeometry(size_bytes=64, associativity=2, line_size=16),
        ),
    )
    system = SVCSystem(config, checker=InvariantChecker())
    report = SpeculativeExecutionDriver(system, tasks, seed=seed).run()
    oracle = SequentialOracle().run(tasks)
    problems = verify_run(report, oracle, system.memory)
    assert problems == [], "\n".join(problems)
