"""Property-based correctness for the ARB baseline.

The same sequential-semantics obligation as the SVC property tests,
over the shared-buffer design: random programs, random interleavings,
random squashes, verified against the sequential oracle.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, CacheGeometry
from repro.faults import FaultPlan
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import MemOp, TaskProgram
from repro.oracle.sequential import SequentialOracle, verify_run

ADDRESS_POOL = [0x1000 + 4 * i for i in range(8)]


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


def run_and_verify(tasks, seed, squash_rate, n_rows=32):
    config = ARBConfig(
        n_rows=n_rows,
        cache_geometry=CacheGeometry(size_bytes=256, associativity=1, line_size=16),
    )
    system = ARBSystem(config)
    driver = SpeculativeExecutionDriver(
        system, tasks, seed=seed,
        fault_plan=FaultPlan(seed=seed, squash_rate=squash_rate),
    )
    report = driver.run()
    oracle = SequentialOracle().run(tasks)
    problems = verify_run(report, oracle, system.memory)
    assert problems == [], "\n".join(problems)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tasks=task_programs(), seed=st.integers(0, 2**16))
def test_random_interleavings(tasks, seed):
    run_and_verify(tasks, seed, squash_rate=0.0)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tasks=task_programs(), seed=st.integers(0, 2**16))
def test_with_injected_squashes(tasks, seed):
    run_and_verify(tasks, seed, squash_rate=0.15)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tasks=task_programs(), seed=st.integers(0, 2**16))
def test_tiny_buffer_with_reclaim(tasks, seed):
    """A 4-row ARB exercises full-buffer stalls and head reclaim."""
    run_and_verify(tasks, seed, squash_rate=0.1, n_rows=4)
