"""Timing runs leave the sequential oracle's memory image behind.

The paper's numbers come from :class:`TimingSimulator`, so the claim that
speculative versioning preserves sequential semantics is checked on that
path too: each run's drained memory must equal a one-task-at-a-time
execution of the same stream. The SPEC95 streams carry no dataflow into
stores; the trace kernels do (``hist[b] += 1``), so their runs also
check that a store writes the value its attempt's loads produced.
"""

import pytest

from repro.arb.system import ARBSystem
from repro.check import InvariantChecker
from repro.common.config import ARBConfig, SVCConfig
from repro.oracle.sequential import SequentialOracle
from repro.svc.designs import DESIGNS, design_config, final_design
from repro.svc.system import SVCSystem
from repro.timing.simulator import TimingSimulator
from repro.workloads.spec95 import spec95_tasks
from repro.workloads.traceprog import TRACE_KERNELS, build_kernel

SCALE = 0.05

MACHINES = {
    "arb32k_1c": lambda: ARBSystem(
        ARBConfig.paper_32kb(hit_cycles=1), checker=InvariantChecker()
    ),
    "arb32k_4c": lambda: ARBSystem(
        ARBConfig.paper_32kb(hit_cycles=4), checker=InvariantChecker()
    ),
    "svc_final": lambda: SVCSystem(final_design(SVCConfig.paper_32kb())),
}


@pytest.mark.parametrize("model", ["compress", "mgrid"])
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_drained_memory_matches_the_sequential_oracle(machine, model):
    tasks = spec95_tasks(model, SCALE)
    system = MACHINES[machine]()
    assert system.n_units == 4
    report = TimingSimulator(system, tasks).run()
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)
    assert system.memory.image() == SequentialOracle().run(tasks).memory_image
    if system.checker is not None:
        assert system.checker.checks > 0


@pytest.mark.parametrize("kernel", sorted(TRACE_KERNELS))
@pytest.mark.parametrize("machine", sorted(DESIGNS) + ["arb32k_1c"])
def test_trace_kernel_stores_match_the_sequential_oracle(machine, kernel):
    tasks = build_kernel(kernel)
    if machine == "arb32k_1c":
        system = ARBSystem(ARBConfig.paper_32kb(hit_cycles=1))
    else:
        system = SVCSystem(design_config(machine, SVCConfig.paper_32kb()))
    TimingSimulator(system, tasks).run()
    assert system.memory.image() == SequentialOracle().run(tasks).memory_image
