"""Timing runs commit the sequential oracle's load values and leave its
memory image behind.

The paper's numbers come from :class:`TimingSimulator`, so the claim that
speculative versioning preserves sequential semantics is checked on that
path too: each committed task's loads, and each run's drained memory,
must equal a one-task-at-a-time execution of the same stream. The
simulator does not report load values, so the tests read them from the
committing attempt's state as ``commit_head`` is called. The SPEC95
streams carry no dataflow into stores; the trace kernels do
(``hist[b] += 1``), so their runs also check that a store writes the
value its attempt's loads produced.
"""

import pytest

from repro.arb.system import ARBSystem
from repro.check import InvariantChecker
from repro.common.config import ARBConfig, SVCConfig
from repro.hier.task import OpKind
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


def run_recording_commits(system, tasks):
    """Time ``tasks`` on ``system``. Returns the report and, in rank order,
    the load values each task committed: ``commit_head`` is wrapped to
    read the committing attempt's ``loaded`` at its load indices."""
    simulator = TimingSimulator(system, tasks)
    committed = {}
    commit_head = system.commit_head

    def recording_commit_head(pu, now=0):
        state = simulator._states[pu]
        committed[state.rank] = [
            state.loaded[index]
            for index, op in enumerate(state.program.ops)
            if op.kind == OpKind.LOAD
        ]
        return commit_head(pu, now=now)

    system.commit_head = recording_commit_head
    report = simulator.run()
    assert sorted(committed) == list(range(len(tasks)))
    return report, [committed[rank] for rank in range(len(tasks))]


@pytest.mark.parametrize("model", ["compress", "mgrid"])
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_drained_memory_matches_the_sequential_oracle(machine, model):
    tasks = spec95_tasks(model, SCALE)
    system = MACHINES[machine]()
    assert system.n_units == 4
    report, load_values = run_recording_commits(system, tasks)
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)
    oracle = SequentialOracle().run(tasks)
    assert load_values == oracle.load_values
    assert system.memory.image() == oracle.memory_image
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
    _report, load_values = run_recording_commits(system, tasks)
    oracle = SequentialOracle().run(tasks)
    assert load_values == oracle.load_values
    assert system.memory.image() == oracle.memory_image
