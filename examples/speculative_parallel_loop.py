"""Thread-level speculation: auto-parallelizing sequential loops.

The paper's closing argument (sections 2.3 and 5): with an SVC,
parallelizing software "can be less conservative on sequential programs"
— it may cut any loop into tasks and let the hardware detect the
iterations that truly conflict.

Three loops from the trace-kernel library
(:mod:`repro.workloads.traceprog`) with very different dependence
structure run speculatively:

* a histogram (data-dependent conflicts: unpredictable statically),
* a word copy (independent iterations: zero violation squashes),
* a pointer chase with node revisits (occasional true dependences).

Each kernel's first task stores the loop's input. The demo writes those
stores straight into main memory, runs the loop's tasks speculatively,
and checks the drained memory against a sequential execution of the
whole kernel.

Run:  python examples/speculative_parallel_loop.py
"""

from repro.common.config import SVCConfig
from repro.hier.driver import SpeculativeExecutionDriver
from repro.oracle.sequential import SequentialOracle
from repro.svc.designs import final_design
from repro.svc.system import SVCSystem
from repro.workloads.traceprog import (
    histogram_kernel,
    memcpy_kernel,
    pointer_chase_kernel,
)


def run_loop(kernel, seed):
    """Preload the kernel's input, run the loop on the final SVC, and
    check the drained memory against the sequential execution."""
    init, loop = kernel[0], kernel[1:]
    system = SVCSystem(final_design(SVCConfig.paper_32kb()))
    for op in init.ops:
        system.memory.write_int(op.addr, op.size, op.value)
    report = SpeculativeExecutionDriver(system, loop, seed=seed).run()
    expected = SequentialOracle().run(kernel).memory_image
    assert system.memory.image() == expected, "differs from sequential run"
    return len(loop), report.violation_squashes


def main() -> None:
    print("Speculatively parallelized loops on the SVC "
          "(results verified against sequential execution):\n")
    tasks, squashes = run_loop(histogram_kernel(n_values=200, n_bins=16), 0)
    print(f"histogram    : {tasks:3d} tasks, {squashes:3d} violation "
          "squashes, result matches sequential execution")
    tasks, squashes = run_loop(memcpy_kernel(n=128), 1)
    print(f"memcpy       : {tasks:3d} tasks, {squashes:3d} violation "
          "squashes (independent iterations -> speculation always wins)")
    tasks, squashes = run_loop(
        pointer_chase_kernel(chain_length=120, n_nodes=24), 3
    )
    print(f"pointer chase: {tasks:3d} tasks, {squashes:3d} violation "
          "squashes, all node counters correct")


if __name__ == "__main__":
    main()
