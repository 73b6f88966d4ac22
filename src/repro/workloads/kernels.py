"""Algorithmic loop kernels as task programs.

The paper motivates the SVC as the memory system that lets a compiler
parallelize sequential programs *speculatively*: take a loop whose
iterations may or may not be independent, make each iteration a task,
and let the hardware detect the iterations that actually conflicted
(section 2.3: "the parallelizing software can be less conservative").

These kernels build real computations in that form; the examples and
tests execute them speculatively and check the results against plain
Python.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.rng import make_rng
from repro.hier.task import MemOp, TaskProgram

WORD = 4


def histogram_kernel(
    values: Sequence[int],
    n_bins: int,
    iterations_per_task: int = 4,
    histogram_base: int = 0x20_0000,
    input_base: int = 0x10_0000,
) -> Tuple[List[TaskProgram], Dict[int, int]]:
    """``for v in values: hist[v % n_bins] += 1`` as speculative tasks.

    Iterations conflict exactly when two nearby values share a bin — a
    data-dependent, unpredictable cross-iteration dependence that static
    parallelization must assume always exists. Returns (tasks, initial
    memory image holding the input array).
    """
    image: Dict[int, int] = {}
    for i, value in enumerate(values):
        addr = input_base + WORD * i
        for b, byte in enumerate(int(value).to_bytes(WORD, "little", signed=False)):
            image[addr + b] = byte

    tasks: List[TaskProgram] = []
    for start in range(0, len(values), iterations_per_task):
        ops: List[MemOp] = []
        for i in range(start, min(start + iterations_per_task, len(values))):
            bin_addr = histogram_base + WORD * (values[i] % n_bins)
            # load hist[bin]; add 1 (a dependent compute cycle); store
            # the incremented count (value = loaded + 1).
            load_index = len(ops)
            ops.append(MemOp.load(bin_addr))
            ops.append(MemOp.compute(latency=1, depends_on=(load_index,)))
            ops.append(
                MemOp.store(
                    bin_addr, 1,
                    depends_on=(load_index + 1,),
                    value_deps=(load_index,),
                )
            )
        tasks.append(TaskProgram(ops=ops, name=f"hist[{start}..]"))
    return tasks, image


def reference_histogram(values: Sequence[int], n_bins: int) -> List[int]:
    bins = [0] * n_bins
    for value in values:
        bins[value % n_bins] += 1
    return bins


def stencil_kernel(
    n: int,
    iterations_per_task: int = 8,
    src_base: int = 0x10_0000,
    dst_base: int = 0x30_0000,
) -> List[TaskProgram]:
    """``dst[i] = src[i-1] + src[i] + src[i+1]`` — an embarrassingly
    parallel loop (no cross-iteration output dependences): the
    speculative run should see no violation squashes at all."""
    tasks: List[TaskProgram] = []
    for start in range(1, n - 1, iterations_per_task):
        ops: List[MemOp] = []
        for i in range(start, min(start + iterations_per_task, n - 1)):
            first = len(ops)
            ops.append(MemOp.load(src_base + WORD * (i - 1)))
            ops.append(MemOp.load(src_base + WORD * i))
            ops.append(MemOp.load(src_base + WORD * (i + 1)))
            ops.append(MemOp.compute(
                latency=1, depends_on=(first, first + 1, first + 2)
            ))
            ops.append(MemOp.store(
                dst_base + WORD * i, 0,
                depends_on=(first + 3,),
                value_deps=(first, first + 1, first + 2),
            ))
        tasks.append(TaskProgram(ops=ops, name=f"stencil[{start}..]"))
    return tasks


def pointer_chase_kernel(
    chain: Sequence[int],
    updates_per_task: int = 2,
    node_base: int = 0x40_0000,
) -> Tuple[List[TaskProgram], Dict[int, int]]:
    """Linked-list value updates: node[i].value += 1 along a chain.

    ``chain`` gives the node order; node i's slot sits at
    ``node_base + 8*chain[i]`` (value word + padding). Distinct nodes
    are independent; a chain that revisits a node creates a true
    cross-task dependence.
    """
    image: Dict[int, int] = {}
    seed_rng = make_rng(1, "pointer-chase")
    for node in set(chain):
        addr = node_base + 8 * node
        for b, byte in enumerate(
            int(seed_rng.randrange(1, 100)).to_bytes(WORD, "little")
        ):
            image[addr + b] = byte

    tasks: List[TaskProgram] = []
    for start in range(0, len(chain), updates_per_task):
        ops: List[MemOp] = []
        for i in range(start, min(start + updates_per_task, len(chain))):
            addr = node_base + 8 * chain[i]
            load_index = len(ops)
            ops.append(MemOp.load(addr))
            ops.append(MemOp.compute(latency=1, depends_on=(load_index,)))
            ops.append(MemOp.store(
                addr, 1,
                depends_on=(load_index + 1,),
                value_deps=(load_index,),
            ))
        tasks.append(TaskProgram(ops=ops, name=f"chase[{start}..]"))
    return tasks, image
