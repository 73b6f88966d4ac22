"""Trace-program frontend: regression kernels as trace files, and the
``trace:<file>`` workload scheme the campaign runners accept.

:mod:`repro.workloads.traceio` defines the interchange *format*; this
module makes it a real workload source. Two halves:

* **Kernel lowering** — :data:`TRACE_KERNELS` holds ~6 small regression
  kernels (memcpy, strided sum, pointer chase, producer/consumer,
  lock-free counter, histogram), each lowered to a self-contained task
  list: trace files carry no initial memory image, so every kernel's
  first task *stores* its input data and the rest compute over it. All
  generation is seeded — the same kernel name always lowers to the same
  ops, which is what lets ``examples/traces/`` be golden files
  (regenerated byte-identically by ``tools/gen_traces.py``). The
  builders take sizes too: ``examples/speculative_parallel_loop.py``
  runs larger histogram, memcpy and pointer-chase loops.
* **Workload resolution** — :func:`resolve_tasks` is the single entry
  point the experiment runners call: a plain name resolves through the
  SPEC95 profiles, a ``trace:<file>`` name loads the trace. For traces,
  ``scale`` repeats the whole program (truncating or stretching a trace
  would change its semantics; re-running it only lengthens the run), so
  ``--scale 3`` means three back-to-back executions.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.hier.task import MemOp, TaskProgram
from repro.workloads.spec95 import scale_factor, spec95_tasks
from repro.workloads.traceio import load_tasks

WORD = 4

#: Workload-name scheme prefix: ``trace:<path-to-jsonl>``.
TRACE_PREFIX = "trace:"

#: Disjoint base addresses per role, comfortably apart so kernels can
#: grow without colliding (all kernels stay well under 4KB per region).
_SRC_BASE = 0x1_0000
_DST_BASE = 0x2_0000
_ACC_BASE = 0x3_0000
_NODE_BASE = 0x4_0000
_FLAG_BASE = 0x5_0000
_HIST_BASE = 0x6_0000


def _init_task(image: Dict[int, int], name: str) -> TaskProgram:
    """A leading task that stores ``image`` (word addr -> value): the
    trace format has no initial-memory record, so input data is code."""
    ops = [
        MemOp.store(addr, value, WORD)
        for addr, value in sorted(image.items())
    ]
    return TaskProgram(ops=ops, name=name)


def _rmw(ops: List[MemOp], addr: int, increment: int) -> None:
    """Append a load/compute/store read-modify-write of one word."""
    load_index = len(ops)
    ops.append(MemOp.load(addr, WORD))
    ops.append(MemOp.compute(latency=1, depends_on=(load_index,)))
    ops.append(
        MemOp.store(
            addr, increment, WORD,
            depends_on=(load_index + 1,),
            value_deps=(load_index,),
        )
    )


def memcpy_kernel(n: int = 24, per_task: int = 4) -> List[TaskProgram]:
    """``dst[i] = src[i]`` — embarrassingly parallel word copy."""
    rng = make_rng(11, "trace-memcpy")
    image = {_SRC_BASE + WORD * i: rng.randrange(1, 1000) for i in range(n)}
    tasks = [_init_task(image, "init")]
    for start in range(0, n, per_task):
        ops: List[MemOp] = []
        for i in range(start, min(start + per_task, n)):
            load_index = len(ops)
            ops.append(MemOp.load(_SRC_BASE + WORD * i, WORD))
            ops.append(
                MemOp.store(
                    _DST_BASE + WORD * i, 0, WORD,
                    depends_on=(load_index,),
                    value_deps=(load_index,),
                )
            )
        tasks.append(TaskProgram(ops=ops, name=f"memcpy[{start}..]"))
    return tasks


def strided_sum_kernel(
    n: int = 24, stride: int = 3, per_task: int = 4
) -> List[TaskProgram]:
    """``acc += a[i*stride]`` — a serial accumulator chain over a
    strided stream: every task truly depends on its predecessor."""
    rng = make_rng(12, "trace-strided-sum")
    image = {
        _SRC_BASE + WORD * i * stride: rng.randrange(1, 100) for i in range(n)
    }
    tasks = [_init_task(image, "init")]
    for start in range(0, n, per_task):
        ops: List[MemOp] = []
        acc_index = len(ops)
        ops.append(MemOp.load(_ACC_BASE, WORD))
        element_indices = []
        for i in range(start, min(start + per_task, n)):
            element_indices.append(len(ops))
            ops.append(MemOp.load(_SRC_BASE + WORD * i * stride, WORD))
        ops.append(
            MemOp.compute(
                latency=2, depends_on=tuple([acc_index] + element_indices)
            )
        )
        ops.append(
            MemOp.store(
                _ACC_BASE, 0, WORD,
                depends_on=(len(ops) - 1,),
                value_deps=tuple([acc_index] + element_indices),
            )
        )
        tasks.append(TaskProgram(ops=ops, name=f"sum[{start}..]"))
    return tasks


def pointer_chase_kernel(
    chain_length: int = 16, n_nodes: int = 6, per_task: int = 2
) -> List[TaskProgram]:
    """``node[c].value += 1`` along a revisiting chain: distinct nodes
    are independent, revisits are true cross-task dependences."""
    rng = make_rng(13, "trace-pointer-chase")
    chain = [rng.randrange(n_nodes) for _ in range(chain_length)]
    image = {
        _NODE_BASE + 2 * WORD * node: rng.randrange(1, 100)
        for node in range(n_nodes)
    }
    tasks = [_init_task(image, "init")]
    for start in range(0, len(chain), per_task):
        ops: List[MemOp] = []
        for i in range(start, min(start + per_task, len(chain))):
            _rmw(ops, _NODE_BASE + 2 * WORD * chain[i], 1)
        tasks.append(TaskProgram(ops=ops, name=f"chase[{start}..]"))
    return tasks


def producer_consumer_kernel(pairs: int = 8) -> List[TaskProgram]:
    """Producer stores data then a flag; the consumer task reads the
    flag, then the data, and publishes a derived result."""
    rng = make_rng(14, "trace-producer-consumer")
    tasks: List[TaskProgram] = []
    for i in range(pairs):
        data_addr = _SRC_BASE + 4 * WORD * i
        flag_addr = _FLAG_BASE + 4 * WORD * i
        out_addr = _DST_BASE + 4 * WORD * i
        value = rng.randrange(1, 1000)
        tasks.append(
            TaskProgram(
                ops=[
                    MemOp.store(data_addr, value, WORD),
                    MemOp.store(flag_addr, 1, WORD, depends_on=(0,)),
                ],
                name=f"produce[{i}]",
            )
        )
        tasks.append(
            TaskProgram(
                ops=[
                    MemOp.load(flag_addr, WORD),
                    MemOp.load(data_addr, WORD, depends_on=(0,)),
                    MemOp.compute(latency=1, depends_on=(1,)),
                    MemOp.store(
                        out_addr, 1, WORD,
                        depends_on=(2,), value_deps=(1,),
                    ),
                ],
                name=f"consume[{i}]",
            )
        )
    return tasks


def lockfree_counter_kernel(
    n_tasks: int = 12, increments_per_task: int = 2
) -> List[TaskProgram]:
    """Every task increments one shared counter — the maximal-conflict
    migratory line (each increment is a load/compute/store RMW)."""
    tasks: List[TaskProgram] = []
    for t in range(n_tasks):
        ops: List[MemOp] = []
        for _ in range(increments_per_task):
            _rmw(ops, _ACC_BASE, 1)
        tasks.append(TaskProgram(ops=ops, name=f"incr[{t}]"))
    return tasks


def histogram_kernel(
    n_values: int = 32, n_bins: int = 5, per_task: int = 4
) -> List[TaskProgram]:
    """``hist[v % bins] += 1`` — data-dependent bin conflicts. Loads the
    input word, then read-modify-writes the bin the generator chose."""
    rng = make_rng(15, "trace-histogram")
    values = [rng.randrange(1000) for _ in range(n_values)]
    image = {_SRC_BASE + WORD * i: value for i, value in enumerate(values)}
    tasks = [_init_task(image, "init")]
    for start in range(0, n_values, per_task):
        ops: List[MemOp] = []
        for i in range(start, min(start + per_task, n_values)):
            ops.append(MemOp.load(_SRC_BASE + WORD * i, WORD))
            _rmw(ops, _HIST_BASE + WORD * (values[i] % n_bins), 1)
        tasks.append(TaskProgram(ops=ops, name=f"hist[{start}..]"))
    return tasks


#: The bundled regression-kernel corpus (name -> zero-arg builder).
#: tools/gen_traces.py lowers each into examples/traces/<name>.jsonl.
TRACE_KERNELS: Dict[str, Callable[[], List[TaskProgram]]] = {
    "memcpy": memcpy_kernel,
    "strided_sum": strided_sum_kernel,
    "pointer_chase": pointer_chase_kernel,
    "producer_consumer": producer_consumer_kernel,
    "lockfree_counter": lockfree_counter_kernel,
    "histogram": histogram_kernel,
}


def build_kernel(name: str) -> List[TaskProgram]:
    """The task list of one named regression kernel."""
    try:
        builder = TRACE_KERNELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown trace kernel {name!r}; "
            f"choose from {sorted(TRACE_KERNELS)}"
        ) from None
    return builder()


def trace_repeats(scale: float = None) -> int:
    """Whole-program repetition count for a trace workload at ``scale``."""
    factor = scale_factor() if scale is None else scale
    return max(1, int(round(factor)))


def trace_tasks(path: str, scale: float = None) -> List[TaskProgram]:
    """Load a trace file, repeating the whole program per ``scale``."""
    base = load_tasks(path)
    if not base:
        raise ConfigError(f"trace file {path!r} contains no tasks")
    repeats = trace_repeats(scale)
    if repeats == 1:
        return base
    tasks: List[TaskProgram] = []
    for repeat in range(repeats):
        for task in base:
            name = task.name if repeat == 0 else f"{task.name}@{repeat}"
            tasks.append(
                TaskProgram(
                    ops=task.ops,
                    name=name,
                    mispredicted=task.mispredicted,
                )
            )
    return tasks


def is_trace_workload(benchmark: str) -> bool:
    return benchmark.startswith(TRACE_PREFIX)


def trace_path(benchmark: str) -> str:
    return benchmark[len(TRACE_PREFIX):]


def trace_digest(path: str) -> str:
    """Content digest of a trace file — part of the result-store key,
    so editing a trace invalidates its cached campaign points."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def resolve_tasks(benchmark: str, scale: float = None) -> List[TaskProgram]:
    """The task list behind one campaign-point benchmark name.

    ``trace:<file>`` loads a trace program (scale = whole-program
    repeats); anything else resolves through the SPEC95 profiles.
    """
    if is_trace_workload(benchmark):
        return trace_tasks(trace_path(benchmark), scale)
    return spec95_tasks(benchmark, scale)
