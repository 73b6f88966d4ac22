"""Task and memory-operation data model.

A :class:`TaskProgram` is one fragment of the dynamic instruction stream:
the sequence of loads and stores it performs (the functional model) plus
optional non-memory instruction padding (consumed only by the timing
model). Ranks — the position of a task in the program's task sequence —
are assigned by whoever builds the task list, not stored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple


class OpKind:
    """Operation kinds a task can contain."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"  # non-memory instruction (timing model only)


@dataclass(frozen=True, slots=True)
class MemOp:
    """One operation of a task.

    For stores, the written data is ``value`` plus the sum of the values
    observed by the earlier *load* ops named in ``value_deps`` — enough
    dataflow to express real kernels (``hist[b] += 1`` is a load, then a
    store with ``value=1, value_deps=(load_index,)``). For loads,
    ``value`` is unused — the executed value is observed at run time.
    ``latency`` and ``depends_on`` matter only to the timing model:
    ``depends_on`` lists indices of earlier ops in the same task whose
    results this op consumes.
    """

    kind: str
    addr: int = 0
    size: int = 4
    value: int = 0
    latency: int = 1
    depends_on: Tuple[int, ...] = ()
    value_deps: Tuple[int, ...] = ()

    @staticmethod
    def load(addr: int, size: int = 4, **kwargs) -> "MemOp":
        return MemOp(kind=OpKind.LOAD, addr=addr, size=size, **kwargs)

    @staticmethod
    def store(addr: int, value: int, size: int = 4, **kwargs) -> "MemOp":
        return MemOp(kind=OpKind.STORE, addr=addr, size=size, value=value, **kwargs)

    def store_value(self, loaded_by_index) -> int:
        """The data a store writes, given the task's observed loads.

        ``loaded_by_index`` maps op index -> value for the loads of the
        current execution attempt.
        """
        total = self.value + sum(loaded_by_index[d] for d in self.value_deps)
        return total & ((1 << (8 * self.size)) - 1)

    @staticmethod
    def compute(latency: int = 1, depends_on: Tuple[int, ...] = ()) -> "MemOp":
        return MemOp(kind=OpKind.COMPUTE, latency=latency, depends_on=depends_on)


@dataclass(slots=True)
class TaskProgram:
    """One task: an ordered list of operations.

    ``mispredicted`` marks a task instance that the control-flow
    predictor would have gotten wrong: the timing sequencer dispatches
    it, later detects the misprediction, and squashes it and everything
    younger (section 2.1's task squash).

    Slotted: a workload holds thousands of tasks for the life of a run.
    The two derived values below are computed on first use and never
    invalidated: build a new TaskProgram rather than change ``ops``.
    """

    ops: List[MemOp] = field(default_factory=list)
    name: Optional[str] = None
    mispredicted: bool = False
    #: Filter of ``ops`` the functional driver indexes on every step, so
    #: it must not be rebuilt per access.
    _memory_ops: Optional[List[MemOp]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``len(memory_ops)`` without building the list: all the timing
    #: simulator needs.
    _memory_op_count: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def memory_ops(self) -> List[MemOp]:
        if self._memory_ops is None:
            self._memory_ops = [
                op for op in self.ops if op.kind != OpKind.COMPUTE
            ]
        return self._memory_ops

    @property
    def memory_op_count(self) -> int:
        """How many of ``ops`` are loads or stores."""
        if self._memory_op_count is None:
            compute = OpKind.COMPUTE
            self._memory_op_count = sum(1 for op in self.ops if op.kind != compute)
        return self._memory_op_count

    def __len__(self) -> int:
        return len(self.ops)


def task_program_from_ops(
    ops: Iterable[Sequence], name: Optional[str] = None
) -> TaskProgram:
    """Build a task from compact tuples.

    Accepts ``("load", addr)``, ``("load", addr, size)``,
    ``("store", addr, value)`` and ``("store", addr, value, size)`` —
    the format the tests and examples use for paper walkthroughs.
    """
    built: List[MemOp] = []
    for op in ops:
        kind = op[0]
        if kind == OpKind.LOAD:
            addr = op[1]
            size = op[2] if len(op) > 2 else 4
            built.append(MemOp.load(addr, size))
        elif kind == OpKind.STORE:
            addr, value = op[1], op[2]
            size = op[3] if len(op) > 3 else 4
            built.append(MemOp.store(addr, value, size))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return TaskProgram(ops=built, name=name)
