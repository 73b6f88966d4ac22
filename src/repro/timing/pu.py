"""Per-PU pipeline timing: dual-issue scheduling and the LSQ.

Each PU schedules its task's operations with an analytic in-order
dual-issue model: an operation issues when its intra-task dependences
have completed and an issue slot is free (``issue_width`` per cycle);
compute operations complete ``latency`` cycles later, memory operations
complete when the memory system says so. Memory operations issue in
program order through the load/store queue — the paper's per-PU ordering
guarantee — at most one per cycle (each PU has one address calculation
unit).

The scheduler runs *between* memory operations; at each memory operation
it stops and reports the issue-ready time, so the global simulator can
interleave all PUs' memory traffic in true time order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.config import ProcessorConfig
from repro.hier.task import MemOp, OpKind, TaskProgram
from repro.mem.mshr import MSHRFile


@dataclass(slots=True)
class PUTaskTiming:
    """Scheduling state for one task execution attempt on one PU."""

    pu_id: int
    rank: int
    program: TaskProgram
    start_time: int
    config: ProcessorConfig
    mshrs: Optional[MSHRFile] = None

    op_index: int = 0
    completions: List[int] = field(default_factory=list)
    #: Op index -> value this attempt's load observed (the dataflow
    #: into stores with ``value_deps``).
    loaded: List[int] = field(default_factory=list)
    _last_issue: int = 0
    _slots_used: int = 0
    _last_mem_issue: int = -1
    #: Event-staleness guard: bumped when the attempt is squashed.
    epoch: int = 0

    def __post_init__(self) -> None:
        self.completions = [0] * len(self.program.ops)
        self.loaded = [0] * len(self.program.ops)
        self._last_issue = self.start_time
        self._slots_used = 0
        self._last_mem_issue = self.start_time - 1

    # -- scheduling ---------------------------------------------------------------

    def schedule_to_next_mem(self) -> Optional[Tuple[int, MemOp]]:
        """Schedule compute ops up to the next memory op.

        Returns ``(issue_ready_time, op)`` for the pending memory
        operation, or ``None`` when the task has no further memory ops
        (it then finishes at :meth:`done_time`).

        An op's *ready* time is the latest completion of its intra-task
        dependences (clamped to the task start); its *issue* cycle is
        the first cycle at or after ready with one of the
        ``issue_width`` in-order slots free. This is the inner loop of
        the whole timing simulator, so the slot state lives in locals
        for the duration of the run and is written back only when the
        loop pauses at a memory op or the task ends.
        """
        ops = self.program.ops
        op_index = self.op_index
        n_ops = len(ops)
        completions = self.completions
        start_time = self.start_time
        last_issue = self._last_issue
        slots_used = self._slots_used
        issue_width = self.config.issue_width
        compute = OpKind.COMPUTE
        while op_index < n_ops:
            op = ops[op_index]
            ready = start_time
            for dep in op.depends_on:
                if 0 <= dep < op_index and completions[dep] > ready:
                    ready = completions[dep]
            # In-order issue_width-per-cycle slot assignment.
            if ready > last_issue:
                last_issue = ready
                slots_used = 1
            elif slots_used >= issue_width:
                last_issue += 1
                slots_used = 1
            else:
                slots_used += 1
            if op.kind == compute:
                completions[op_index] = last_issue + op.latency
                op_index += 1
                continue
            # Memory op: one per cycle, program order through the LSQ,
            # one cycle of address generation.
            self.op_index = op_index
            self._last_issue = last_issue
            self._slots_used = slots_used
            issue = last_issue
            if issue <= self._last_mem_issue:
                issue = self._last_mem_issue + 1
            return issue + self.config.timing.agen_cycles, op
        self.op_index = op_index
        self._last_issue = last_issue
        self._slots_used = slots_used
        return None

    def complete_mem(self, issue_time: int, end_time: int) -> None:
        """Record the pending memory op's completion and move past it."""
        self._last_mem_issue = issue_time
        self.completions[self.op_index] = end_time
        self.op_index += 1

    def defer_mem(self, until: int) -> None:
        """Push the pending memory op's issue time forward (stall)."""
        self._last_mem_issue = max(self._last_mem_issue, until - 1)

    def done_time(self) -> int:
        """Completion time of the whole task (call when no mem pending)."""
        if not self.program.ops:
            return self.start_time
        return max(max(self.completions), self.start_time)

    def reset(self, new_start: int) -> None:
        """Squash recovery: restart the attempt from scratch."""
        self.epoch += 1
        self.op_index = 0
        self.completions = [0] * len(self.program.ops)
        self.loaded = [0] * len(self.program.ops)
        self.start_time = new_start
        self._last_issue = new_start
        self._slots_used = 0
        self._last_mem_issue = new_start - 1
        if self.mshrs is not None:
            self.mshrs.flush()
