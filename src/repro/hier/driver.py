"""Functional speculative-execution driver.

Replays a list of task programs over a speculative memory system (SVC or
ARB) under an arbitrary — by default randomized — interleaving of PU
steps, faithfully exercising the hierarchical execution model:

* tasks are dispatched in sequence order to free PUs,
* each PU executes its task's operations in program order (the paper's
  per-PU load/store queue guarantee) while PUs interleave freely,
* a store that triggers a memory-dependence violation squashes the
  offending task and everything younger; the driver re-dispatches them,
* optional injected "misprediction" squashes exercise the recovery paths
  at random points,
* tasks commit strictly in sequence order (head first).

The driver records the load values observed by the *committed* execution
of every task; :mod:`repro.oracle` checks them — and the drained memory
image — against a sequential execution of the same program. This is the
machinery behind the hypothesis property tests.

The memory system must provide the duck-typed interface of
:class:`repro.svc.SVCSystem`: ``begin_task``, ``commit_head``,
``squash_from_rank``, ``load``, ``store``, ``drain`` and ``n_units``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ReplacementStall, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.hier.task import OpKind, TaskProgram
from repro.telemetry import RUN, SQUASH


@dataclass
class _TaskState:
    program: TaskProgram
    pu: Optional[int] = None
    op_index: int = 0
    observed_loads: List[int] = field(default_factory=list)
    #: op index -> loaded value for this execution attempt (dataflow
    #: into stores with value_deps).
    loaded_by_index: Dict[int, int] = field(default_factory=dict)
    executions: int = 0
    committed: bool = False

    @property
    def finished(self) -> bool:
        return self.op_index >= len(self.program.memory_ops)

    def op_position(self) -> int:
        """Index of the current memory op within the *full* op list
        (value_deps are expressed in full-list positions)."""
        positions = [
            i for i, op in enumerate(self.program.ops) if op.kind != OpKind.COMPUTE
        ]
        return positions[self.op_index]


@dataclass
class DriverReport:
    """What a speculative run produced, for oracle comparison."""

    load_values: List[List[int]]
    steps: int
    violation_squashes: int
    injected_squashes: int
    replacement_stalls: int
    task_executions: List[int]


class SpeculativeExecutionDriver:
    """Randomized functional executor for the hierarchical model."""

    #: Scheduling policies: ``random`` interleaves arbitrarily;
    #: ``oldest_first`` approximates in-order progress (fewest
    #: violations); ``youngest_first`` is adversarial — consumers run
    #: ahead of producers, maximizing misspeculation and recovery.
    SCHEDULES = ("random", "oldest_first", "youngest_first")

    #: Scheduler rounds without a completed op or commit before the
    #: watchdog declares the run livelocked (a stalled-retry loop that
    #: will never resolve) instead of spinning to max_steps.
    WATCHDOG_ROUNDS = 250

    def __init__(
        self,
        system,
        tasks: List[TaskProgram],
        seed: int = 0,
        squash_probability: float = 0.0,
        max_steps: Optional[int] = None,
        schedule: str = "random",
        fault_plan: Optional[FaultPlan] = None,
        watchdog_rounds: Optional[int] = None,
    ) -> None:
        if schedule not in self.SCHEDULES:
            raise SimulationError(
                f"unknown schedule {schedule!r}; choose from {self.SCHEDULES}"
            )
        self.system = system
        self.tasks = [_TaskState(program=t) for t in tasks]
        self.rng = random.Random(seed)
        self.schedule = schedule
        self.squash_probability = squash_probability
        self.max_steps = (
            max_steps
            if max_steps is not None
            else 2000 + 400 * sum(len(t.memory_ops) + 1 for t in tasks)
        )
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        if self.fault_injector is not None:
            self.fault_injector.install(system)
        self.watchdog_rounds = (
            watchdog_rounds if watchdog_rounds is not None else self.WATCHDOG_ROUNDS
        )
        self._next_dispatch = 0
        #: First rank not yet committed; commits are strictly in rank
        #: order and never undone, so this only ever advances — an
        #: amortized-O(1) replacement for scanning the task list.
        self._head_ptr = 0
        self._free_pus = list(range(system.n_units))
        self._violations = 0
        self._injected = 0
        self._stalls = 0
        #: Monotone count of completed ops and commits — the watchdog's
        #: definition of forward progress.
        self._progress = 0
        #: Ranks whose last attempt hit a ReplacementStall; deprioritized
        #: by the deterministic schedules until something else progresses
        #: (prevents a youngest-first livelock on a stalled task).
        self._recently_stalled = set()
        #: Telemetry, resolved once at wiring time from the system.
        self._telemetry = getattr(system, "telemetry", None)

    # -- helpers ---------------------------------------------------------------

    def _dispatch(self) -> None:
        while self._free_pus and self._next_dispatch < len(self.tasks):
            rank = self._next_dispatch
            pu = self._free_pus.pop(0)
            state = self.tasks[rank]
            state.pu = pu
            state.op_index = 0
            state.observed_loads = []
            state.loaded_by_index = {}
            state.executions += 1
            self.system.begin_task(pu, rank)
            self._next_dispatch += 1

    def _head_rank(self) -> Optional[int]:
        tasks = self.tasks
        head = self._head_ptr
        while head < len(tasks) and tasks[head].committed:
            head += 1
        self._head_ptr = head
        if head >= len(tasks):
            return None
        return head if tasks[head].pu is not None else None

    def _reset_squashed(self, squashed_ranks: List[int]) -> None:
        """Re-dispatch squashed tasks on their PUs (same rank, fresh run)."""
        for rank in sorted(squashed_ranks):
            state = self.tasks[rank]
            if state.pu is None:
                raise SimulationError(f"squashed rank {rank} had no PU")
            state.op_index = 0
            state.observed_loads = []
            state.loaded_by_index = {}
            state.executions += 1
            self.system.begin_task(state.pu, rank)

    def _inject_squash(self) -> None:
        """Misprediction-style squash of a random non-head active task."""
        head = self._head_rank()
        active = [
            rank
            for rank, state in enumerate(self.tasks)
            if state.pu is not None and not state.committed and rank != head
        ]
        if not active:
            return
        victim = self.rng.choice(active)
        if self._telemetry is not None:
            self._telemetry.instant(
                SQUASH, f"inject squash rank {victim}", rank=victim,
                reason="misprediction",
            )
        squashed = self.system.squash_from_rank(victim, reason="misprediction")
        self._injected += 1
        self._reset_squashed(squashed)

    def _step_pu(self, rank: int) -> None:
        state = self.tasks[rank]
        # The head task is non-speculative (paper section 2): its stores are
        # architectural and may already have reached memory, so no squash
        # mechanism exists for it. A forced squash aimed at the current head
        # is therefore protocol-illegal and must not fire.
        if (
            self.fault_injector is not None
            and rank != self._head_rank()
            and self.fault_injector.forced_squash(rank, state.op_index)
        ):
            squashed = self.system.squash_from_rank(rank, reason="fault")
            self._injected += 1
            self._reset_squashed(squashed)
            return
        op = state.program.memory_ops[state.op_index]
        try:
            if op.kind == OpKind.LOAD:
                result = self.system.load(state.pu, op.addr, op.size)
                state.observed_loads.append(result.value)
                state.loaded_by_index[state.op_position()] = result.value
                state.op_index += 1
            elif op.kind == OpKind.STORE:
                value = op.store_value(state.loaded_by_index)
                result = self.system.store(state.pu, op.addr, value, op.size)
                state.op_index += 1
                if result.squashed_ranks:
                    self._violations += 1
                    self._reset_squashed(result.squashed_ranks)
            else:
                raise SimulationError(f"functional driver got op kind {op.kind!r}")
            self._recently_stalled.discard(rank)
            self._progress += 1
        except ReplacementStall:
            self._stalls += 1  # retried on a later step
            self._recently_stalled.add(rank)

    def _commit_head(self, rank: int) -> None:
        state = self.tasks[rank]
        self.system.commit_head(state.pu)
        state.committed = True
        self._free_pus.append(state.pu)
        state.pu = None
        self._progress += 1
        # A commit frees capacity: stalled tasks may proceed now.
        self._recently_stalled.clear()

    def _stall_report(self, rounds: int) -> str:
        """Per-rank diagnostics for a watchdog-detected livelock: which
        tasks are stuck, where, and how often they were re-executed."""
        lines = [
            f"no forward progress for {rounds} scheduler rounds "
            f"({self._stalls} replacement stalls so far); per-rank state:"
        ]
        for rank, state in enumerate(self.tasks):
            if state.committed:
                continue
            status = (
                "stalled" if rank in self._recently_stalled else "runnable"
            )
            where = (
                "waiting to dispatch"
                if state.pu is None
                else f"pu={state.pu} op {state.op_index}/"
                f"{len(state.program.memory_ops)}"
            )
            lines.append(
                f"  rank {rank}: {where} executions={state.executions} {status}"
            )
        return "\n".join(lines)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> DriverReport:
        telemetry = self._telemetry
        if telemetry is None:
            return self._run_impl()
        span = telemetry.begin(
            RUN,
            "functional run",
            tasks=len(self.tasks),
            schedule=self.schedule,
        )
        try:
            report = self._run_impl()
        finally:
            # Closes the span and any descendants a raise left open.
            telemetry.end(span)
        telemetry.end(
            span,
            steps=report.steps,
            violation_squashes=report.violation_squashes,
            injected_squashes=report.injected_squashes,
            replacement_stalls=report.replacement_stalls,
        )
        return report

    def _run_impl(self) -> DriverReport:
        steps = 0
        last_progress = self._progress
        stalled_rounds = 0
        self._dispatch()
        while not all(state.committed for state in self.tasks):
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    f"driver exceeded {self.max_steps} steps; "
                    "likely livelock in the protocol or the schedule"
                )
            if self._progress == last_progress:
                stalled_rounds += 1
                if stalled_rounds > self.watchdog_rounds:
                    raise SimulationError(self._stall_report(stalled_rounds))
            else:
                last_progress = self._progress
                stalled_rounds = 0
            if self.squash_probability and self.rng.random() < self.squash_probability:
                self._inject_squash()
            if (
                self.fault_injector is not None
                and self.fault_injector.wants_random_squash()
            ):
                self._inject_squash()

            head = self._head_rank()
            candidates = []
            for rank, state in enumerate(self.tasks):
                if state.pu is None or state.committed:
                    continue
                if state.finished:
                    if rank == head:
                        candidates.append(("commit", rank))
                else:
                    candidates.append(("op", rank))
            if not candidates:
                raise SimulationError("no runnable PU and tasks remain")
            preferred = [
                c for c in candidates if c[1] not in self._recently_stalled
            ] or candidates
            if self.schedule == "oldest_first":
                action, rank = min(preferred, key=lambda c: c[1])
            elif self.schedule == "youngest_first":
                # Commits still happen when only a commit is possible;
                # otherwise always push the youngest task forward.
                ops = [c for c in preferred if c[0] == "op"]
                action, rank = max(ops or preferred, key=lambda c: c[1])
            else:
                action, rank = self.rng.choice(candidates)
            if action == "commit":
                self._commit_head(rank)
                self._dispatch()
            else:
                self._step_pu(rank)

        self.system.drain()
        return DriverReport(
            load_values=[state.observed_loads for state in self.tasks],
            steps=steps,
            violation_squashes=self._violations,
            injected_squashes=self._injected,
            replacement_stalls=self._stalls,
            task_executions=[state.executions for state in self.tasks],
        )
