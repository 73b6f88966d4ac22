"""Functional speculative-execution driver.

Replays a list of task programs over a speculative memory system (SVC or
ARB) under an arbitrary — by default randomized — interleaving of PU
steps, faithfully exercising the hierarchical execution model:

* tasks are dispatched in sequence order to free PUs,
* each PU executes its task's operations in program order (the paper's
  per-PU load/store queue guarantee) while PUs interleave freely,
* a store that triggers a memory-dependence violation squashes the
  offending task and everything younger; the driver re-dispatches them,
* an optional :class:`~repro.faults.FaultPlan` injects "misprediction"
  squashes (at random steps, ``squash_rate``, or at chosen ops,
  ``squash_at``) to exercise the recovery paths,
* tasks commit strictly in sequence order (head first).

A run is a sequence of scheduler *actions*: ``("op", rank)`` executes
task ``rank``'s next memory op and ``("commit", rank)`` commits the
head. :meth:`SpeculativeExecutionDriver.run` chooses each one from
:meth:`~SpeculativeExecutionDriver.enabled` by its schedule. The model
checker (:mod:`repro.modelcheck`) chooses them itself through
:meth:`~SpeculativeExecutionDriver.apply`, and
:meth:`~SpeculativeExecutionDriver.run_script` replays a recorded list
of them, so the engine the model checker explores is the one the
property tests, the conformance corpus and the stress sweeps run. Every
run ends by auditing the system with its ``verify()`` (when it has one)
and then draining it.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReplacementStall, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.hier.task import MemOp, OpKind, TaskProgram
from repro.telemetry import RUN, SQUASH

#: One scheduler choice: ("op", rank) or ("commit", rank).
Action = Tuple[str, int]


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
    """Functional executor for the hierarchical model, stepped by its
    own schedule (:meth:`run`) or by the caller (:meth:`apply`)."""

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
        max_steps: Optional[int] = None,
        schedule: str = "random",
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if schedule not in self.SCHEDULES:
            raise SimulationError(
                f"unknown schedule {schedule!r}; choose from {self.SCHEDULES}"
            )
        self.system = system
        self.tasks = [_TaskState(program=t) for t in tasks]
        #: The RNG and the step bound are built by :meth:`run`, their only
        #: reader (the model checker steps a driver per node and never
        #: runs one); ``max_steps=None`` bounds the run by the task sizes.
        self.seed = seed
        self.rng: Optional[random.Random] = None
        self.schedule = schedule
        self.max_steps = max_steps
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        if self.fault_injector is not None:
            self.fault_injector.install(system)
        #: The first tasks are dispatched by the first stepping call, so
        #: that ``run()`` dispatches them inside its telemetry span.
        self._started = False
        self._next_dispatch = 0
        #: First rank not yet committed; commits are strictly in rank
        #: order and never undone, so this only ever advances — an
        #: amortized-O(1) replacement for scanning the task list.
        self._head_ptr = 0
        self._free_pus = list(range(system.n_units))
        self._steps = 0
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

    def _start(self) -> None:
        if not self._started:
            self._started = True
            self._dispatch()

    def _begin(self, rank: int, pu: int) -> None:
        """Start a fresh execution of task ``rank`` on ``pu``."""
        state = self.tasks[rank]
        state.pu = pu
        state.op_index = 0
        state.observed_loads = []
        state.loaded_by_index = {}
        state.executions += 1
        self.system.begin_task(pu, rank)

    def _dispatch(self) -> None:
        while self._free_pus and self._next_dispatch < len(self.tasks):
            self._begin(self._next_dispatch, self._free_pus.pop(0))
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
            pu = self.tasks[rank].pu
            if pu is None:
                raise SimulationError(f"squashed rank {rank} had no PU")
            self._begin(rank, pu)

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

    def _step_pu(self, rank: int) -> bool:
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
            return True
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
            return False
        return True

    def _commit_head(self, rank: int) -> None:
        state = self.tasks[rank]
        self.system.commit_head(state.pu)
        state.committed = True
        self._free_pus.append(state.pu)
        state.pu = None
        self._progress += 1
        # A commit frees capacity: stalled tasks may proceed now.
        self._recently_stalled.clear()
        self._dispatch()

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

    # -- stepping ----------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        """Every task has committed."""
        self._start()
        return all(state.committed for state in self.tasks)

    def enabled(self) -> List[Action]:
        """Every action the schedule may take next, in rank order: the
        next op of each running task, and the head's commit once its
        ops are done."""
        self._start()
        head = self._head_rank()
        actions: List[Action] = []
        for rank, state in enumerate(self.tasks):
            if state.pu is None or state.committed:
                continue
            if state.finished:
                if rank == head:
                    actions.append(("commit", rank))
            else:
                actions.append(("op", rank))
        return actions

    def current_op(self, rank: int) -> Optional[MemOp]:
        """The memory op an ``("op", rank)`` action would execute now."""
        state = self.tasks[rank]
        if state.committed or state.finished:
            return None
        return state.program.memory_ops[state.op_index]

    def apply(self, action: Action, lenient: bool = False) -> bool:
        """Take one action; returns True if it took effect.

        An action that is not enabled raises :class:`SimulationError`,
        or with ``lenient`` is skipped — what scripted replays need
        after shrinking removed ops the script still names. An op that
        hits a replacement stall is counted, returns False and stays
        enabled.
        """
        if action not in self.enabled():
            if lenient:
                return False
            raise SimulationError(f"action {action!r} is not enabled")
        return self._apply(action)

    def _apply(self, action: Action) -> bool:
        kind, rank = action
        self._steps += 1
        if kind == "commit":
            self._commit_head(rank)
            return True
        return self._step_pu(rank)

    # -- whole runs --------------------------------------------------------------

    def run(self) -> DriverReport:
        """Run every task to commit, each action chosen by the schedule,
        then audit and drain the system."""
        return self._traced(())

    def run_script(self, script: Sequence[Action]) -> DriverReport:
        """Replay a schedule script, then finish the run oldest-first.

        Script actions are applied leniently (skipped when not enabled),
        so shrunken scripts stay replayable; under ``oldest_first`` the
        head always progresses, so the run ends unless the protocol
        itself livelocks, which the step guard then reports.
        """
        self.schedule = "oldest_first"
        return self._traced(script)

    def _traced(self, script: Sequence[Action]) -> DriverReport:
        telemetry = self._telemetry
        if telemetry is None:
            return self._run_impl(script)
        span = telemetry.begin(
            RUN,
            "functional run",
            tasks=len(self.tasks),
            schedule=self.schedule,
        )
        try:
            report = self._run_impl(script)
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

    def _run_impl(self, script: Sequence[Action]) -> DriverReport:
        if self.rng is None:
            self.rng = random.Random(self.seed)
        max_steps = self.max_steps
        if max_steps is None:
            max_steps = 2000 + 400 * sum(
                len(state.program.memory_ops) + 1 for state in self.tasks
            )
        for action in script:
            self.apply(tuple(action), lenient=True)
        last_progress = self._progress
        stalled_rounds = 0
        while not self.terminal:
            if self._steps >= max_steps:
                raise SimulationError(
                    f"driver exceeded {max_steps} steps; "
                    "likely livelock in the protocol or the schedule"
                )
            if self._progress == last_progress:
                stalled_rounds += 1
                if stalled_rounds > self.WATCHDOG_ROUNDS:
                    raise SimulationError(self._stall_report(stalled_rounds))
            else:
                last_progress = self._progress
                stalled_rounds = 0
            if (
                self.fault_injector is not None
                and self.fault_injector.wants_random_squash()
            ):
                self._inject_squash()

            candidates = self.enabled()
            if not candidates:
                raise SimulationError("no runnable PU and tasks remain")
            preferred = [
                c for c in candidates if c[1] not in self._recently_stalled
            ] or candidates
            if self.schedule == "oldest_first":
                action = min(preferred, key=lambda c: c[1])
            elif self.schedule == "youngest_first":
                # Commits still happen when only a commit is possible;
                # otherwise always push the youngest task forward.
                ops = [c for c in preferred if c[0] == "op"]
                action = max(ops or preferred, key=lambda c: c[1])
            else:
                action = self.rng.choice(candidates)
            self._apply(action)

        # The audit runs before the drain empties the caches.
        verify = getattr(self.system, "verify", None)
        if verify is not None:
            verify()
        self.system.drain()
        return DriverReport(
            load_values=[state.observed_loads for state in self.tasks],
            steps=self._steps,
            violation_squashes=self._violations,
            injected_squashes=self._injected,
            replacement_stalls=self._stalls,
            task_executions=[state.executions for state in self.tasks],
        )
