"""Event-driven whole-processor timing simulation.

The simulator owns a global event heap keyed by cycle time; the only
globally-ordered events are memory operations (and task completion /
commit bookkeeping), because only memory interacts across PUs. Between
memory operations each PU schedules its compute instructions analytically
(:mod:`repro.timing.pu`), so simulation cost is O(ops), not O(cycles).

Task-level behaviour follows the hierarchical execution model: dispatch
in sequence order to free PUs, commit strictly in order from the head,
squash-to-tail on memory-dependence violations and on task
mispredictions (detected when the mispredicted task's predecessor
commits — the point at which the sequencer knows the correct successor).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import ProcessorConfig
from repro.common.errors import ReplacementStall, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.hier.task import OpKind, TaskProgram
from repro.mem.mshr import MSHRFile
from repro.telemetry import MEM_OP, OCCUPANCY_EDGES, RUN
from repro.timing.pu import PUTaskTiming

#: Cycles to wait before retrying a structurally stalled memory op.
_STALL_RETRY = 8

#: Consecutive ReplacementStall retries on one PU before the watchdog
#: declares the run livelocked (nothing else is advancing the head, so
#: the stalled PU will never find an evictable way).
_WATCHDOG_STALL_STREAK = 200


@dataclass
class TimingReport:
    """Results of one timing run."""

    cycles: int
    committed_instructions: int
    committed_memory_ops: int
    violation_squashes: int
    misprediction_squashes: int
    replacement_stall_retries: int
    #: Memory operations actually issued, including re-executions of
    #: squashed attempts; the excess over committed_memory_ops is the
    #: wasted speculative work.
    executed_memory_ops: int = 0
    #: Cycles spent inside task commits. One cycle per task for the EC+
    #: designs' flash commit; the base design's eager writebacks make
    #: this the serial bottleneck of paper section 3.2.6.
    commit_cycles: int = 0
    memory_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def wasted_memory_ops(self) -> int:
        """Memory operations whose work was thrown away by squashes."""
        return max(0, self.executed_memory_ops - self.committed_memory_ops)

    def summary(self) -> str:
        """One-paragraph human-readable account of the run."""
        return (
            f"{self.committed_instructions} instructions in {self.cycles} "
            f"cycles (IPC {self.ipc:.2f}); miss ratio "
            f"{self.miss_ratio():.3f}, bus utilization "
            f"{self.bus_utilization():.3f}; squashes: "
            f"{self.violation_squashes} violation + "
            f"{self.misprediction_squashes} misprediction "
            f"({self.wasted_memory_ops} memory ops wasted); "
            f"{self.replacement_stall_retries} replacement-stall retries"
        )

    def bus_utilization(self) -> float:
        busy = self.memory_stats.get("bus_busy_cycles", 0)
        return min(1.0, busy / self.cycles) if self.cycles else 0.0

    def miss_ratio(self) -> float:
        accesses = self.memory_stats.get("loads", 0) + self.memory_stats.get(
            "stores", 0
        )
        if accesses == 0:
            return 0.0
        return self.memory_stats.get("memory_supplies", 0) / accesses


class TimingSimulator:
    """Runs a task list through a memory system, cycle-accurately."""

    def __init__(
        self,
        system,
        tasks: List[TaskProgram],
        processor: Optional[ProcessorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.system = system
        self._fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        if self._fault_injector is not None:
            self._fault_injector.install(system)
            tasks = self._fault_injector.mark_mispredicted(tasks)
            self._mshr_rng = self._fault_injector.plan.rng("mshr")
            self._bus_rng = self._fault_injector.plan.rng("bus")
        self.tasks = tasks
        self.processor = processor if processor is not None else ProcessorConfig(
            n_pus=system.n_units
        )
        if self.processor.n_pus != system.n_units:
            raise SimulationError(
                "processor PU count must match the memory system's units"
            )
        self._events: List = []
        self._seq = 0
        self._states: Dict[int, Optional[PUTaskTiming]] = {
            pu: None for pu in range(self.processor.n_pus)
        }
        self._rank_to_pu: Dict[int, int] = {}
        self._done_at: Dict[int, int] = {}
        self._committed: List[bool] = [False] * len(tasks)
        #: First rank not yet committed; commits are in-order and final,
        #: so the pointer only advances (amortized-O(1) head lookup).
        self._head_ptr = 0
        self._next_dispatch = 0
        self._mispredict_pending: Dict[int, bool] = {
            rank: t.mispredicted for rank, t in enumerate(tasks) if t.mispredicted
        }
        self._violations = 0
        self._mispredictions = 0
        self._stall_retries = 0
        self._executed_memory_ops = 0
        self._commit_cycles = 0
        self._last_commit_end = 0
        #: Bound once: line-address math runs once per miss, and amap may
        #: be a property on the system.
        self._line_address = system.amap.line_address
        per_unit = getattr(system, "mshrs_per_unit", 8)
        combining = getattr(system, "mshr_combining", 4)
        self._mshrs = {
            pu: MSHRFile(per_unit, combining) for pu in range(self.processor.n_pus)
        }
        #: Consecutive ReplacementStall retries per PU (watchdog input).
        self._stall_streak: Dict[int, int] = {
            pu: 0 for pu in range(self.processor.n_pus)
        }
        #: Stall fast-forward state (plain loop only). A stalled PU polls
        #: every ``_STALL_RETRY`` cycles, but its probe outcome can only
        #: change after something frees capacity: a commit or squash
        #: (counted by ``_progress_token``) or another PU's bus
        #: transaction (which advances ``SnoopingBus.free_at``). While
        #: both watermarks are unchanged since the last *real* failed
        #: probe, retries are skipped without re-entering the protocol —
        #: the retry accounting (retry count, streak, watchdog, and the
        #: stat the probe itself would bump) is replicated exactly, so
        #: reports, stats and event streams are byte-identical.
        self._bus = getattr(system, "bus", None)
        self._progress_token = 0
        self._stall_probe: Dict[int, Tuple[int, int]] = {}
        self._stall_exc: Dict[int, ReplacementStall] = {}
        #: Stat keys a deterministically-failing retry probe bumps
        #: before raising (``{"load": (...), "store": (...)}`` — the SVC
        #: counts the attempt as a load/store miss, the ARB as a
        #: load/store plus ``arb_full_stalls``); the skip path mirrors
        #: them so accounting stays exact. Systems that do not declare
        #: the contract never fast-forward — every retry re-probes.
        self._stall_probe_stats = getattr(system, "STALL_PROBE_COUNTERS", None)
        #: Telemetry, resolved once at wiring time from the system (the
        #: system already applied :func:`repro.telemetry.wired`), so the
        #: memory-event hot path pays a single ``is not None`` check.
        self._telemetry = getattr(system, "telemetry", None)
        self._tel_mshr = None
        self._tel_tracer = None
        self._mshr_occ = None
        #: Suppressed-root countdown (see ``Tracer.skip_roots``): when
        #: the tracer samples MEM_OP roots 1-in-N, the memory-event hot
        #: path pays one integer decrement per sampled-out op and
        #: batch-syncs the tracer's slot counter at the next kept root,
        #: keeping the cadence identical to per-op ``take_root`` calls.
        self._sample_window = 0
        self._root_countdown = 0
        self._suppressed_pending = 0
        if self._telemetry is not None:
            tracer = self._telemetry.tracer
            self._tel_tracer = tracer
            if tracer.sample_interval > 1 and MEM_OP in tracer.sample_kinds:
                self._sample_window = tracer.sample_interval - 1
            self._tel_mshr = self._telemetry.histogram(
                "mshr.occupancy", OCCUPANCY_EDGES, unit="entries"
            )
            #: Batched occupancy counts (index = in-flight MSHRs): the
            #: hot path pays one list increment per memory op instead of
            #: a histogram call; the flush hook drains the batch before
            #: any snapshot, so the metric stays exact.
            self._mshr_occ = [0] * (per_unit + 1)
            self._telemetry.on_snapshot(self._flush_mshr_occupancy)

    def _flush_mshr_occupancy(self) -> None:
        """Drain the batched MSHR occupancy counts into the histogram
        (idempotent: counts are zeroed as they flush)."""
        occ = self._mshr_occ
        if occ is None:
            return
        hist = self._tel_mshr
        for value, count in enumerate(occ):
            if count:
                hist.observe_many(value, count)
                occ[value] = 0

    # -- event plumbing ---------------------------------------------------------

    def _push(self, time: int, kind: str, pu: int, epoch: int) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, kind, pu, epoch))

    def _schedule_fast(self, pu: int, time: int, state) -> None:
        """``_schedule`` with the state already in hand (hot path)."""
        pending = state.schedule_to_next_mem()
        if pending is None:
            done = state.done_time()
            if done < time:
                done = time
            self._seq += 1
            heapq.heappush(self._events, (done, self._seq, "done", pu, state.epoch))
        else:
            issue, _op = pending
            if issue < time:
                issue = time
            self._seq += 1
            heapq.heappush(self._events, (issue, self._seq, "mem", pu, state.epoch))

    def _dispatch(self, pu: int, time: int) -> None:
        if self._next_dispatch >= len(self.tasks):
            return
        rank = self._next_dispatch
        self._next_dispatch += 1
        start = time + self.processor.timing.task_dispatch_cycles
        self._begin_task_recorded(pu, rank)
        state = PUTaskTiming(
            pu, rank, self.tasks[rank], start, self.processor, self._mshrs[pu]
        )
        self._states[pu] = state
        self._rank_to_pu[rank] = pu
        self._schedule(pu, start)

    def _begin_task_recorded(self, pu: int, rank: int) -> None:
        """``system.begin_task`` with telemetry re-attached: task-begin
        instants are always recorded, never sampled, so the detached
        run-wide wiring is restored around this one call."""
        telemetry = self._telemetry
        if telemetry is None:
            self.system.begin_task(pu, rank)
            return
        prev = self.system.telemetry
        self.system.telemetry = telemetry
        try:
            self.system.begin_task(pu, rank)
        finally:
            self.system.telemetry = prev

    def _schedule(self, pu: int, time: int) -> None:
        self._schedule_fast(pu, time, self._states[pu])

    # -- squash handling -----------------------------------------------------------

    def _restart_squashed(self, squashed_ranks: List[int], now: int) -> None:
        """Re-dispatch squashed (but still assigned) tasks on their PUs."""
        restart = now + self.processor.timing.squash_restart_cycles
        self._progress_token += 1  # squashes free capacity: re-probe stalls
        for rank in sorted(squashed_ranks):
            pu = self._rank_to_pu[rank]
            state = self._states[pu]
            state.reset(restart)
            self._done_at.pop(rank, None)
            self._stall_streak[pu] = 0
            self._begin_task_recorded(pu, rank)
            self._schedule(pu, restart)

    def _stall_report(self, stuck_pu: int, stall: ReplacementStall, now: int) -> str:
        """Per-PU stall diagnostics for a watchdog-detected livelock."""
        lines = [
            f"PU {stuck_pu} retried a replacement stall "
            f"{self._stall_streak[stuck_pu]} times (cache "
            f"{stall.cache_id}, line {stall.line_addr:#x}) with no "
            f"intervening progress at cycle {now}; per-PU state:"
        ]
        for pu in range(self.processor.n_pus):
            state = self._states[pu]
            if state is None:
                lines.append(f"  pu {pu}: idle")
                continue
            lines.append(
                f"  pu {pu}: rank {state.rank} op {state.op_index}/"
                f"{len(state.program.ops)} stall_streak="
                f"{self._stall_streak[pu]}"
            )
        return "\n".join(lines)

    # -- memory events ----------------------------------------------------------------

    def _handle_mem(self, pu: int, now: int) -> None:
        state = self._states[pu]
        op = state.program.ops[state.op_index]
        mshrs = self._mshrs[pu]
        if mshrs._entries:
            mshrs.pop_ready(now)
            if len(mshrs._entries) >= mshrs.n_entries:
                retry = max(mshrs.earliest_ready() or now, now + 1)
                state.defer_mem(retry)
                self._schedule_fast(pu, retry, state)
                return
        if self._fault_injector is not None:
            plan = self._fault_injector.plan
            if plan.mshr_saturation and self._mshr_rng.random() < plan.mshr_saturation:
                # Injected structural hazard: the MSHR file behaves as
                # full for this attempt; retry like a real saturation.
                retry = now + _STALL_RETRY
                state.defer_mem(retry)
                self._schedule(pu, retry)
                return
            if (
                plan.bus_saturation
                and hasattr(self.system, "bus")
                and self._bus_rng.random() < plan.bus_saturation
            ):
                # Injected contention: a competing agent occupies the bus
                # first, so this PU's transaction queues behind it.
                self.system.bus.reserve(
                    now, "fault", None, self.system.amap.line_address(op.addr)
                )
        telemetry = self._telemetry
        span = None
        rewired = False
        prev = None
        if telemetry is not None:
            # len() of the MSHR dict directly: this per-op increment is
            # the cost of keeping the occupancy metric exact, so it
            # skips the ``in_flight()`` call wrapper.
            self._mshr_occ[len(mshrs._entries)] += 1
            # Cooperative root sampling: ``run()`` detached the
            # system's telemetry reference for the whole run, so a
            # sampled-out op pays only this countdown decrement. A kept
            # root syncs the batched slot count into the tracer,
            # re-attaches the telemetry for the op's duration, and
            # every protocol layer below records its subtree as usual.
            countdown = self._root_countdown
            if countdown:
                self._root_countdown = countdown - 1
                self._suppressed_pending += 1
            else:
                pending = self._suppressed_pending
                if pending:
                    self._suppressed_pending = 0
                    self._tel_tracer.skip_roots(MEM_OP, pending)
                self._root_countdown = self._sample_window
                rewired = True
                prev = self.system.telemetry
                self.system.telemetry = telemetry
                span = telemetry.begin(
                    MEM_OP,
                    f"{'load' if op.kind == OpKind.LOAD else 'store'} "
                    f"{op.addr:#x}",
                    pu=pu,
                    rank=state.rank,
                    addr=op.addr,
                    cycle=now,
                )
        try:
            try:
                if op.kind == OpKind.LOAD:
                    result = self.system.load(pu, op.addr, op.size, now=now)
                    end = result.end_cycle
                else:
                    result = self.system.store(
                        pu, op.addr, op.value, op.size, now=now
                    )
                    # Stores retire into the store buffer; dependents
                    # (none, by construction) would see them a cycle
                    # later.
                    end = now + 1
            except ReplacementStall as stall:
                if span is not None:
                    telemetry.end(span, stalled=True)
                self._stall_retries += 1
                self._stall_streak[pu] += 1
                if self._stall_streak[pu] > _WATCHDOG_STALL_STREAK:
                    raise SimulationError(self._stall_report(pu, stall, now))
                state.defer_mem(now + _STALL_RETRY)
                self._schedule_fast(pu, now + _STALL_RETRY, state)
                return
            if span is not None:
                telemetry.end(span, hit=result.hit, end_cycle=end)
            if self._stall_streak[pu]:
                self._stall_streak[pu] = 0
            self._executed_memory_ops += 1
            if not result.hit:
                line_addr = self.system.amap.line_address(op.addr)
                mshrs.allocate(line_addr, state.op_index, result.end_cycle)
            state.complete_mem(now, end)
            squashed = result.squashed_ranks
            if squashed:
                self._violations += 1
                self._restart_squashed(squashed, now)
            self._schedule_fast(pu, now, state)
        finally:
            if rewired:
                self.system.telemetry = prev

    # -- commit machinery -----------------------------------------------------------------

    def _head_rank(self) -> Optional[int]:
        committed = self._committed
        head = self._head_ptr
        while head < len(committed) and committed[head]:
            head += 1
        self._head_ptr = head
        return head if head < len(committed) else None

    def _try_commits(self, now: int) -> None:
        """Commit-wave spans (COMMIT, WB_DRAIN, misprediction SQUASH)
        are always recorded, so the detached run-wide telemetry wiring
        is restored for the whole wave."""
        telemetry = self._telemetry
        if telemetry is None:
            self._try_commits_impl(now)
            return
        prev = self.system.telemetry
        self.system.telemetry = telemetry
        try:
            self._try_commits_impl(now)
        finally:
            self.system.telemetry = prev

    def _try_commits_impl(self, now: int) -> None:
        while True:
            head = self._head_rank()
            if head is None or head not in self._done_at:
                return
            pu = self._rank_to_pu[head]
            commit_start = max(now, self._done_at[head])
            end = self.system.commit_head(pu, now=commit_start)
            self._commit_cycles += max(0, end - commit_start)
            self._committed[head] = True
            self._progress_token += 1  # commits free capacity: re-probe stalls
            self._last_commit_end = max(self._last_commit_end, end)
            self._states[pu] = None
            del self._rank_to_pu[head]
            self._mshrs[pu].flush()
            # A commit frees replacement capacity everywhere.
            for unit in self._stall_streak:
                self._stall_streak[unit] = 0

            # Misprediction detection: committing task ``head`` reveals
            # whether its successor was the right task to dispatch.
            successor = head + 1
            if self._mispredict_pending.pop(successor, False):
                if successor in self._rank_to_pu:
                    self._mispredictions += 1
                    squashed = self.system.squash_from_rank(
                        successor, reason="misprediction"
                    )
                    self._restart_squashed(squashed, end)
            self._dispatch(pu, end)
            now = end

    def _run_loop_plain(self, limit: int) -> None:
        """The event loop fused with :meth:`_handle_mem_plain` for the
        common configuration (no telemetry, no fault injector): event
        dispatch, the memory handler, and rescheduling run as one code
        path with the hot state in locals. Behaviour is identical to
        the generic loop in :meth:`_run_impl`; the shared event
        sequence counter stays on ``self`` so pushes from the cold
        paths (dispatch, squash restart, commit waves) interleave in
        exactly the same FIFO order."""
        events = self._events
        states = self._states
        mshr_files = self._mshrs
        stall_streak = self._stall_streak
        stall_probe = self._stall_probe
        done_at = self._done_at
        bus = self._bus
        stats_add = self.system.stats.add
        heappop = heapq.heappop
        heappush = heapq.heappush
        sys_load = self.system.load
        sys_store = self.system.store
        line_address = self._line_address
        LOAD = OpKind.LOAD
        executed = 0
        guard = 0
        try:
            while events:
                guard += 1
                if guard > limit:
                    raise SimulationError(
                        "timing simulation exceeded event budget"
                    )
                now, _seq, kind, pu, epoch = heappop(events)
                state = states[pu]
                if state is None or state.epoch != epoch:
                    continue  # stale event from a squashed attempt
                if kind == "mem":
                    op = state.program.ops[state.op_index]
                    mshrs = mshr_files[pu]
                    if mshrs._entries:
                        mshrs.pop_ready(now)
                        if len(mshrs._entries) >= mshrs.n_entries:
                            retry = max(mshrs.earliest_ready() or now, now + 1)
                            state.defer_mem(retry)
                            self._schedule_fast(pu, retry, state)
                            continue
                    if stall_streak[pu]:
                        # Stall fast-forward: while no commit, squash, or
                        # bus transaction has happened since the last real
                        # failed probe, the probe would deterministically
                        # raise again — skip it and replicate its exact
                        # accounting instead.
                        probe = stall_probe.get(pu)
                        if probe is not None and probe == (
                            self._progress_token,
                            bus.free_at if bus is not None else 0,
                        ):
                            self._stall_retries += 1
                            streak = stall_streak[pu] + 1
                            stall_streak[pu] = streak
                            if streak > _WATCHDOG_STALL_STREAK:
                                raise SimulationError(
                                    self._stall_report(
                                        pu, self._stall_exc[pu], now
                                    )
                                )
                            for key in self._stall_probe_stats[
                                "load" if op.kind == LOAD else "store"
                            ]:
                                stats_add(key)
                            state.defer_mem(now + _STALL_RETRY)
                            self._schedule_fast(
                                pu, now + _STALL_RETRY, state
                            )
                            continue
                    try:
                        if op.kind == LOAD:
                            result = sys_load(pu, op.addr, op.size, now)
                            end = result.end_cycle
                        else:
                            result = sys_store(
                                pu, op.addr, op.value, op.size, now
                            )
                            end = now + 1
                    except ReplacementStall as stall:
                        self._stall_retries += 1
                        stall_streak[pu] += 1
                        if stall_streak[pu] > _WATCHDOG_STALL_STREAK:
                            raise SimulationError(
                                self._stall_report(pu, stall, now)
                            )
                        # Record the capacity watermark this probe failed
                        # under; retries under the same watermark are
                        # fast-forwarded without re-probing (only when the
                        # system declares its probe accounting contract).
                        if self._stall_probe_stats is not None:
                            stall_probe[pu] = (
                                self._progress_token,
                                bus.free_at if bus is not None else 0,
                            )
                            self._stall_exc[pu] = stall
                        state.defer_mem(now + _STALL_RETRY)
                        self._schedule_fast(pu, now + _STALL_RETRY, state)
                        continue
                    if stall_streak[pu]:
                        stall_streak[pu] = 0
                    executed += 1
                    if not result.hit:
                        mshrs.allocate(
                            line_address(op.addr), state.op_index,
                            result.end_cycle,
                        )
                    # state.complete_mem(now, end), inlined:
                    state._last_mem_issue = now
                    state.completions[state.op_index] = end
                    state.op_index += 1
                    squashed = result.squashed_ranks
                    if squashed:
                        self._violations += 1
                        self._restart_squashed(squashed, now)
                    # self._schedule_fast(pu, now, state), inlined:
                    pending = state.schedule_to_next_mem()
                    if pending is None:
                        done = state.done_time()
                        if done < now:
                            done = now
                        self._seq += 1
                        heappush(
                            events, (done, self._seq, "done", pu, state.epoch)
                        )
                    else:
                        issue = pending[0]
                        if issue < now:
                            issue = now
                        self._seq += 1
                        heappush(
                            events, (issue, self._seq, "mem", pu, state.epoch)
                        )
                elif kind == "done":
                    done_at[state.rank] = now
                    self._try_commits_impl(now)
        finally:
            self._executed_memory_ops += executed

    # -- main loop ----------------------------------------------------------------------------

    def run(self) -> TimingReport:
        telemetry = self._telemetry
        if telemetry is None:
            return self._run_impl()
        span = telemetry.begin(
            RUN,
            "timing run",
            tasks=len(self.tasks),
            pus=self.processor.n_pus,
        )
        # Inverted wiring: the system's telemetry reference stays
        # detached for the whole run and is re-attached only around the
        # always-recorded sections (commits, task dispatch, squash
        # restarts) and around kept mem-op roots — so a sampled-out
        # memory op pays nothing beyond the sampling counter itself.
        # Metric handles captured at wiring time (bus wait/occupancy,
        # VCL snoop shape, MSHR occupancy) keep observing throughout,
        # so metrics stay exact; only spans and instants routed through
        # the detached reference are sampled.
        self.system.telemetry = None
        try:
            report = self._run_impl()
        finally:
            self.system.telemetry = telemetry
            # Closes the span and any descendants a raise left open.
            telemetry.end(span)
            # Sync outstanding suppressed-root slots so the tracer's
            # sampling counter is exact if this tracer is reused.
            pending = self._suppressed_pending
            if pending:
                self._suppressed_pending = 0
                self._tel_tracer.skip_roots(MEM_OP, pending)
            # Drain every batched-metric accumulator (this simulator's
            # MSHR occupancy, the VCL's snoop shape) so callers reading
            # metrics without snapshotting still see exact counts.
            telemetry.flush()
        telemetry.end(
            span,
            cycles=report.cycles,
            committed_instructions=report.committed_instructions,
            violation_squashes=report.violation_squashes,
            misprediction_squashes=report.misprediction_squashes,
        )
        return report

    def _run_impl(self) -> TimingReport:
        for pu in range(self.processor.n_pus):
            self._dispatch(pu, pu)  # sequencer dispatches one task per cycle
        limit = 200 * (sum(len(t.ops) + 4 for t in self.tasks) + 100)
        if self._telemetry is None and self._fault_injector is None:
            self._run_loop_plain(limit)
        else:
            guard = 0
            events = self._events
            states = self._states
            heappop = heapq.heappop
            handle_mem = self._handle_mem
            while events:
                guard += 1
                if guard > limit:
                    raise SimulationError(
                        "timing simulation exceeded event budget"
                    )
                time, _seq, kind, pu, epoch = heappop(events)
                state = states[pu]
                if state is None or state.epoch != epoch:
                    continue  # stale event from a squashed attempt
                if kind == "mem":
                    handle_mem(pu, time)
                elif kind == "done":
                    self._done_at[state.rank] = time
                    self._try_commits(time)
        if not all(self._committed):
            raise SimulationError("timing run ended with uncommitted tasks")
        self.system.drain()

        committed_instructions = sum(len(t.ops) for t in self.tasks)
        committed_memory = sum(len(t.memory_ops) for t in self.tasks)
        return TimingReport(
            cycles=max(self._last_commit_end, 1),
            committed_instructions=committed_instructions,
            committed_memory_ops=committed_memory,
            violation_squashes=self._violations,
            misprediction_squashes=self._mispredictions,
            replacement_stall_retries=self._stall_retries,
            executed_memory_ops=self._executed_memory_ops,
            commit_cycles=self._commit_cycles,
            memory_stats=self.system.stats.snapshot(),
        )
