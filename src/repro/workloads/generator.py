"""Parameterized synthetic task-stream generator.

A workload is a list of :class:`TaskProgram` whose operations draw
addresses from four regions:

* **stream** — a large region walked with spatial runs; sized by
  ``working_set_bytes``, it sets the capacity-miss pressure.
* **shared** — a small region where consecutive tasks' windows overlap;
  it creates inter-task memory dependences: version forwarding when the
  producer runs ahead, violation squashes when it does not (the paper's
  "fine-grain sharing... causes the latest version of a line to
  constantly move from one L1 cache to another").
* **read-only** — loads only; the data the EC design keeps warm across
  task commits and squashes.
* **recent** — temporal reuse of the task's own recent addresses.

Compute operations form load-use dependence chains (``p_load_dep``), so
memory hit latency lands on the critical path exactly as it does in the
paper's latency sweep. All randomness derives from the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.hier.task import MemOp, OpKind, TaskProgram

_STREAM_BASE = 0x10_0000
_WORD = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs describing one benchmark-like workload."""

    name: str
    n_tasks: int = 128
    ops_per_task_mean: int = 32
    memory_fraction: float = 0.35
    store_fraction: float = 0.35
    working_set_bytes: int = 64 * 1024
    shared_bytes: int = 2 * 1024
    read_only_bytes: int = 8 * 1024
    p_shared: float = 0.10
    p_read_only: float = 0.15
    p_reuse: float = 0.35
    #: Stack-frame / task-local traffic: the bulk of real references.
    #: Each task walks a small frame (chosen round-robin from a pool)
    #: with dense loads and stores, so most of its accesses hit lines it
    #: already owns — the behaviour that keeps the paper's bus
    #: utilization in the 22-36% range.
    p_private: float = 0.45
    private_frame_bytes: int = 128
    private_frames: int = 8
    private_store_fraction: float = 0.5
    spatial_run: int = 4
    #: Probability that a finished spatial run jumps to a random spot
    #: instead of continuing the cyclic walk of the working set.
    p_jump: float = 0.15
    shared_window_words: int = 32
    #: Read-only accesses draw from a hot subset this often (interpreter
    #: dispatch tables, symbol tables): the reuse the EC design retains.
    read_only_hot_words: int = 256
    p_read_only_hot: float = 0.8
    mispredict_rate: float = 0.03
    p_load_dep: float = 0.40
    ilp_chain: float = 0.50
    fp_fraction: float = 0.0
    imul_fraction: float = 0.05
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.memory_fraction <= 1.0:
            raise ConfigError("memory_fraction must be in [0, 1]")
        if self.p_private + self.p_shared + self.p_read_only > 1.0:
            raise ConfigError("region probabilities exceed 1")
        if self.n_tasks <= 0 or self.ops_per_task_mean <= 0:
            raise ConfigError("task counts must be positive")

    def scaled(self, factor: float) -> "WorkloadSpec":
        """Same behaviour, ``factor`` times as many tasks (experiment
        scaling knob)."""
        return replace(self, n_tasks=max(4, int(self.n_tasks * factor)))


class _AddressStreams:
    """Per-run address-generation state across tasks.

    Region bases are laid out contiguously (rounded to 1KB), the way a
    linker lays out data segments: large power-of-two gaps between
    regions would alias every region onto the same cache sets and
    manufacture conflict misses no real program has.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.stream_pointer = 0
        self.run_left = 0

        def _round_kb(n: int) -> int:
            return (n + 1023) & ~1023

        self.stream_base = _STREAM_BASE
        self.shared_base = self.stream_base + _round_kb(spec.working_set_bytes)
        self.read_only_base = self.shared_base + _round_kb(spec.shared_bytes)
        self.private_base = self.read_only_base + _round_kb(spec.read_only_bytes)
        self.frame_pointer = 0
        # Per-region word counts, computed once instead of per address.
        self._stream_words = max(1, spec.working_set_bytes // _WORD)
        self._shared_words = max(1, spec.shared_bytes // _WORD)
        self._shared_window = min(spec.shared_window_words, self._shared_words)
        self._frame_words = max(1, spec.private_frame_bytes // _WORD)
        self._n_frames = max(1, spec.private_frames)
        self._read_only_words = max(1, spec.read_only_bytes // _WORD)
        self._read_only_hot = min(spec.read_only_hot_words, self._read_only_words)

    def start_task(self) -> None:
        """Align the stream walk to a line boundary at task entry.

        Loop-partitioned tasks work on distinct elements; without the
        alignment, adjacent tasks would share the line straddling their
        boundary and every such line would ping-pong between two PUs —
        far more migratory traffic than real partitioned code has.
        """
        line_words = 4  # 16-byte lines, 4-byte words
        remainder = self.stream_pointer % line_words
        if remainder:
            self.stream_pointer += line_words - remainder
        self.run_left = 0

    def stream_addr(self, rng) -> int:
        """Cyclically walk the big region in spatial runs; occasional
        jumps model pointer dereferences and loop-nest switches. The
        cyclic walk is what lets a working set that fits in cache settle
        into hits after the first pass."""
        words = self._stream_words
        if self.run_left <= 0:
            if rng.random() < self.spec.p_jump:
                self.stream_pointer = rng.randrange(words)
            self.run_left = max(1, self.spec.spatial_run)
        addr = self.stream_base + (self.stream_pointer % words) * _WORD
        self.stream_pointer += 1
        self.run_left -= 1
        return addr

    def shared_addr(self, rng, rank: int) -> int:
        """An address in a window that slides one half-window per task,
        so task i overlaps tasks i-1 and i+1 — the producer/consumer
        pattern that exercises versioning."""
        words = self._shared_words
        window = self._shared_window
        base = (rank * window // 2) % words
        return self.shared_base + ((base + rng.randrange(window)) % words) * _WORD

    def private_addr(self, rng, rank: int) -> int:
        """Walk the task's stack frame densely and sequentially."""
        frame_words = self._frame_words
        frame = rank % self._n_frames
        base = self.private_base + frame * self.spec.private_frame_bytes
        self.frame_pointer += 1
        if rng.random() < 0.2:
            self.frame_pointer = rng.randrange(frame_words)
        return base + (self.frame_pointer % frame_words) * _WORD

    def read_only_addr(self, rng) -> int:
        if rng.random() < self.spec.p_read_only_hot:
            return self.read_only_base + rng.randrange(self._read_only_hot) * _WORD
        return self.read_only_base + rng.randrange(self._read_only_words) * _WORD


def generate_tasks(
    spec: WorkloadSpec, seed: Optional[int] = None
) -> List[TaskProgram]:
    """Deterministically build the task list for ``spec``.

    Equal loads and equal compute ops in the result are one shared,
    immutable :class:`MemOp`. So are equal non-empty ``depends_on``
    tuples and equal addresses: one tuple per distinct dependence list
    and one int per distinct address. Every field keeps its value; only
    identity is shared, and two calls share none of it.
    """
    rng = make_rng(spec.seed if seed is None else seed, spec.name)
    streams = _AddressStreams(spec)
    tasks: List[TaskProgram] = []
    store_counter = 1
    # One frozen MemOp per distinct (kind, addr, latency, depends_on):
    # building an op costs more than drawing it, and a stream holds few
    # distinct loads and compute ops. Stores are built each time, since
    # each carries its own ``store_counter`` value.
    interned: Dict[tuple, MemOp] = {}
    intern = interned.get
    # One tuple per distinct dependence list and one int per distinct
    # address: a stream repeats both far more often than it repeats an
    # op (every store is its own op), and each copy held costs memory
    # for the life of the stream.
    dep_tuples: Dict[tuple, tuple] = {}
    share_deps = dep_tuples.setdefault
    addresses: Dict[int, int] = {}
    share_addr = addresses.setdefault

    # Hot-loop constants hoisted out of the per-op path; the RNG draw
    # sequence is untouched, so generated workloads are bit-identical.
    random = rng.random
    p_load_dep = spec.p_load_dep
    ilp_chain = spec.ilp_chain
    memory_fraction = spec.memory_fraction
    p_private = spec.p_private
    p_private_shared = p_private + spec.p_shared
    p_private_shared_ro = p_private_shared + spec.p_read_only
    p_reuse = spec.p_reuse
    store_fraction = spec.store_fraction
    private_store_fraction = spec.private_store_fraction
    fp_fraction = spec.fp_fraction
    fp_imul_fraction = fp_fraction + spec.imul_fraction
    shared_base = streams.shared_base
    n_ops_lo = max(1, spec.ops_per_task_mean // 2)
    n_ops_hi = spec.ops_per_task_mean + spec.ops_per_task_mean // 2
    LOAD, STORE, COMPUTE = OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE

    for rank in range(spec.n_tasks):
        streams.start_task()
        n_ops = rng.randint(n_ops_lo, n_ops_hi)
        ops: List[MemOp] = []
        recent_addrs: List[int] = []
        last_load: Optional[int] = None

        for _ in range(n_ops):
            # The two draws, in order: a dependence on the last load,
            # then one on the previous op.
            if last_load is not None and random() < p_load_dep:
                if ops and random() < ilp_chain:
                    deps = (last_load, len(ops) - 1)
                else:
                    deps = (last_load,)
            elif ops and random() < ilp_chain:
                deps = (len(ops) - 1,)
            else:
                deps = ()
            if deps:
                deps = share_deps(deps, deps)

            if random() < memory_fraction:
                region = random()
                if region < p_private:
                    addr = streams.private_addr(rng, rank)
                    is_store = random() < private_store_fraction
                elif region < p_private_shared:
                    addr = streams.shared_addr(rng, rank)
                    is_store = random() < store_fraction
                elif region < p_private_shared_ro:
                    addr = streams.read_only_addr(rng)
                    is_store = False
                elif recent_addrs and random() < p_reuse:
                    addr = rng.choice(recent_addrs)
                    is_store = random() < store_fraction
                else:
                    addr = streams.stream_addr(rng)
                    is_store = random() < store_fraction
                addr = share_addr(addr, addr)
                # Only stream addresses feed the temporal-reuse pool:
                # the other regions carry their own reuse structure, and
                # replaying a read-only address as a store would break
                # the region's meaning.
                if addr < shared_base:
                    recent_addrs.append(addr)
                    if len(recent_addrs) > 16:
                        recent_addrs.pop(0)
                if is_store:
                    ops.append(MemOp(STORE, addr, 4, store_counter, 1, deps))
                    store_counter += 1
                else:
                    key = (LOAD, addr, 1, deps)
                    op = intern(key)
                    if op is None:
                        op = interned[key] = MemOp(LOAD, addr, 4, 0, 1, deps)
                    ops.append(op)
                    last_load = len(ops) - 1
            else:
                kind_draw = random()
                if kind_draw < fp_fraction:
                    latency = 4
                elif kind_draw < fp_imul_fraction:
                    latency = 3
                else:
                    latency = 1
                key = (COMPUTE, 0, latency, deps)
                op = intern(key)
                if op is None:
                    op = interned[key] = MemOp(COMPUTE, 0, 4, 0, latency, deps)
                ops.append(op)

        tasks.append(
            TaskProgram(
                ops=ops,
                name=f"{spec.name}-task{rank}",
                mispredicted=rng.random() < spec.mispredict_rate,
            )
        )
    # The first task can never be a misprediction (nothing predicted it).
    if tasks and tasks[0].mispredicted:
        tasks[0] = TaskProgram(
            ops=tasks[0].ops, name=tasks[0].name, mispredicted=False
        )
    return tasks


_ = OpKind  # re-exported concept referenced in docstrings
