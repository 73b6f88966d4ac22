"""Runtime protocol invariant checker (``repro.check``).

Continuous, modular verification of the speculative memory systems, in
the spirit of RealityCheck's per-component checking: instead of waiting
for a wrong committed load value to surface at the end-to-end oracle, a
:class:`InvariantChecker` audits the distributed protocol state *after
every bus transaction, commit and squash* and raises
:class:`repro.common.errors.InvariantViolation` — a structured
diagnostic naming the rule, the line and the offending bits — the
moment an invariant breaks.

The checker plugs into the existing :class:`repro.common.events.EventLog`
stream as an observer, so the protocol code never mentions checkers and
the ``checker=None`` / ``event_log=None`` fast path is exactly as cheap
as before. Systems accept ``checker=`` at construction::

    checker = InvariantChecker()
    system = SVCSystem(config, checker=checker)   # event log auto-created

Checks are deliberately *non-mutating* and *repair-aware*: the SVC fixes
VOL pointers and T bits lazily, on each line's next bus request
(docs/PROTOCOL.md), so between requests a line may legitimately carry a
dangling pointer or a conservatively stale T bit. The checker therefore
verifies only the properties that must hold in every quiescent state —
the safe direction of each invariant. ``SVCSystem.verify()`` remains the
strict post-repair audit. The full catalogue, with paper citations,
lives in docs/INVARIANTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import InvariantViolation, ProtocolError
from repro.common.events import ProtocolEvent
from repro.svc.cache import scan_cache
from repro.svc.line import SVCLine
from repro.telemetry import INVARIANT_VIOLATION

#: Event kinds that trigger a check, per system family.
_SVC_LINE_KINDS = frozenset({"bus"})
_SVC_SCAN_KINDS = frozenset({"commit", "squash", "begin_task"})
_ARB_SCAN_KINDS = frozenset({"commit", "squash"})
_SMP_LINE_KINDS = frozenset({"bus"})


class InvariantChecker:
    """Pluggable runtime verifier for SVC, ARB and SMP systems.

    One checker instance audits one system. ``checks`` counts audits
    performed; ``last_violation`` retains the first structured failure
    for capture machinery (:mod:`repro.replay`).
    """

    def __init__(self) -> None:
        self.system = None
        self._family: Optional[str] = None
        #: The system's telemetry, taken at wiring time like the bus's
        #: and VCL's metric handles: a violation is reported even while
        #: the timing simulator has ``system.telemetry`` detached for
        #: an untraced memory op.
        self._telemetry = None
        self.checks = 0
        self.last_violation: Optional[InvariantViolation] = None
        #: Full scan owed once the current bus transaction settles.
        self._deferred_scan = False

    # -- binding ------------------------------------------------------------

    def bind(self, system) -> None:
        """Attach to ``system``'s event log (the system must have one)."""
        if system.event_log is None:
            raise ProtocolError(
                "InvariantChecker needs an EventLog to observe; construct "
                "the system with checker= (which creates one) or pass "
                "event_log= explicitly"
            )
        self.system = system
        self._telemetry = getattr(system, "telemetry", None)
        if hasattr(system, "vcl"):
            self._family = "svc"
        elif hasattr(system, "buffer"):
            self._family = "arb"
        else:
            self._family = "smp"
        system.event_log.attach(self.on_event)

    def unbind(self) -> None:
        if self.system is not None and self.system.event_log is not None:
            self.system.event_log.detach(self.on_event)
        self.system = None
        self._telemetry = None

    # -- event dispatch -----------------------------------------------------

    def on_event(self, event: ProtocolEvent) -> None:
        try:
            if self._family == "svc":
                in_transaction = getattr(self.system, "_in_transaction", False)
                if self._deferred_scan and not in_transaction:
                    self._deferred_scan = False
                    self.check_svc()
                if event.kind in _SVC_LINE_KINDS:
                    self.check_svc(line_addr=event.detail.get("line_addr"))
                elif event.kind in _SVC_SCAN_KINDS:
                    if in_transaction:
                        # A squash fired from inside a bus transaction (e.g.
                        # a violation detected mid-window-walk) is observable
                        # here before the requestor's own line has been
                        # patched.  Don't scan that torn snapshot — defer the
                        # full scan to the first event after the transaction
                        # settles.
                        self._deferred_scan = True
                    else:
                        self.check_svc()
            elif self._family == "arb":
                if event.kind in _ARB_SCAN_KINDS:
                    self.check_arb()
            else:
                if event.kind in _SMP_LINE_KINDS:
                    self.check_smp(line_addr=event.detail.get("line_addr"))
        except InvariantViolation as violation:
            if self.last_violation is None:
                self.last_violation = violation
            telemetry = self._telemetry
            if telemetry is not None:
                # Error-level instant + counter: the trace shows *where*
                # in the span tree the invariant broke (filter on the
                # "error" category in Perfetto).
                telemetry.instant(
                    INVARIANT_VIOLATION,
                    f"invariant:{violation.invariant}",
                    level="error",
                    invariant=violation.invariant,
                    subject=repr(violation.subject),
                    event_kind=event.kind,
                )
                telemetry.counter("check.violations").inc()
            raise

    # -- helpers ------------------------------------------------------------

    def _fail(self, invariant: str, message: str, subject=None, **detail):
        raise InvariantViolation(invariant, message, subject=subject, **detail)

    # -- SVC ---------------------------------------------------------------

    def check_svc(self, line_addr: Optional[int] = None) -> None:
        """Audit the SVC: one line when ``line_addr`` is given (post-bus),
        every resident line otherwise (post-commit/squash).

        Each check reads every cache array once. That pass yields each
        cache's uncommitted lines for the occupancy rules and, on a full
        scan, the holder map the per-line rules read. A line check reads
        the transacted line's holders from the arrays too
        (``VersionControlLogic._entries``), never from an index the
        protocol maintains, so a line planted behind the protocol's back
        is still audited."""
        self.checks += 1
        system = self.system
        ranks = self._svc_task_assignment(system)
        if line_addr is not None:
            for cache in system.caches:
                self._svc_cache_occupancy(
                    cache,
                    {addr: line for addr, line in cache.lines() if not line.committed},
                )
            entries = system.vcl._entries(line_addr)
            if entries:
                self._svc_lines(system, ((line_addr, entries),), ranks)
            return
        holders: Dict[int, Dict[int, SVCLine]] = {}
        for cache in system.caches:
            self._svc_cache_occupancy(cache, scan_cache(cache, holders))
        self._svc_lines(system, sorted(holders.items()), ranks)

    def _svc_task_assignment(self, system) -> Dict[int, int]:
        """One task per cache, one cache per rank, ranks after the
        committed prefix (paper section 2.1's task sequence). Returns the
        audited ``cache_id -> rank`` map."""
        try:
            system._audit_task_maps()
        except ProtocolError as exc:
            self._fail("task-map-agreement", str(exc))
        ranks = system.current_ranks()
        seen: Dict[int, int] = {}
        for cache_id, rank in ranks.items():
            if rank in seen:
                self._fail(
                    "task-rank-unique",
                    f"rank {rank} assigned to caches {seen[rank]} and {cache_id}",
                    subject=rank,
                )
            seen[rank] = cache_id
            if rank <= system._committed_through:
                self._fail(
                    "task-after-committed-prefix",
                    f"cache {cache_id} runs rank {rank} but ranks through "
                    f"{system._committed_through} have committed",
                    subject=rank,
                )
        return ranks

    def _svc_cache_occupancy(self, cache, active: Dict[int, SVCLine]) -> None:
        """Controller/array agreement: ``active_lines`` is exactly the set
        of resident uncommitted lines (``active``, read from the array),
        each stamped with the running task. Flash commit and flash squash
        (sections 3.4, 3.5) depend on it."""
        if active.keys() != cache.active_lines:
            self._fail(
                "active-set-agreement",
                f"cache {cache.cache_id} active_lines="
                f"{sorted(map(hex, cache.active_lines))} but uncommitted "
                f"resident lines are {sorted(map(hex, active))}",
                subject=cache.cache_id,
            )
        task = cache.current_task
        if task is None and active:
            self._fail(
                "active-implies-task",
                f"cache {cache.cache_id} has no task but holds active "
                f"lines {sorted(map(hex, active))}",
                subject=cache.cache_id,
            )
        for addr, line in active.items():
            if line.task_id != task:
                self._fail(
                    "active-task-stamp",
                    f"cache {cache.cache_id} line {addr:#x} is active for "
                    f"task {line.task_id} but the cache runs {task}",
                    subject=addr,
                )

    def _svc_lines(self, system, items, ranks: Dict[int, int]) -> None:
        """The per-line rules, in catalogue order, for each
        ``(line_addr, entries)`` of ``items``, entries ascending by cache
        id. A rule builds its diagnostic only when it breaks."""
        from repro.svc.vol import build_vol

        features = system.features
        full = system.amap.full_mask
        memory_stamps = system.vcl._memory_stamps
        zero_stamps = [0] * system.amap.blocks_per_line
        for line_addr, entries in items:
            self._svc_bits(features, full, line_addr, entries)

            # VOL reconstruction itself enforces "active line implies a
            # running task"; surface its complaint as a structured
            # violation.
            try:
                vol = build_vol(entries, ranks)
            except ProtocolError as exc:
                self._fail("vol-buildable", str(exc), subject=line_addr)

            self._svc_pointer_chain(line_addr, entries)
            self._svc_version_order(line_addr, entries, vol)
            self._svc_exclusivity(line_addr, entries, vol)
            if features.stale_bit:
                # Read, not memory_stamps_for(): the audit must not
                # mutate the VCL it checks.
                self._svc_stale_bits(
                    line_addr, entries, vol, memory_stamps.get(line_addr, zero_stamps)
                )

    def _svc_bits(self, features, full, line_addr, entries) -> None:
        """Per-line bit-state legality for the configured design tier
        (the Figure 6/11/16 state bits exist only from the design level
        that introduces them)."""
        for cache_id, line in entries.items():
            if line.committed and not features.lazy_commit:
                self._fail(
                    "c-requires-ec",
                    f"line {line_addr:#x} has C set but the design has no C bit "
                    "(base design commits write back eagerly, section 3.2.6)",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if line.stale and not features.stale_bit:
                self._fail(
                    "t-requires-ec",
                    f"line {line_addr:#x} has T set but the design has no T bit",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if line.architectural and not features.architectural_bit:
                self._fail(
                    "a-requires-ecs",
                    f"line {line_addr:#x} has A set but the design has no A bit",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if (line.valid_mask | line.store_mask | line.load_mask) & ~full:
                for name, mask in (
                    ("valid", line.valid_mask),
                    ("store", line.store_mask),
                    ("load", line.load_mask),
                ):
                    if mask & ~full:
                        self._fail(
                            "mask-in-range",
                            f"line {line_addr:#x} {name}_mask {mask:#x} exceeds "
                            f"the line's block mask {full:#x}",
                            subject=line_addr,
                            cache=cache_id,
                            state=line.describe(),
                        )
            if line.store_mask & ~line.valid_mask:
                self._fail(
                    "stores-are-valid",
                    f"line {line_addr:#x} in cache {cache_id} owns blocks "
                    f"{line.store_mask:#x} without valid data "
                    f"(valid {line.valid_mask:#x})",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if line.written_back and not line.committed:
                self._fail(
                    "writeback-implies-committed",
                    f"line {line_addr:#x} in cache {cache_id} is marked "
                    "written-back while still active",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )

    def _svc_pointer_chain(self, line_addr, entries) -> None:
        """VOL pointers may dangle between repairs (Figure 17) but must
        never cycle and must point at other caches, not at themselves.

        A walk that stays among the n holders for n steps has revisited
        one; only then is the chain walked again, to name the revisit."""
        n_holders = len(entries)
        for start, line in entries.items():
            pointer = line.pointer
            steps = 0
            while pointer in entries:  # None or a dangling id ends the chain
                steps += 1
                if steps == n_holders:
                    visited = {start}
                    nxt = entries[start].pointer
                    while nxt not in visited:
                        visited.add(nxt)
                        nxt = entries[nxt].pointer
                    self._fail(
                        "vol-acyclic",
                        f"line {line_addr:#x}: VOL pointer chain from cache "
                        f"{start} revisits cache {nxt} "
                        f"(chain {sorted(visited)})",
                        subject=line_addr,
                    )
                pointer = entries[pointer].pointer

    def _svc_version_order(self, line_addr, entries, vol) -> None:
        """Committed versions stay totally ordered by version stamp even
        after silent evictions punch holes in the pointer chain."""
        seen: Dict[int, int] = {}
        for cache_id in vol:
            line = entries[cache_id]
            if line.committed and line.store_mask:
                if line.version_seq in seen:
                    self._fail(
                        "version-order-total",
                        f"line {line_addr:#x}: committed versions in caches "
                        f"{seen[line.version_seq]} and {cache_id} share stamp "
                        f"{line.version_seq}; their writeback order is "
                        "undefined",
                        subject=line_addr,
                    )
                seen[line.version_seq] = cache_id

    def _svc_exclusivity(self, line_addr, entries, vol) -> None:
        """The X bit (section 3.8.1) authorizes bus-free stores, so it
        must mean *sole holder of the line's data*: a silent store
        changes the tail-of-VOL with no bus event to snoop, so any
        other cache holding valid blocks would be left with a T bit
        that is clear on genuinely stale data — the exact state the
        T machinery exists to prevent. Entries with no valid block
        (husks kept resident for their L bits) are harmless: they
        cover nothing and can never be reused. At most one entry can
        hold X."""
        holders = [cid for cid in vol if entries[cid].exclusive]
        if len(holders) > 1:
            self._fail(
                "x-unique",
                f"line {line_addr:#x}: caches {holders} all claim "
                "exclusivity",
                subject=line_addr,
            )
        if not holders:
            return
        for cache_id in vol:
            line = entries[cache_id]
            if cache_id != holders[0] and line.valid_mask:
                self._fail(
                    "x-implies-sole-holder",
                    f"line {line_addr:#x}: cache {holders[0]} holds X but "
                    f"cache {cache_id} holds valid blocks "
                    f"{line.valid_mask:#x} (VOL {vol}); a silent store "
                    "would leave that copy's T bit clear on stale data",
                    subject=line_addr,
                )

    def _svc_stale_bits(self, line_addr, entries, vol, memory_stamps) -> None:
        """T may be conservatively *set* between repairs, but a *clear* T
        on genuinely stale data authorizes a wrong local reuse (section
        3.4.3): always a bug. The tail-of-VOL stamps come from one pass
        over the VOL: each block takes the newest writer's stamp, else
        memory's (:func:`repro.svc.vol.tail_stamps`)."""
        tail = list(memory_stamps)
        for cache_id in vol:
            line = entries[cache_id]
            writes = line.store_mask & line.valid_mask
            content = line.block_content
            block = 0
            while writes:
                if writes & 1:
                    tail[block] = content[block]
                writes >>= 1
                block += 1
        for cache_id in vol:
            line = entries[cache_id]
            if line.stale:
                continue
            valid = line.valid_mask
            content = line.block_content
            block = 0
            while valid:
                if valid & 1 and content[block] != tail[block]:
                    self._fail(
                        "t-clear-implies-fresh",
                        f"line {line_addr:#x} in cache {cache_id} has T clear "
                        f"but its valid blocks do not match the tail-of-VOL "
                        f"composition (stamps {line.block_content} vs tail "
                        f"{tail})",
                        subject=line_addr,
                        cache=cache_id,
                    )
                valid >>= 1
                block += 1

    # -- ARB ---------------------------------------------------------------

    def check_arb(self) -> None:
        """Audit the ARB after commits and squashes: no zombie stages,
        byte masks within the row's word, no leaked empty rows."""
        from repro.arb.buffer import WORD_SIZE

        self.checks += 1
        system = self.system
        active = set(system.current_ranks().values())
        word_mask = (1 << WORD_SIZE) - 1
        for row in system.buffer.rows():
            if not row.entries:
                self._fail(
                    "arb-rows-released",
                    f"ARB row {row.word_addr:#x} is allocated but empty",
                    subject=row.word_addr,
                )
            for rank, entry in row.entries.items():
                if rank not in active:
                    self._fail(
                        "arb-window",
                        f"ARB row {row.word_addr:#x} holds rank {rank} which "
                        f"is not an active task (active: {sorted(active)}); "
                        "committed and squashed stages must be reclaimed",
                        subject=row.word_addr,
                        rank=rank,
                    )
                if (entry.load_mask | entry.store_mask) & ~word_mask:
                    self._fail(
                        "arb-byte-masks",
                        f"ARB row {row.word_addr:#x} rank {rank} has masks "
                        f"outside the word (L={entry.load_mask:#x} "
                        f"S={entry.store_mask:#x})",
                        subject=row.word_addr,
                        rank=rank,
                    )

    # -- SMP coherence -------------------------------------------------------

    def check_smp(self, line_addr: Optional[int] = None) -> None:
        """Audit the MRSW substrate: a dirty line is the sole copy
        (Figure 3's single-writer obligation) and clean copies agree with
        memory's image of the line."""
        self.checks += 1
        system = self.system
        if line_addr is not None:
            addresses = [line_addr]
        else:
            addresses = sorted(
                {addr for cache in system.caches for addr, _ in cache.array.lines()}
            )
        from repro.coherence.protocol import CoherenceState

        for addr in addresses:
            holders = []
            for cache in system.caches:
                line = cache.array.lookup(addr, touch=False)
                if line is not None:
                    holders.append((cache.cache_id, line))
            dirty = [cid for cid, line in holders if line.state == CoherenceState.DIRTY]
            if dirty and len(holders) > 1:
                self._fail(
                    "mrsw-single-writer",
                    f"line {addr:#x}: cache {dirty[0]} is Dirty while caches "
                    f"{[cid for cid, _ in holders]} hold copies",
                    subject=addr,
                )
            if not dirty:
                image = bytes(
                    system.memory.read_line(addr, system.geometry.line_size)
                )
                for cid, line in holders:
                    if bytes(line.data) != image:
                        self._fail(
                            "clean-matches-memory",
                            f"line {addr:#x}: clean copy in cache {cid} "
                            "disagrees with memory",
                            subject=addr,
                            cache=cid,
                        )


def attach_checker(system) -> InvariantChecker:
    """Create a checker and bind it to ``system`` (which must already
    have an event log). Convenience for tests and tools."""
    checker = InvariantChecker()
    checker.bind(system)
    return checker


__all__ = ["InvariantChecker", "attach_checker"]
