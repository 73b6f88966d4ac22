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
the safe direction of each invariant — except on the line of a BusRead
or BusWrite, which the VCL repairs just before the bus event: there
``vol-pointers-repaired`` and ``t-set-implies-stale`` also require the
repair's exact result. This catalogue is the SVC's one audit:
``SVCSystem.verify()`` checks the VCL's accelerator structures and then
runs the full scan (:meth:`InvariantChecker.scan_svc`), changing no
state. The full catalogue, with paper citations, lives in
docs/INVARIANTS.md; the per-line rules run in its order, in one loop per
line, so a line that breaks two rules reports the earlier.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bus.requests import BusRequestKind
from repro.common.errors import InvariantViolation, ProtocolError
from repro.common.events import ProtocolEvent
from repro.svc.cache import scan_cache
from repro.svc.line import SVCLine
from repro.svc.vol import build_vol
from repro.telemetry import INVARIANT_VIOLATION

#: Event kinds that trigger a check, per system family.
_SVC_LINE_KINDS = frozenset({"bus"})
_SVC_SCAN_KINDS = frozenset({"commit", "squash", "begin_task"})
_ARB_SCAN_KINDS = frozenset({"commit", "squash"})
_SMP_LINE_KINDS = frozenset({"bus"})
#: Bus requests whose line the VCL repairs just before it reserves the
#: bus, so their line check also holds the repair to its result. A
#: base-tier commit reserves BusWback with no repair.
_REPAIRED_REQUESTS = frozenset({BusRequestKind.READ, BusRequestKind.WRITE})


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
        #: and VCL's metric tallies: a violation is reported even while
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

    # -- event dispatch -----------------------------------------------------

    def on_event(self, event: ProtocolEvent) -> None:
        try:
            if self._family == "svc":
                in_transaction = getattr(self.system, "_in_transaction", False)
                if self._deferred_scan and not in_transaction:
                    self._deferred_scan = False
                    self.check_svc()
                if event.kind in _SVC_LINE_KINDS:
                    detail = event.detail
                    self.check_svc(
                        line_addr=detail.get("line_addr"),
                        repaired=detail.get("request") in _REPAIRED_REQUESTS,
                    )
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

    def check_svc(
        self, line_addr: Optional[int] = None, repaired: bool = False
    ) -> None:
        """Audit the SVC: one line when ``line_addr`` is given (post-bus),
        every resident line otherwise (post-commit/squash). A line check
        with ``repaired`` set (the line of a BusRead or BusWrite, which
        the VCL has just repaired) also requires the repair's result:
        pointers along the VOL and T set exactly on stale lines.

        Each check reads every cache array once. That pass yields each
        cache's uncommitted lines for the occupancy rules and, on a full
        scan, the holder map the per-line rules read. A line check reads
        the transacted line's holders from the arrays too
        (``VersionControlLogic._entries``), never from an index the
        protocol maintains, so a line planted behind the protocol's back
        is still audited."""
        self.checks += 1
        system = self.system
        if line_addr is None:
            self.scan_svc(system)
            return
        ranks = self._svc_task_assignment(system)
        for cache in system.caches:
            self._svc_cache_occupancy(
                cache,
                {addr: line for addr, line in cache.lines() if not line.committed},
            )
        entries = system.vcl._entries(line_addr)
        if entries:
            self._svc_lines(system, ((line_addr, entries),), ranks, repaired)

    def scan_svc(self, system) -> None:
        """Every SVC rule over every resident line of ``system``: the
        full scan, read-only, and usable without :meth:`bind` (it counts
        no check). :meth:`repro.svc.system.SVCSystem.verify` ends with
        it, so an end-of-run audit covers the whole catalogue."""
        ranks = self._svc_task_assignment(system)
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

    def _svc_lines(
        self, system, items, ranks: Dict[int, int], repaired: bool = False
    ) -> None:
        """Every per-line rule, in catalogue order, for each ``(line_addr,
        entries)`` of ``items``, entries ascending by cache id: one loop
        per line, each rule's condition next to its failure. A rule builds
        its diagnostic only when it breaks. ``repaired`` adds the two
        rules that hold only right after a repair."""
        features = system.features
        lazy_commit = features.lazy_commit
        stale_bit = features.stale_bit
        architectural_bit = features.architectural_bit
        amap = system.amap
        full = amap.full_mask
        outside = ~full
        blocks_in = amap.blocks_in_mask
        memory_stamps = system.vcl._memory_stamps
        zero_stamps = [0] * amap.blocks_per_line
        for line_addr, entries in items:
            # Bit legality for the design tier: the C, T and A bits exist
            # only from the level that introduces them (Figures 6, 11, 16).
            for cache_id, line in entries.items():
                if not lazy_commit and line.committed:
                    self._fail(
                        "c-requires-ec",
                        f"line {line_addr:#x} has C set but the design has no C "
                        "bit (base design commits write back eagerly, section "
                        "3.2.6)",
                        subject=line_addr,
                        cache=cache_id,
                        state=line.describe(),
                    )
                if not stale_bit and line.stale:
                    self._fail(
                        "t-requires-ec",
                        f"line {line_addr:#x} has T set but the design has no T bit",
                        subject=line_addr,
                        cache=cache_id,
                        state=line.describe(),
                    )
                if not architectural_bit and line.architectural:
                    self._fail(
                        "a-requires-ecs",
                        f"line {line_addr:#x} has A set but the design has no A bit",
                        subject=line_addr,
                        cache=cache_id,
                        state=line.describe(),
                    )
                valid = line.valid_mask
                store = line.store_mask
                if (valid | store | line.load_mask) & outside:
                    name, mask = next(
                        (name, mask)
                        for name, mask in (
                            ("valid", valid), ("store", store), ("load", line.load_mask)
                        )
                        if mask & outside
                    )
                    self._fail(
                        "mask-in-range",
                        f"line {line_addr:#x} {name}_mask {mask:#x} exceeds the "
                        f"line's block mask {full:#x}",
                        subject=line_addr,
                        cache=cache_id,
                        state=line.describe(),
                    )
                if store & ~valid:
                    self._fail(
                        "stores-are-valid",
                        f"line {line_addr:#x} in cache {cache_id} owns blocks "
                        f"{store:#x} without valid data (valid {valid:#x})",
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

            # VOL reconstruction itself enforces "active line implies a
            # running task"; surface its complaint as a structured
            # violation.
            try:
                vol = build_vol(entries, ranks)
            except ProtocolError as exc:
                self._fail("vol-buildable", str(exc), subject=line_addr)

            # Pointers may dangle between repairs (Figure 17) but never
            # cycle. A walk that stays among the n holders for n steps has
            # revisited one; only then is the chain walked again, to name
            # the revisit.
            n_holders = len(entries)
            for start, line in entries.items():
                pointer = line.pointer
                steps = 0
                while pointer in entries:  # None or a dangling id ends it
                    steps += 1
                    if steps == n_holders:
                        visited = {start}
                        pointer = line.pointer
                        while pointer not in visited:
                            visited.add(pointer)
                            pointer = entries[pointer].pointer
                        self._fail(
                            "vol-acyclic",
                            f"line {line_addr:#x}: VOL pointer chain from cache "
                            f"{start} revisits cache {pointer} "
                            f"(chain {sorted(visited)})",
                            subject=line_addr,
                        )
                    pointer = entries[pointer].pointer

            # Right after a repair every pointer names its VOL successor.
            if repaired:
                for cache_id, expected in zip(vol, vol[1:] + [None]):
                    pointer = entries[cache_id].pointer
                    if pointer != expected:
                        self._fail(
                            "vol-pointers-repaired",
                            f"line {line_addr:#x}: pointer of cache {cache_id} "
                            f"is {pointer} right after a repair, expected "
                            f"{expected} (VOL {vol})",
                            subject=line_addr,
                            cache=cache_id,
                        )

            # One walk of the VOL checks the committed versions' order and
            # gathers what the exclusivity and T rules read.
            previous = stamp = owner = None
            owners = 0
            # Read, not memory_stamps_for(): the audit must not mutate the
            # VCL it checks.
            tail = memory_stamps.get(line_addr, zero_stamps)
            for cache_id in vol:
                line = entries[cache_id]
                # Committed versions keep a total order by version stamp
                # even after silent evictions punch holes in the chain.
                # They are the VOL's prefix in stamp order, so a shared
                # stamp sits next to its twin.
                if line.committed and line.store_mask:
                    if line.version_seq == stamp:
                        self._fail(
                            "version-order-total",
                            f"line {line_addr:#x}: committed versions in caches "
                            f"{previous} and {cache_id} share stamp {stamp}; "
                            "their writeback order is undefined",
                            subject=line_addr,
                        )
                    previous, stamp = cache_id, line.version_seq
                if line.exclusive:
                    owner = cache_id
                    owners += 1
                # The tail-of-VOL stamps: each block takes its newest
                # writer's stamp, else memory's.
                if stale_bit:
                    writes = line.store_mask & line.valid_mask
                    if writes == full:
                        tail = line.block_content
                    elif writes:
                        tail = list(tail)
                        for block in blocks_in(writes):
                            tail[block] = line.block_content[block]

            # X (section 3.8.1) authorizes bus-free stores, so it must
            # mean sole holder of the line's data: a silent store changes
            # the tail of the VOL with no bus event to snoop, and another
            # cache's valid blocks would keep a clear T on stale data.
            # Husks (no valid block, kept for their L bits) are harmless.
            if owners > 1:
                self._fail(
                    "x-unique",
                    f"line {line_addr:#x}: caches "
                    f"{[cid for cid in vol if entries[cid].exclusive]} all "
                    "claim exclusivity",
                    subject=line_addr,
                )
            if owner is not None:
                for cache_id in vol:
                    line = entries[cache_id]
                    if cache_id != owner and line.valid_mask:
                        self._fail(
                            "x-implies-sole-holder",
                            f"line {line_addr:#x}: cache {owner} holds X but "
                            f"cache {cache_id} holds valid blocks "
                            f"{line.valid_mask:#x} (VOL {vol}); a silent store "
                            "would leave that copy's T bit clear on stale data",
                            subject=line_addr,
                        )

            if not stale_bit:
                continue
            # A clear T on stale data authorizes a wrong local reuse
            # (section 3.4.3). T may be conservatively set between
            # repairs, but right after one it is set exactly on stale data.
            for cache_id in vol:
                line = entries[cache_id]
                stale = line.stale
                if stale and not repaired:
                    continue
                content = line.block_content
                # A line equal to the tail in every block is fresh.
                fresh = content == tail or all(
                    content[b] == tail[b] for b in blocks_in(line.valid_mask)
                )
                if not stale and not fresh:
                    self._fail(
                        "t-clear-implies-fresh",
                        f"line {line_addr:#x} in cache {cache_id} has T clear "
                        "but its valid blocks do not match the tail-of-VOL "
                        f"composition (stamps {content} vs tail {tail})",
                        subject=line_addr,
                        cache=cache_id,
                    )
                if stale and fresh:
                    self._fail(
                        "t-set-implies-stale",
                        f"line {line_addr:#x} in cache {cache_id} has T set "
                        "right after a repair, but its valid blocks match the "
                        f"tail-of-VOL composition (stamps {content} vs tail "
                        f"{tail})",
                        subject=line_addr,
                        cache=cache_id,
                    )

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
