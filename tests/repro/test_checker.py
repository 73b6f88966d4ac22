"""Tests for the runtime invariant checker (repro.check), including the
end-to-end bug-catching drill: seed a protocol bug, watch the checker
fire, capture the failure, shrink it to a minimal reproducer and replay
it deterministically."""

import pytest

from conftest import make_svc, small_geometry
from repro.arb.buffer import WORD_SIZE, ARBEntry
from repro.arb.system import ARBSystem
from repro.check import InvariantChecker
from repro.common.config import ARBConfig, CacheGeometry, SVCConfig
from repro.common.errors import InvariantViolation, ProtocolError
from repro.faults import FaultPlan
from repro.hier.task import MemOp, TaskProgram
from repro.replay import Case, FailureCapture, run_case, shrink_case
from repro.svc.designs import design_config
from repro.svc.line import SVCLine
from repro.svc.system import SVCSystem

A = 0x1000


class TestBinding:
    def test_bind_requires_an_event_log(self):
        system = SVCSystem(design_config("final", SVCConfig(
            geometry=small_geometry(),
        )))
        assert system.event_log is None
        with pytest.raises(ProtocolError):
            InvariantChecker().bind(system)

    def test_checker_kwarg_creates_event_log_and_audits(self, svc):
        assert svc.event_log is not None
        before = svc.checker.checks  # begin_task events already audited
        svc.store(0, A, 1)
        assert svc.checker.checks > before

    def test_no_checker_is_the_default_zero_overhead_path(self):
        system = SVCSystem(design_config("final", SVCConfig(
            geometry=small_geometry(),
        )))
        assert system.checker is None
        assert system.event_log is None  # nothing to emit to, nothing runs
        system.begin_task(0, 0)
        system.store(0, A, 7)
        assert system.load(0, A).value == 7


class TestDetection:
    def test_flags_double_exclusivity(self, svc):
        svc.store(0, A, 1)
        svc.load(1, A)
        entries = svc.vcl._entries(A)
        for line in entries.values():
            line.exclusive = True  # corrupt: two caches both claim X
        with pytest.raises(InvariantViolation) as excinfo:
            svc.checker.check_svc(line_addr=A)
        assert excinfo.value.invariant == "x-unique"

    def test_first_violation_is_retained_for_capture(self, svc):
        svc.store(0, A, 1)
        svc.load(1, A)
        for line in svc.vcl._entries(A).values():
            line.exclusive = True
        with pytest.raises(InvariantViolation):
            svc.checker.check_svc(line_addr=A)
        # check_svc() raises directly; on_event is where retention lives
        assert svc.checker.last_violation is None
        event = type("E", (), {"kind": "bus", "detail": {"line_addr": A}})
        with pytest.raises(InvariantViolation):
            svc.checker.on_event(event)
        assert svc.checker.last_violation.invariant == "x-unique"


def _line_setup(design, holders):
    """Tasks 0-2 on caches 0-2 (cache 3 idle); line ``A`` held by cache 0
    alone (a store) or also by cache 1 (a later task's load)."""
    system = make_svc(design)
    for cache_id in range(3):
        system.begin_task(cache_id, cache_id)
    system.store(0, A, 1)
    if holders == 2:
        system.load(1, A)
    return system


def _versions_setup(design, holders):
    """Two committed versions of ``A``: cache 0's (rank 0) and cache 1's
    (rank 1), both retained as passive dirty lines."""
    system = _line_setup(design, 1)
    system.commit_head(0)
    system.begin_task(0, 3)
    system.store(1, A + 4, 2)
    system.commit_head(1)
    return system


def _victim(system, holders):
    """The corrupted entry: the newest holder of ``A``."""
    return system.vcl._entries(A)[holders - 1]


def _deactivate(system, cache_id):
    """Retire ``cache_id``'s task from both rank maps, leaving its lines."""
    rank = system.caches[cache_id].current_task
    system.caches[cache_id].current_task = None
    del system._active_ranks[cache_id]
    del system._rank_to_cache[rank]


def _duplicate_rank(system, holders):
    system.caches[1].current_task = 0
    system._active_ranks[1] = 0
    del system._rank_to_cache[1]
    system._rank_to_cache[0] = 1


def _set_committed(system, holders):
    line = _victim(system, holders)
    line.committed = True
    system.caches[holders - 1].active_lines.discard(A)


def _phantom_active_holder(system, holders):
    """The checker's rank map loses cache 0, which holds an active copy
    of ``A``: the VOL has no rank to order that copy by. The system's
    own maps stay intact, so the task-map and occupancy rules pass."""
    ranks = {cid: rank for cid, rank in system._active_ranks.items() if cid}
    system.current_ranks = lambda: dict(ranks)


def _pointer_cycle(system, holders):
    entries = system.vcl._entries(A)
    ids = list(entries)
    for index, cache_id in enumerate(ids):
        entries[cache_id].pointer = ids[(index + 1) % len(ids)]


def _dangling_pointer(system, holders):
    """The newest holder points at idle cache 3, which holds no copy."""
    _victim(system, holders).pointer = 3


def _stale_block_with_clear_t(system, holders):
    line = _victim(system, holders)
    line.stale = False
    line.block_content[-1] = 999


def _store_without_data(system, holders):
    line = _victim(system, holders)
    line.store_mask |= 0x1
    line.valid_mask &= ~0x1


def _both_exclusive(system, holders):
    for line in system.vcl._entries(A).values():
        line.exclusive = True


def _shared_exclusive(system, holders):
    system.vcl._entries(A)[0].exclusive = True


def _plant_active_line(system, holders):
    """An uncommitted line put straight into cache 0's array, behind
    ``SVCCache.install``: ``active_lines`` misses it."""
    line = SVCLine(data=bytearray(16), task_id=system.caches[0].current_task)
    system.caches[0].array.insert(A + 0x40, line)


def _plant_committed_line_in_idle_cache(system, holders):
    """A valid committed copy of ``A`` put straight into idle cache 3's
    array, behind ``SVCCache.install``, while cache 0 holds ``A`` with
    X. Only a check that reads holders from the arrays sees it."""
    line = SVCLine(
        data=bytearray(16), valid_mask=system.amap.full_mask, committed=True
    )
    line.ensure_block_stamps(system.amap.blocks_per_line)
    system.caches[3].array.insert(A, line)


def _set_attr(name, value):
    def corrupt(system, holders):
        setattr(_victim(system, holders), name, value)

    return corrupt


#: (invariant, design, setup, corruption, holder counts, scopes). Every
#: SVC rule of docs/INVARIANTS.md; per-line rules run with one holder
#: and with several. The scopes are the line check, the full scan and
#: the line check of a just-repaired line (``repaired=True``, a BusRead
#: or BusWrite), the only scope of the two rules that hold only right
#: after a repair. Every scope reads holders from the cache arrays, so
#: a line planted there behind the protocol's back is audited by each.
#: A rule's later rows (lines planted on the array side) add their
#: corruption's name to the case id.
SVC_RULES = [
    ("task-map-agreement", "final", _line_setup,
     lambda s, h: s._active_ranks.__setitem__(2, 9), (1,), ("line", "scan")),
    ("task-rank-unique", "final", _line_setup, _duplicate_rank,
     (1,), ("line", "scan")),
    ("task-after-committed-prefix", "final", _line_setup,
     lambda s, h: setattr(s, "_committed_through", 5), (1,), ("line", "scan")),
    ("active-set-agreement", "final", _line_setup,
     lambda s, h: s.caches[0].active_lines.add(A + 0x40), (1,), ("line", "scan")),
    ("active-set-agreement", "final", _line_setup, _plant_active_line,
     (1, 2), ("line", "scan")),
    ("active-implies-task", "final", _line_setup,
     lambda s, h: _deactivate(s, 0), (1,), ("line", "scan")),
    ("active-task-stamp", "final", _line_setup,
     lambda s, h: setattr(_victim(s, 1), "task_id", 99), (1,), ("line", "scan")),
    ("c-requires-ec", "base", _line_setup, _set_committed, (1, 2), ("line", "scan")),
    ("t-requires-ec", "base", _line_setup, _set_attr("stale", True),
     (1, 2), ("line", "scan")),
    ("a-requires-ecs", "ec", _line_setup, _set_attr("architectural", True),
     (1, 2), ("line", "scan")),
    ("mask-in-range", "final", _line_setup, _set_attr("load_mask", 0x10),
     (1, 2), ("line", "scan")),
    ("stores-are-valid", "final", _line_setup, _store_without_data,
     (1, 2), ("line", "scan")),
    ("writeback-implies-committed", "final", _line_setup,
     _set_attr("written_back", True), (1, 2), ("line", "scan")),
    ("vol-buildable", "final", _line_setup, _phantom_active_holder,
     (1, 2), ("line", "scan")),
    ("vol-acyclic", "final", _line_setup, _pointer_cycle, (1, 2), ("line", "scan")),
    ("vol-pointers-repaired", "final", _line_setup, _dangling_pointer,
     (1, 2), ("repaired",)),
    ("version-order-total", "final", _versions_setup,
     lambda s, h: setattr(_victim(s, 2), "version_seq", 1), (2,), ("line", "scan")),
    ("t-clear-implies-fresh", "final", _line_setup, _stale_block_with_clear_t,
     (1, 2), ("line", "scan")),
    ("t-set-implies-stale", "final", _line_setup, _set_attr("stale", True),
     (1, 2), ("repaired",)),
    ("x-unique", "final", _line_setup, _both_exclusive, (2,), ("line", "scan")),
    ("x-implies-sole-holder", "final", _line_setup, _shared_exclusive,
     (2,), ("line", "scan")),
    ("x-implies-sole-holder", "final", _line_setup,
     _plant_committed_line_in_idle_cache, (1,), ("line", "scan")),
]


def _rule_cases():
    ruled = set()
    for invariant, design, setup, corrupt, holder_counts, scopes in SVC_RULES:
        tag = f"-{corrupt.__name__.strip('_')}" if invariant in ruled else ""
        ruled.add(invariant)
        for holders in holder_counts:
            for scope in scopes:
                yield pytest.param(
                    invariant, design, setup, corrupt, holders, scope,
                    id=f"{invariant}-{holders}holder-{scope}{tag}",
                )


def test_rule_table_covers_every_documented_svc_rule():
    import os
    import re

    doc = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "INVARIANTS.md")
    with open(doc) as handle:
        text = handle.read()
    svc_part = text.split("## ARB")[0]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", svc_part, re.MULTILINE))
    assert documented == {rule[0] for rule in SVC_RULES}


@pytest.mark.parametrize(
    "invariant,design,setup,corrupt,holders,scope", list(_rule_cases())
)
def test_every_svc_rule_fires(invariant, design, setup, corrupt, holders, scope):
    system = setup(design, holders)
    assert len(system.vcl._entries(A)) == holders
    check = {
        "line": lambda: system.checker.check_svc(line_addr=A),
        "scan": system.checker.check_svc,
        "repaired": lambda: system.checker.check_svc(line_addr=A, repaired=True),
    }[scope]
    system.checker.check_svc(line_addr=A)  # healthy before the corruption
    system.checker.check_svc()
    check()
    corrupt(system, holders)
    with pytest.raises(InvariantViolation) as excinfo:
        check()
    assert excinfo.value.invariant == invariant


@pytest.mark.parametrize("holders", [1, 2])
@pytest.mark.parametrize(
    "corrupt, invariant",
    [
        (_dangling_pointer, "vol-pointers-repaired"),
        (_set_attr("stale", True), "t-set-implies-stale"),
    ],
    ids=["dangling-pointer", "t-set-on-fresh-data"],
)
def test_pending_repairs_pass_the_repair_aware_checks(corrupt, invariant, holders):
    """A dangling pointer and a T bit set on fresh data are what a line
    may carry until its next bus request repairs it: the plain line
    check and the full scan accept them, and so does a bus event whose
    request the VCL reserves with no repair (a base-tier commit's
    BusWback). The line check of a BusRead or BusWrite, which follows
    a repair, rejects them."""
    system = _line_setup("final", holders)
    corrupt(system, holders)
    system.checker.check_svc(line_addr=A)
    system.checker.check_svc()
    system.event_log.emit("bus", "test", request="BusWback", line_addr=A)
    with pytest.raises(InvariantViolation) as excinfo:
        system.event_log.emit("bus", "test", request="BusRead", line_addr=A)
    assert excinfo.value.invariant == invariant


def _arb_setup():
    """An audited ARB after real accesses and one commit: tasks 0-3 on
    units 0-3; task 0 stored ``A`` and committed, task 1 loaded ``A``,
    task 2 stored one byte of ``A + 4`` and task 3 loaded that word."""
    geometry = CacheGeometry(size_bytes=512, associativity=1, line_size=16)
    system = ARBSystem(ARBConfig(cache_geometry=geometry), checker=InvariantChecker())
    for unit in range(system.n_units):
        system.begin_task(unit, unit)
    system.store(0, A, 7)
    assert system.load(1, A).value == 7
    system.store(2, A + 4, 0xAB, size=1)
    system.load(3, A + 4)
    system.commit_head(0)
    return system


def _committed_stage_left(system):
    """Task 0 committed, yet a stage of row ``A`` still holds its store."""
    system.buffer.lookup(A).entries[0] = ARBEntry(0, 0b1111, bytearray(WORD_SIZE))


def _mask_bit_outside_word(system):
    system.buffer.lookup(A + 4).entries[2].store_mask |= 1 << WORD_SIZE


#: (invariant, corruption). Every ARB rule of docs/INVARIANTS.md.
ARB_RULES = [
    ("arb-rows-released", lambda s: s.buffer.lookup(A).entries.clear()),
    ("arb-window", _committed_stage_left),
    ("arb-byte-masks", _mask_bit_outside_word),
]


def test_rule_table_covers_every_documented_arb_rule():
    import os
    import re

    doc = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "INVARIANTS.md")
    with open(doc) as handle:
        text = handle.read()
    arb_part = text.split("\n## ARB\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", arb_part, re.MULTILINE))
    assert documented == {rule[0] for rule in ARB_RULES}


@pytest.mark.parametrize(
    "invariant,corrupt", ARB_RULES, ids=[rule[0] for rule in ARB_RULES]
)
def test_every_arb_rule_fires(invariant, corrupt):
    system = _arb_setup()
    assert system.checker.checks == 1  # the commit was audited
    system.checker.check_arb()  # healthy before the corruption
    corrupt(system)
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_arb()
    assert excinfo.value.invariant == invariant


class TestTornTransactionScans:
    """Full-state scans must not observe the middle of a bus
    transaction: a squash fired mid-window-walk is visible through the
    event log before the requestor's line is patched."""

    def test_scan_is_deferred_while_a_transaction_is_open(self, svc):
        svc.store(0, A, 1)
        checker = svc.checker
        before = checker.checks
        svc._in_transaction = True
        svc.event_log.emit("squash", "test")
        assert checker._deferred_scan
        assert checker.checks == before  # torn snapshot not scanned
        svc._in_transaction = False
        svc.event_log.emit("squash", "test")
        assert not checker._deferred_scan
        assert checker.checks == before + 2  # owed scan + this event's

    def test_line_checks_still_run_mid_transaction(self, svc):
        svc.store(0, A, 1)
        before = svc.checker.checks
        svc._in_transaction = True
        svc.event_log.emit("bus", "test", line_addr=A)
        svc._in_transaction = False
        assert svc.checker.checks == before + 1


def seeded_bug_case():
    """A workload whose VOL gets rebuilt repeatedly — several writers to
    one line plus a forced mid-chain squash — so a broken repair step is
    exercised immediately."""
    tasks = tuple(
        TaskProgram(ops=[MemOp.store(A, rank + 1), MemOp.load(A)])
        for rank in range(5)
    )
    return Case(
        design="final",
        seed=5,
        tasks=tasks,
        geometry=CacheGeometry(size_bytes=256, associativity=2, line_size=16),
        fault_plan=FaultPlan(seed=5, squash_at=((2, 1),)),
    )


def break_vol_repair(monkeypatch):
    """Seed a protocol bug: the lazy VOL repair closes the pointer chain
    into a cycle whenever two or more caches share the line."""
    import repro.svc.vcl as vcl_module

    original = vcl_module.rewrite_pointers

    def cyclic_repair(entries, vol):
        original(entries, vol)
        if len(vol) >= 2:
            entries[vol[-1]].pointer = vol[0]

    monkeypatch.setattr(vcl_module, "rewrite_pointers", cyclic_repair)


class TestSeededBugDrill:
    def test_case_passes_on_the_healthy_protocol(self):
        result = run_case(seeded_bug_case())
        assert result.ok, result.describe()

    def test_checker_catches_capture_shrinks_and_replays(
        self, monkeypatch, tmp_path
    ):
        break_vol_repair(monkeypatch)
        case = seeded_bug_case()

        # 1. The checker catches the seeded bug as a structured violation.
        result = run_case(case)
        assert result.signature == ("invariant", "vol-acyclic")

        # 2. Captured to JSON and loaded back intact.
        path = str(tmp_path / "seeded-bug.json")
        FailureCapture.from_result(case, result).save(path)
        capture = FailureCapture.load(path)
        assert capture.case == case

        # 3. The capture replays deterministically: same signature and
        #    same diagnostic, twice.
        first = run_case(capture.case)
        second = run_case(capture.case)
        assert first.signature == ("invariant", "vol-acyclic")
        assert first.error_message == second.error_message
        assert first.invariant == second.invariant

        # 4. Greedy shrinking yields a <=3-task minimal reproducer that
        #    still fails the same way.
        shrunk, shrunk_result = shrink_case(capture.case)
        assert shrunk_result.signature == ("invariant", "vol-acyclic")
        assert len(shrunk.tasks) <= 3
        assert sum(len(t.memory_ops) for t in shrunk.tasks) <= 4
