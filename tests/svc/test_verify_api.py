"""The public consistency-audit API."""

import pytest

from conftest import make_svc
from repro.common.errors import InvariantViolation, ProtocolError

A = 0x100


def test_verify_passes_on_live_system(svc):
    svc.store(0, 0x100, 1)
    svc.load(2, 0x100)
    svc.store(3, 0x200, 3)
    svc.verify()  # must not raise


def test_verify_passes_after_commits_and_squashes(svc):
    svc.store(0, 0x100, 1)
    svc.store(2, 0x100, 2)
    svc.squash_from_rank(2)
    svc.begin_task(2, 2)
    svc.begin_task(3, 3)
    svc.commit_head(0)
    svc.verify()


def test_verify_accepts_lazy_state_and_leaves_it_unrepaired(svc):
    """Dangling pointers and conservative T bits are pending repairs,
    not corruption: verify() accepts them and, being read-only, leaves
    them for the line's next bus request to repair."""
    svc.store(0, 0x100, 1)
    svc.store(2, 0x100, 2)
    svc.squash_from_rank(2)           # leaves a dangling pointer
    svc.begin_task(2, 2)
    svc.begin_task(3, 3)
    dangling = svc.line_in(0, 0x100).pointer
    assert dangling is not None
    assert svc.line_in(dangling, 0x100) is None
    svc.verify()
    assert svc.line_in(0, 0x100).pointer == dangling  # not repaired


def test_verify_detects_corruption(svc):
    """An active line on a cache with no running task is real
    corruption no repair can explain away."""
    from repro.svc.line import SVCLine

    svc.store(0, 0x100, 1)
    rogue = SVCLine(data=bytearray(16), valid_mask=0b1111)
    rogue.ensure_block_stamps(4)
    svc.caches[1].array.insert(svc.amap.line_address(0x100), rogue)
    svc.caches[1].current_task = None  # cache claims to be idle
    with pytest.raises(ProtocolError):
        svc.verify()


def _two_holders(svc):
    svc.store(0, A, 1)
    svc.load(1, A)
    return svc.vcl._entries(A)


def _two_exclusive_holders(svc):
    for line in _two_holders(svc).values():
        line.exclusive = True


def _store_bits_outside_valid_mask(svc):
    line = _two_holders(svc)[1]
    line.store_mask |= 0x1
    line.valid_mask &= ~0x1


def _written_back_active_line(svc):
    _two_holders(svc)[1].written_back = True


def _committed_versions_sharing_a_stamp(svc):
    svc.store(0, A, 1)
    svc.commit_head(0)
    svc.begin_task(0, 4)
    svc.store(1, A + 4, 2)
    svc.commit_head(1)
    older, newer = (svc.line_in(cache_id, A) for cache_id in (0, 1))
    assert older.committed and newer.committed
    newer.version_seq = older.version_seq


def _active_line_missing_from_active_set(svc):
    svc.store(0, A, 1)
    svc.caches[0].active_lines.discard(A)


@pytest.mark.parametrize(
    "invariant, plant",
    [
        ("x-unique", _two_exclusive_holders),
        ("stores-are-valid", _store_bits_outside_valid_mask),
        ("writeback-implies-committed", _written_back_active_line),
        ("version-order-total", _committed_versions_sharing_a_stamp),
        ("active-set-agreement", _active_line_missing_from_active_set),
    ],
)
def test_verify_audits_the_checker_catalogue(svc, invariant, plant):
    """Corrupt states the end-of-run audit rejects by name: verify()
    ends with the InvariantChecker catalogue's full scan."""
    plant(svc)
    with pytest.raises(InvariantViolation) as excinfo:
        svc.verify()
    assert excinfo.value.invariant == invariant


def test_verify_empty_system():
    make_svc("final").verify()


def test_timing_report_summary():
    from repro.hier.task import MemOp, TaskProgram
    from repro.timing.simulator import TimingSimulator

    tasks = [TaskProgram(ops=[MemOp.store(0x100, 1), MemOp.compute()])]
    report = TimingSimulator(make_svc("final"), tasks).run()
    text = report.summary()
    assert "IPC" in text and "miss ratio" in text and "squashes" in text
