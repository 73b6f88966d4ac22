"""The line-granular version directory: maintenance and audit.

The directory is a pure snoop-filtering index — every test here checks
either that it tracks the cache arrays exactly through the protocol's
mutation paths (install, drop, squash flash-clear, commit, VOL repair)
or that its audit catches a desync the moment one is manufactured.
"""

import pytest

from conftest import make_svc
from repro.common.errors import ProtocolError
from repro.svc.directory import VersionDirectory
from repro.svc.line import SVCLine


def audit_ok(svc):
    svc.directory.audit(svc.caches)  # raises on any desync


def test_directory_tracks_installs(svc):
    svc.store(0, 0x100, 1)
    svc.store(1, 0x100, 2)
    svc.store(2, 0x200, 3)
    line_100 = svc.amap.line_address(0x100)
    line_200 = svc.amap.line_address(0x200)
    assert svc.directory.holder_ids(line_100) == [0, 1]
    assert svc.directory.holder_ids(line_200) == [2]
    audit_ok(svc)


def test_entries_are_identity_mapped_and_ascending(svc):
    svc.store(3, 0x100, 1)
    svc.store(0, 0x100, 2)
    line_addr = svc.amap.line_address(0x100)
    entries = svc.directory.entries(line_addr)
    assert list(entries) == sorted(entries)
    for cache_id, line in entries.items():
        assert svc.caches[cache_id].line_for(line_addr) is line
    # entries() hands out a fresh dict: callers (snarf) may mutate it.
    entries.clear()
    assert svc.directory.holder_ids(line_addr) == [0, 3]


def test_directory_follows_squash_flash_clear(svc):
    for cache_id in range(4):
        svc.store(cache_id, 0x100, cache_id + 1)
    svc.squash_from_rank(2)
    line_addr = svc.amap.line_address(0x100)
    holders = svc.directory.holder_ids(line_addr)
    assert 0 in holders and 1 in holders
    audit_ok(svc)
    # Re-dispatch and keep going: directory stays consistent.
    svc.begin_task(2, 2)
    svc.begin_task(3, 3)
    svc.store(2, 0x100, 7)
    audit_ok(svc)


def test_directory_follows_commits(svc):
    svc.store(0, 0x100, 1)
    svc.store(1, 0x100, 2)
    svc.commit_head(0)
    audit_ok(svc)
    svc.commit_head(1)
    audit_ok(svc)


def test_directory_follows_eager_commit_invalidation():
    # The base design commits eagerly: flash-invalidating every line in
    # the committing cache must empty its directory entries too.
    svc = make_svc("base")
    for cache_id in range(4):
        svc.begin_task(cache_id, cache_id)
    svc.store(0, 0x100, 1)
    svc.store(0, 0x200, 2)
    svc.commit_head(0)
    for line_addr, _holders in svc.directory:
        assert 0 not in svc.directory.holder_ids(line_addr)
    audit_ok(svc)


def test_directory_follows_vol_repair(svc):
    svc.store(0, 0x100, 1)
    svc.store(2, 0x100, 2)
    svc.squash_from_rank(2)  # leaves a dangling VOL pointer in cache 0
    svc.begin_task(2, 2)
    svc.begin_task(3, 3)
    svc.verify()  # repairs the pointer; must leave the directory exact
    audit_ok(svc)
    svc.load(3, 0x100)
    audit_ok(svc)


def test_audit_catches_smuggled_line(svc):
    svc.store(0, 0x100, 1)
    rogue = SVCLine(data=bytearray(16), valid_mask=0b1111)
    rogue.ensure_block_stamps(4)
    svc.caches[1].array.insert(svc.amap.line_address(0x100), rogue)
    with pytest.raises(ProtocolError):
        svc.directory.audit(svc.caches)


def test_audit_catches_stale_entry(svc):
    svc.store(0, 0x100, 1)
    line_addr = svc.amap.line_address(0x100)
    svc.caches[0].array.remove(line_addr)  # behind the directory's back
    with pytest.raises(ProtocolError):
        svc.directory.audit(svc.caches)


def test_audit_catches_identity_mismatch(svc):
    svc.store(0, 0x100, 1)
    line_addr = svc.amap.line_address(0x100)
    svc.caches[0].array.remove(line_addr)
    other = SVCLine(data=bytearray(16), valid_mask=0b1111)
    other.ensure_block_stamps(4)
    svc.caches[0].array.insert(line_addr, other)  # same slot, other object
    with pytest.raises(ProtocolError):
        svc.directory.audit(svc.caches)


def test_drop_of_unknown_entry_raises():
    directory = VersionDirectory()
    with pytest.raises(ProtocolError):
        directory.on_drop(0, 0x100)


def test_verify_uses_directory_audit(svc):
    """system.verify() must surface a directory desync, not mask it."""
    svc.store(0, 0x100, 1)
    svc.caches[0].array.remove(svc.amap.line_address(0x100))
    with pytest.raises(ProtocolError):
        svc.verify()


def test_directory_off_runs_bare_scans():
    svc = make_svc("final", use_directory=False)
    assert svc.directory is None
    for cache_id in range(4):
        svc.begin_task(cache_id, cache_id)
    svc.store(0, 0x100, 1)
    assert svc.load(1, 0x100).value == 1
    svc.verify()
