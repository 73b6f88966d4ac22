"""Write-update vs write-invalidate vs hybrid (section 3.8)."""

import pytest

from conftest import make_svc
from repro.common.config import UpdatePolicy
from repro.svc.designs import final_design

A = 0x100


def make_policy_system(policy):
    import dataclasses

    from conftest import small_geometry
    from repro.check import InvariantChecker
    from repro.common.config import SVCConfig, SVCFeatures
    from repro.svc.system import SVCSystem

    config = final_design(
        SVCConfig(geometry=small_geometry()), update_policy=policy
    )
    system = SVCSystem(config, checker=InvariantChecker())
    for cache_id in range(4):
        system.begin_task(cache_id, cache_id)
    return system


class TestInvalidate:
    def test_copy_invalidated_then_refetches(self):
        system = make_policy_system(UpdatePolicy.INVALIDATE)
        system.store(3, A, 3)        # later task's version (no L)
        system.store(0, A + 4, 1)    # earlier store, different block
        line = system.line_in(3, A)
        # Block 1's copy in task 3's line lost validity.
        assert not line.covers(0b0010)
        assert system.stats.get("invalidation_responses") >= 1
        assert system.load(3, A + 4).value == 1  # refetched via bus


class TestUpdate:
    def test_copy_patched_in_place(self):
        system = make_policy_system(UpdatePolicy.UPDATE)
        system.store(3, A, 3)
        system.store(0, A + 4, 1)
        line = system.line_in(3, A)
        assert line.covers(0b0010)
        assert system.stats.get("update_responses") >= 1
        before = system.stats.get("bus_transactions")
        assert system.load(3, A + 4).value == 1  # local hit, fresh data
        assert system.stats.get("bus_transactions") == before

    def test_patched_copy_loses_architectural_status(self):
        system = make_policy_system(UpdatePolicy.UPDATE)
        system.store(3, A, 3)
        system.store(1, A + 4, 1)  # task 1 is not the head (task 0 is)
        line = system.line_in(3, A)
        assert not line.architectural

    def test_update_does_not_rescue_exposed_load(self):
        """An update cannot fix a load that already returned stale
        data: the violation squash still fires."""
        system = make_policy_system(UpdatePolicy.UPDATE)
        assert system.load(3, A).value == 0
        result = system.store(0, A, 9)
        assert 3 in result.squashed_ranks


class TestHybrid:
    def test_hybrid_updates_interested_copies(self):
        system = make_policy_system(UpdatePolicy.HYBRID)
        system.load(3, A + 8)        # task 3 demonstrates interest (L)
        system.store(3, A, 3)
        system.store(0, A + 4, 1)
        assert system.stats.get("update_responses") >= 1

    def test_hybrid_invalidates_disinterested_copies(self):
        system = make_policy_system(UpdatePolicy.HYBRID)
        system.store(3, A, 3)        # version, but no loads at all
        system.store(0, A + 4, 1)
        assert system.stats.get("invalidation_responses") >= 1


@pytest.mark.parametrize("policy", UpdatePolicy.ALL)
def test_all_policies_preserve_final_memory(policy):
    system = make_policy_system(policy)
    system.store(0, A, 10)
    system.load(2, A)
    system.store(1, A, 11)
    # task 2's exposed load was squashed; restart and finish everything.
    system.begin_task(2, 2)
    system.begin_task(3, 3)
    system.store(2, A, 12)
    for cache_id in range(4):
        system.commit_head(cache_id)
    system.drain()
    assert system.memory.read_int(A, 4) == 12
