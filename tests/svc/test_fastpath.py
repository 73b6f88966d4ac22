"""The structure-of-arrays fastpath kernel is observationally invisible.

:class:`repro.svc.fastpath.FastpathKernel` exists purely for speed —
supply plans without byte movement, stamp-compare snarf acceptance,
fused VOL repair, copy-free residency checks. These tests pin the
wiring (``SVCConfig.use_fastpath`` selects the kernel, off selects the
per-line reference walks), check the kernel's answers against brute
force on live systems, and replay seeded workloads with fault plans
both ways demanding byte-identical observables. The broad seed sweep
lives in ``tests/integration/test_property_differential.py``; these
are the fast deterministic anchors.
"""

import pytest

from conftest import make_svc
from repro.faults import random_fault_plan
from repro.harness.differential import (
    TIERS,
    compare_fastpath_modes,
    differential_workload,
)
from repro.hier.driver import SpeculativeExecutionDriver
from repro.svc.vol import (
    CACHE,
    CLEAN,
    MEMORY,
    build_vol,
    clean_supplier,
    closest_previous_writer,
)
from repro.timing.simulator import TimingSimulator
from repro.workloads.generator import WorkloadSpec, generate_tasks

A = 0x100


def begin_all(system, n=4):
    for cache_id in range(n):
        system.begin_task(cache_id, cache_id)
    return system


# -- wiring ------------------------------------------------------------------


def test_fastpath_on_by_default():
    system = make_svc("final")
    assert system.config.use_fastpath
    assert system.vcl.fastpath is not None


def test_fastpath_off_selects_reference_path():
    system = make_svc("final", use_fastpath=False)
    assert system.vcl.fastpath is None


# -- kernel answers vs brute force -------------------------------------------


def _sharing_system():
    """Four tasks, one line with a mid-chain version and mixed holders."""
    system = begin_all(make_svc("hr"))
    system.memory.write_int(A, 4, 0x42)
    system.store(1, A, 11)
    system.load(0, A)
    system.load(3, A)
    return system


def _brute_holders(system, line_addr):
    return {
        cache.cache_id
        for cache in system.caches
        if cache.line_for(line_addr) is not None
    }


@pytest.mark.parametrize("use_directory", [True, False])
def test_residency_checks_match_brute_force(use_directory):
    system = begin_all(make_svc("hr", use_directory=use_directory))
    system.memory.write_int(A, 4, 0x42)
    system.store(1, A, 11)
    system.load(0, A)
    kernel = system.vcl.fastpath
    line_addr = system.amap.line_address(A)
    for requestor in range(4):
        holders = _brute_holders(system, line_addr)
        assert kernel.is_sole_holder(line_addr, requestor) == (
            holders == {requestor}
        )
        expected_invalid = all(
            system.caches[c].line_for(line_addr) is None
            or system.caches[c].line_for(line_addr).valid_mask == 0
            for c in holders
            if c != requestor
        )
        assert kernel.others_all_invalid(line_addr, requestor) == expected_invalid


def test_ranks_column_is_the_live_map():
    system = _sharing_system()
    kernel = system.vcl.fastpath
    assert kernel.ranks() == system.current_ranks()
    system.commit_head(0)
    assert kernel.ranks() == system.current_ranks()


def test_supply_plan_stamps_match_composed_bytes():
    """A plan whose stamps equal a composed line's stamps must describe
    the same bytes (invariant 2: equal stamps imply equal data)."""
    from repro.svc.vol import build_vol

    system = _sharing_system()
    vcl = system.vcl
    kernel = vcl.fastpath
    line_addr = system.amap.line_address(A)
    entries = vcl._entries(line_addr)
    ranks = system.current_ranks()
    vol = build_vol(entries, ranks)
    for position in range(len(vol) + 1):
        suppliers, stamps = kernel.supply_plan(line_addr, entries, vol, position)
        data, ref_suppliers, stamp_map = vcl._compose(
            line_addr, entries, vol, position, system.amap.full_mask
        )
        assert suppliers == ref_suppliers
        assert stamps == [
            stamp_map.get(b, 0) for b in range(system.amap.blocks_per_line)
        ]


# -- supply walk vs the per-block rule ---------------------------------------


def _per_block_supply(system, line_addr, entries, vol, position, need_mask):
    """The reference rule, one block at a time: the closest previous
    writer, else the first clean copy in ``entries`` order, else memory."""
    amap = system.amap
    vbs = amap.versioning_block_size
    memory_stamps = system.vcl.memory_stamps_for(line_addr)
    data = bytearray(amap.line_size)
    suppliers, stamps = {}, {}
    for block in range(amap.blocks_per_line):
        if not need_mask & (1 << block):
            continue
        start, end = block * vbs, (block + 1) * vbs
        writer = closest_previous_writer(entries, vol, position, block)
        if writer is not None:
            suppliers[block] = (CACHE, writer)
            stamps[block] = entries[writer].block_content[block]
            data[start:end] = entries[writer].data[start:end]
            continue
        stamps[block] = memory_stamps[block]
        clean = clean_supplier(entries, block, memory_stamps)
        if clean is not None:
            suppliers[block] = (CLEAN, clean)
            data[start:end] = entries[clean].data[start:end]
        else:
            suppliers[block] = (MEMORY, None)
            data[start:end] = system.memory.read_bytes(line_addr + start, vbs)
    return data, suppliers, stamps


def _check_supply_walk(system, line_addr):
    """Every position and need mask of one line, in canonical and in
    reversed holder order (``clean_supplier`` takes the first match)."""
    vcl = system.vcl
    kernel = vcl.fastpath
    amap = system.amap
    canonical = vcl._entries(line_addr)
    vol = build_vol(canonical, system.current_ranks())
    for entries in (canonical, dict(reversed(list(canonical.items())))):
        for position in range(len(vol) + 1):
            for need_mask in range(amap.full_mask + 1):
                expected = _per_block_supply(
                    system, line_addr, entries, vol, position, need_mask
                )
                data, suppliers, stamps = vcl._compose(
                    line_addr, entries, vol, position, need_mask
                )
                assert bytes(data) == bytes(expected[0])
                assert list(suppliers.items()) == list(expected[1].items())
                assert stamps == expected[2]
            suppliers, stamps = kernel.supply_plan(line_addr, entries, vol, position)
            _, ref_suppliers, ref_stamps = _per_block_supply(
                system, line_addr, entries, vol, position, amap.full_mask
            )
            assert list(suppliers.items()) == list(ref_suppliers.items())
            assert stamps == [ref_stamps[b] for b in range(amap.blocks_per_line)]


def _sharing_workload(seed):
    """Few lines, heavily shared: multi-holder lines on every tier."""
    return generate_tasks(
        WorkloadSpec(
            name=f"sharing-{seed}",
            n_tasks=12,
            ops_per_task_mean=8,
            memory_fraction=0.7,
            store_fraction=0.4,
            working_set_bytes=256,
            shared_bytes=64,
            read_only_bytes=64,
            p_shared=0.6,
            p_private=0.1,
            p_read_only=0.2,
            spatial_run=2,
            seed=seed,
        )
    )


@pytest.mark.parametrize("tier", TIERS)
def test_supply_walk_matches_per_block_rule(tier):
    """``_compose`` and ``supply_plan`` find every block's supplier in
    one VOL walk; on the live multi-holder line of every bus transaction
    they must agree, block by block, with ``closest_previous_writer``
    and ``clean_supplier``."""
    seed = 7
    system = make_svc(tier)
    checked = []

    def observe(event):
        if event.kind != "bus":
            return
        line_addr = event.detail["line_addr"]
        if len(system.vcl._entries(line_addr)) >= 2:
            _check_supply_walk(system, line_addr)
            checked.append(line_addr)

    system.event_log.attach(observe)
    SpeculativeExecutionDriver(system, _sharing_workload(seed), seed=seed).run()
    assert len(checked) >= 8


# -- snapshot freshness during a run -----------------------------------------


def _audit_snapshots_like_the_checker(system):
    """Run ``FastpathKernel.audit`` at every event the runtime
    InvariantChecker audits: each bus event, and each commit, squash and
    begin_task outside a bus transaction. Returns the audited event
    kinds, one per audit."""
    kernel = system.vcl.fastpath
    audits = []

    def observe(event):
        if event.kind == "bus" or (
            event.kind in ("commit", "squash", "begin_task")
            and not system._in_transaction
        ):
            kernel.audit()
            audits.append(event.kind)

    system.event_log.attach(observe)
    return audits


#: Evicting (the differential workload overflows the test caches) and
#: sharing: drops and multi-holder installs both reach the hooks.
WORKLOADS = {
    "evicting": lambda seed: differential_workload(seed, n_tasks=12, ops_per_task=10),
    "sharing": _sharing_workload,
}


def _fault_plan(tier, seed, tasks):
    allow_squashes = tier != "ec"
    plan = random_fault_plan(seed, len(tasks), 10, allow_squashes=allow_squashes)
    return plan, 0.05 if allow_squashes else 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("tier", TIERS)
def test_snapshots_stay_fresh_through_a_driver_run(tier, workload):
    seed = 4
    system = make_svc(tier)
    audits = _audit_snapshots_like_the_checker(system)
    tasks = WORKLOADS[workload](seed)
    plan, squash_probability = _fault_plan(tier, seed, tasks)
    SpeculativeExecutionDriver(
        system,
        tasks,
        seed=seed,
        squash_probability=squash_probability,
        fault_plan=plan,
    ).run()
    assert audits.count("bus") > 20
    system.verify()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("tier", TIERS)
def test_snapshots_stay_fresh_through_a_timing_run(tier, workload):
    """The timing path adds bus contention, MSHR retries, replacement
    stalls and misprediction squashes to the interleavings."""
    seed = 9
    system = make_svc(tier)
    audits = _audit_snapshots_like_the_checker(system)
    tasks = WORKLOADS[workload](seed)
    plan, _ = _fault_plan(tier, seed, tasks)
    TimingSimulator(system, tasks, fault_plan=plan).run()
    assert audits.count("bus") > 20
    system.verify()


def test_warm_snarf_fill_rebuilds_no_snapshot():
    """On a warm line, a BusRead fill that snarfs, plus its repair,
    resolves against the snapshot its snoop acquired: the install hooks
    carry that snapshot forward instead of dropping it."""
    system = make_svc("hr")
    kernel = system.vcl.fastpath
    line_addr = system.amap.line_address(A)
    system.memory.write_int(A, 4, 0x42)
    system.begin_task(0, 0)
    system.load(0, A)  # no other task runs yet: nothing snarfs
    system.begin_task(1, 1)
    system.begin_task(2, 2)
    builds = kernel.snap_builds
    assert system.load(1, A).value == 0x42  # a clean copy from cache 0
    assert system.caches[2].line_for(line_addr) is not None  # snarfed
    assert system.stats.get("snarfs") == 1
    assert kernel.snap_builds == builds
    kernel.audit()


# -- stamp-mismatch fallback (invariant 3's escape hatch) --------------------


def _stamp_divergence_run(system):
    """Drive a snarf whose candidate supply plans carry different stamps
    than the bus line while describing the same bytes.

    Task 0 stores 7 and commits (committed version, stamp S0).  Task 2
    then stores the *same value* (active version, fresh stamp S2).  Task
    1's load fills from the committed version alone, so snarfing is
    allowed — but the free caches 3 and 4 insert *after* task 2's
    version, so their supply plans see S2 where the bus line carries S0.
    Equal bytes, unequal stamps: exactly the divergence the
    stamp-compare accept must hand back to reference byte composition.
    """
    for cache_id in range(5):
        system.begin_task(cache_id, cache_id)
    system.store(0, A, 7)
    system.commit_head(0)
    system.store(2, A, 7)
    return system.load(1, A)


def test_snarf_stamp_mismatch_takes_byte_compose_fallback(monkeypatch):
    from repro.svc.fastpath import FastpathKernel
    from repro.svc.vcl import VersionControlLogic

    depth = {"snarf": 0}
    composed = {"in_snarf": 0}
    real_snarf = FastpathKernel.snarf
    real_compose = VersionControlLogic._compose

    def tracking_snarf(self, *args, **kwargs):
        depth["snarf"] += 1
        try:
            return real_snarf(self, *args, **kwargs)
        finally:
            depth["snarf"] -= 1

    def counting_compose(self, *args, **kwargs):
        if depth["snarf"]:
            composed["in_snarf"] += 1
        return real_compose(self, *args, **kwargs)

    monkeypatch.setattr(FastpathKernel, "snarf", tracking_snarf)
    monkeypatch.setattr(VersionControlLogic, "_compose", counting_compose)

    system = make_svc("hr", n_caches=5)
    _stamp_divergence_run(system)
    line_addr = system.amap.line_address(A)
    # The kernel could not accept on stamps — it composed bytes inside
    # snarf for each free cache — yet the byte comparison succeeded and
    # both candidates still took their copies.
    assert composed["in_snarf"] >= 2
    assert system.stats.snapshot().get("snarfs", 0) >= 2
    for cache_id in (3, 4):
        assert system.caches[cache_id].line_for(line_addr) is not None


def test_stamp_mismatch_fallback_matches_reference_observables():
    """The fallback must be invisible: identical event stream, stats,
    and loaded value with the kernel on and off."""
    observed = {}
    for use_fastpath in (True, False):
        system = make_svc("hr", n_caches=5, use_fastpath=use_fastpath)
        result = _stamp_divergence_run(system)
        observed[use_fastpath] = (
            [(e.kind, e.source, e.detail) for e in system.event_log],
            system.stats.snapshot(),
            result.value,
        )
    assert observed[True] == observed[False]


# -- differential anchors (fixed seeds, fault plans attached) ----------------


@pytest.mark.parametrize("tier", TIERS)
def test_fastpath_equals_reference_with_faults(tier):
    seed = 3
    tasks = differential_workload(seed, n_tasks=10, ops_per_task=8)
    allow_squashes = tier != "ec"
    plan = random_fault_plan(seed, len(tasks), 8, allow_squashes=allow_squashes)
    mismatches = compare_fastpath_modes(
        tier,
        tasks,
        seed=seed,
        squash_probability=0.05 if allow_squashes else 0.0,
        fault_plan=plan,
    )
    assert not mismatches, "\n".join(mismatches)


# -- litmus shapes as differential inputs ------------------------------------
#
# The litmus corpus (tests/litmus/) proves each shape's outcome set by
# exhaustive exploration; here each shape doubles as a tiny adversarial
# workload for the fastpath kernel: every shape must produce an
# identical event stream with the kernel on and off, on every tier.


def _litmus_cases():
    from repro.litmus.shapes import LITMUS_SHAPES

    return [
        (name, tier) for name in sorted(LITMUS_SHAPES) for tier in TIERS
    ]


@pytest.mark.parametrize("shape,tier", _litmus_cases())
def test_fastpath_identical_on_litmus_shapes(shape, tier):
    from repro.litmus.shapes import LITMUS_SHAPES, compile_shape

    tasks = list(compile_shape(LITMUS_SHAPES[shape]))
    mismatches = compare_fastpath_modes(tier, tasks, seed=5)
    assert not mismatches, "\n".join(mismatches)


def test_fastpath_equals_reference_adversarial_schedule():
    """youngest_first maximizes misspeculation — the squash/repair path
    is where a desynchronized kernel would show first."""
    tasks = differential_workload(11, n_tasks=12, ops_per_task=10)
    mismatches = compare_fastpath_modes(
        "final",
        tasks,
        seed=11,
        schedule="youngest_first",
        squash_probability=0.1,
    )
    assert not mismatches, "\n".join(mismatches)
