"""Shared fixtures and helpers for the test suite."""

import dataclasses

import pytest

from repro.arb.system import ARBSystem
from repro.check import InvariantChecker
from repro.common.config import ARBConfig, CacheGeometry, SVCConfig
from repro.hier.task import MemOp, TaskProgram
from repro.svc.designs import design_config
from repro.svc.system import SVCSystem


def small_geometry(**overrides) -> CacheGeometry:
    """A small cache shape that keeps tests fast but exercises sets."""
    params = dict(size_bytes=512, associativity=2, line_size=16,
                  versioning_block_size=4)
    params.update(overrides)
    return CacheGeometry(**params)


def make_svc(design: str = "final", n_caches: int = 4, **overrides) -> SVCSystem:
    """An SVC audited by the runtime InvariantChecker after every bus
    transaction, commit, squash and task dispatch, sized for unit tests."""
    config = design_config(
        design, SVCConfig(n_caches=n_caches, geometry=small_geometry())
    )
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return SVCSystem(config, checker=InvariantChecker())


@pytest.fixture
def svc():
    """Final-design SVC with four running tasks 0-3 on caches 0-3."""
    system = make_svc("final")
    for cache_id in range(4):
        system.begin_task(cache_id, cache_id)
    return system


def stall_pressure(tier: str, **system_kwargs):
    """A system and tasks whose per-task working sets overflow it, so
    non-head tasks stall on replacement until commits free room: three
    lines of one set per task in 64-byte 2-way SVC caches, or eight
    words per task in a six-row ARB. ``tier`` names an SVC design or
    ``"arb"``; ``system_kwargs`` go to the system's constructor."""
    tasks = []
    if tier == "arb":
        system = ARBSystem(ARBConfig(n_rows=6), **system_kwargs)
        for i in range(6):
            addrs = [0x1000 + (i * 8 + w) * 64 for w in range(8)]
            ops = [MemOp.store(addr, i) for addr in addrs]
            tasks.append(TaskProgram(ops=ops + [MemOp.load(a) for a in addrs]))
        return system, tasks
    config = design_config(
        tier, SVCConfig(geometry=small_geometry(size_bytes=64, associativity=2))
    )
    system = SVCSystem(config, **system_kwargs)
    stride = system.geometry.n_sets * system.geometry.line_size
    addrs = [0x1000 + w * stride for w in range(3)]
    for i in range(6):
        ops = [MemOp.store(addr, i) for addr in addrs]
        tasks.append(TaskProgram(ops=ops + [MemOp.load(a) for a in addrs]))
    return system, tasks
