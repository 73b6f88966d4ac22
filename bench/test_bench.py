"""Tests of the benchmark itself: ``pytest bench/``."""

import time

import pytest

from compare import verdict
from layers import LAYERS, LayerTracer
from run import Measurement, pin_mismatches
from workloads import (
    DEFECT_OFFSETS,
    SCANNED_OFFSETS,
    SPEC95_PROFILES,
    ARBSystem,
    InvariantChecker,
    SVCSystem,
    TimingSimulator,
    WORKLOADS,
    build,
    digest,
    generate_tasks,
    stream_offset,
)
from repro.arb.data_cache import SharedDataCache
from repro.bus.snooping_bus import SnoopingBus
from repro.common.events import EventLog
from repro.mem.main_memory import MainMemory
from repro.svc.vcl import VersionControlLogic

#: Task-count scale small enough to run every workload in seconds.
TINY = 0.02


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_clean_at_tiny_scale(name):
    m = Measurement(WORKLOADS[name], seed=3, scale=TINY)
    m.measure(0)
    assert m.errors == []
    assert m.attempted == len(WORKLOADS[name].points)
    assert m.committed_ips() > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_keeps_digests_and_accounts_for_its_wall(name):
    m = Measurement(WORKLOADS[name], seed=0, scale=TINY)
    m.measure(0)
    start = time.perf_counter()
    tracer, runs = m.traced()
    wall = time.perf_counter() - start
    assert m.errors == []
    assert [digest(run.report) for run in runs] == [digest(run.report) for run in m.reference]
    self_times = [self_s for self_s, _calls in tracer.paths.values()]
    assert min(self_times) >= 0
    assert sum(self_times) == pytest.approx(wall, rel=0.02)


@pytest.mark.parametrize(
    "name, reached, bypassed",
    [
        ("svc-paper", {"svc.cache", "svc.vcl", "bus", "mem"}, {"arb", "arb.dcache", "events", "check"}),
        ("arb-paper", {"arb", "arb.dcache", "mem"}, {"svc.cache", "svc.vcl", "bus", "events", "check"}),
        ("checked", {"svc.cache", "svc.vcl", "bus", "events", "check"}, {"arb", "arb.dcache"}),
    ],
)
def test_trace_reaches_only_the_layers_the_workload_uses(name, reached, bypassed):
    m = Measurement(WORKLOADS[name], seed=0, scale=TINY)
    m.measure(0)
    layers = m.traced()[0].layers()
    for layer in reached | {"workloads", "timing", "commit"}:
        assert layers[layer][1] > 0, layer
    for layer in bypassed:
        assert layers[layer] == (0.0, 0), layer


def test_every_wrapped_callable_maps_to_exactly_one_layer():
    names = [name for callables in LAYERS.values() for name in callables]
    assert len(names) == len(set(names))
    classes = {
        cls.__name__: cls
        for cls in (
            TimingSimulator, SVCSystem, ARBSystem, VersionControlLogic, SnoopingBus,
            MainMemory, SharedDataCache, EventLog, InvariantChecker,
        )
    }
    for name in names:
        if "." in name:
            cls, method = name.split(".")
            assert callable(getattr(classes[cls], method)), name
        else:
            assert name == "generate_tasks"


def test_tracer_charges_children_to_their_parent():
    tracer = LayerTracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("bus", child)

    def parent():
        traced_child()
        time.sleep(0.01)

    with tracer:
        tracer.wrap("timing", parent)()
    assert tracer.paths["timing>bus"][0] == pytest.approx(0.02, abs=0.01)
    assert tracer.paths["timing"][0] == pytest.approx(0.01, abs=0.01)


def test_tampered_memory_image_counts_as_failed(monkeypatch):
    workload = WORKLOADS["tiers-sharing"]
    m = Measurement(workload, seed=0, scale=TINY)  # oracle images taken first
    original = MainMemory.image

    def tampered(self):
        image = original(self)
        image[0x10] = image.get(0x10, 0) ^ 0xFF
        return image

    monkeypatch.setattr(MainMemory, "image", tampered)
    m.measure(0)
    assert m.attempted == len(workload.points)
    assert len(m.errors) == m.attempted
    assert "sequential oracle" in m.errors[0]


def test_raising_point_counts_as_failed(monkeypatch):
    def boom(self):
        raise IndexError("list index out of range")

    monkeypatch.setattr(TimingSimulator, "run", boom)
    m = Measurement(WORKLOADS["checked"], seed=0, scale=TINY)
    m.measure(0)
    assert len(m.errors) == m.attempted == len(WORKLOADS["checked"].points)
    assert "IndexError" in m.errors[0]


def test_pin_mismatches_count_points_off_their_pin():
    m = Measurement(WORKLOADS["checked"], seed=0, scale=TINY)
    m.measure(0)
    pinned = {"points": {run.point.label: digest(run.report) for run in m.reference}}
    assert pin_mismatches(pinned, m.reference) == 0
    assert pin_mismatches({"points": {}}, m.reference) == len(m.reference)
    assert pin_mismatches(None, m.reference) is None


def test_seeds_skip_the_defect_offsets():
    offsets = [stream_offset(seed) for seed in range(SCANNED_OFFSETS * 2)]
    assert offsets[:16] == list(range(16))
    assert not DEFECT_OFFSETS & set(offsets)
    assert set(offsets) == set(range(SCANNED_OFFSETS)) - DEFECT_OFFSETS


def test_a_listed_defect_offset_still_trips_the_timing_loop():
    # When this fails, the stale-event defect is fixed: empty
    # DEFECT_OFFSETS and drop this test.
    point = next(p for p in WORKLOADS["tiers-sharing"].points if p.label == "gcc/svc_final")
    spec = SPEC95_PROFILES["gcc"].scaled(0.5)
    tasks = {"gcc": generate_tasks(spec, seed=spec.seed + 16)}
    with pytest.raises(IndexError):
        build(point, tasks).run()


@pytest.mark.parametrize(
    "change, expected",
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], "unchanged"),
        ([120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "improved"),
        ([70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "worse"),
        ([60, 140, 95, 105, 70, 130, 100, 100, 80, 120], "unresolved"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdict(parent, change, "higher", 0.1)[0] == expected
