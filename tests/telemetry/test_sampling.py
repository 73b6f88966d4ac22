"""Ring-buffer capacity and memory-op sampling keep telemetry cheap *and*
honest.

The tracer's ring (``capacity``) must never corrupt what survives:
eviction counts are reported and causal links are healed on export.
The one sampler is the timing simulator's countdown, which traces the
first memory-op attempt of a run and every ``sample_interval``-th after
it: the number of ``mem_op`` spans follows from the run's attempts, the
sampled trace is deterministic, a checker violation raised inside an
untraced op is still recorded, and the histograms count every
observation whatever the interval.
"""

import hashlib
import json
import math

import pytest

import repro.svc.vcl as vcl_module
from repro.arb.system import ARBSystem
from repro.check import InvariantChecker
from repro.common.config import ARBConfig, SVCConfig
from repro.common.errors import InvariantViolation
from repro.svc.designs import base_design, final_design
from repro.svc.system import SVCSystem
from repro.telemetry import (
    COMMIT,
    INVARIANT_VIOLATION,
    MEM_OP,
    PRODUCTION_SAMPLE_INTERVAL,
    PRODUCTION_TRACE_CAPACITY,
    RUN,
    TASK_BEGIN,
    Telemetry,
)
from repro.telemetry.tracer import Tracer
from repro.timing.simulator import TimingSimulator
from repro.workloads.spec95 import spec95_tasks


# -- ring buffer -------------------------------------------------------------


class TestRingBuffer:
    def test_unbounded_by_default(self):
        tracer = Tracer()
        for i in range(100):
            tracer.end(tracer.begin("op", f"op {i}"))
        assert tracer.capacity is None
        assert tracer.dropped == 0
        assert len(tracer.spans) == 100

    def test_capacity_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=10)
        for i in range(25):
            tracer.end(tracer.begin("op", f"op {i}"))
        assert tracer.capacity == 10
        assert len(tracer.spans) == 10
        assert tracer.dropped == 15
        # Newest survive; ids keep incrementing despite eviction.
        assert [s.name for s in tracer.spans] == [f"op {i}" for i in range(15, 25)]
        assert [s.span_id for s in tracer.spans] == list(range(16, 26))

    def test_export_heals_evicted_parents(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            root = tracer.begin("root", f"root {i}")
            tracer.end(tracer.begin("child", f"child {i}"))
            tracer.end(root)
        exported = tracer.export_spans()
        present = {d["id"] for d in exported}
        for data in exported:
            # No dangling parent pointers: either the parent survived
            # or the span was promoted to top level.
            assert data["parent"] is None or data["parent"] in present

    def test_snapshot_reports_drops(self):
        tel = Telemetry(capacity=5)
        for i in range(12):
            tel.end(tel.begin("op", f"op {i}"))
        snap = tel.snapshot()
        assert snap["dropped_spans"] == 7
        assert len(snap["spans"]) == 5


# -- memory-op sampling in the timing simulator ------------------------------

SCALE = 0.05

MACHINES = {
    "svc_final": lambda tel, **kw: SVCSystem(
        final_design(SVCConfig.paper_32kb()), telemetry=tel, **kw
    ),
    "svc_base": lambda tel, **kw: SVCSystem(
        base_design(SVCConfig.paper_32kb()), telemetry=tel, **kw
    ),
    "arb32k_1c": lambda tel, **kw: ARBSystem(
        ARBConfig.paper_32kb(hit_cycles=1), telemetry=tel, **kw
    ),
    "arb32k_2c": lambda tel, **kw: ARBSystem(
        ARBConfig.paper_32kb(hit_cycles=2), telemetry=tel, **kw
    ),
}

#: (machine, model) -> (traced ops at N = 1, 3, 128; leading 16 hex
#: digits of the sha256 of the N = 3 run's exported spans).
CADENCE_PINS = {
    ("svc_final", "compress"): ((1265, 422, 10), "1d2b60a228a35f51"),
    ("svc_final", "mgrid"): ((2156, 719, 17), "e38a260ddc024cb3"),
    ("arb32k_1c", "compress"): ((1257, 419, 10), "0aa666e3aba1e94d"),
    ("arb32k_1c", "mgrid"): ((2156, 719, 17), "04de7aee05678e46"),
}


def _outermost_kinds(spans):
    """Kinds of the outermost spans under the run envelope: a span that
    an untraced op leaked would show up here as its own root."""
    by_id = {span["id"]: span for span in spans}
    kinds = set()
    for span in spans:
        if span["kind"] == RUN:
            continue
        while by_id[span["parent"]]["kind"] != RUN:
            span = by_id[span["parent"]]
        kinds.add(span["kind"])
    return kinds


@pytest.mark.parametrize("machine,model", sorted(CADENCE_PINS))
def test_simulator_traces_the_first_attempt_and_every_nth(machine, model):
    counts, digest = CADENCE_PINS[machine, model]
    commits = set()
    for interval, pinned in zip((1, 3, 128), counts):
        tel = Telemetry(sample_interval=interval)
        system = MACHINES[machine](tel)
        report = TimingSimulator(system, spec95_tasks(model, SCALE)).run()
        spans = tel.snapshot()["spans"]
        traced = sum(1 for span in spans if span["kind"] == MEM_OP)
        # Every probe attempt is a sampling slot, stalled ones included.
        attempts = report.executed_memory_ops + report.replacement_stall_retries
        assert traced == math.ceil(attempts / interval) == pinned
        assert _outermost_kinds(spans) <= {MEM_OP, COMMIT, TASK_BEGIN}
        commits.add(sum(1 for span in spans if span["kind"] == COMMIT))
        if interval == 3:
            payload = json.dumps(spans, sort_keys=True).encode()
            assert hashlib.sha256(payload).hexdigest()[:16] == digest
    # Commit waves are recorded whatever the interval.
    assert len(commits) == 1


#: machine -> (bus transactions, executed memory ops) of compress at
#: SCALE; the ARB has no bus.
EXACT_PINS = {
    "svc_final": (607, 1265),
    "svc_base": (1165, 1257),
    "arb32k_2c": (None, 1257),
}


@pytest.mark.parametrize("machine", sorted(EXACT_PINS))
def test_histograms_are_exact_under_sampling(machine):
    """Sampling thins spans, never metrics: each layer counts into the
    histogram tally it bound at wiring time whether or not the op is
    traced, so 1-in-128 sampling snapshots the same metrics as tracing
    every op, with one bus observation per transaction and one MSHR
    observation per executed memory op."""
    transactions, memory_ops = EXACT_PINS[machine]
    snapshots = []
    for interval in (1, PRODUCTION_SAMPLE_INTERVAL):
        tel = Telemetry(sample_interval=interval)
        system = MACHINES[machine](tel)
        report = TimingSimulator(system, spec95_tasks("compress", SCALE)).run()
        metrics = tel.snapshot()["metrics"]
        histograms = metrics["histograms"]
        assert report.memory_stats.get("bus_transactions") == transactions
        if transactions is not None:
            assert histograms["bus.wait_cycles"]["count"] == transactions
            assert histograms["bus.occupancy_cycles"]["count"] == transactions
        assert report.executed_memory_ops == memory_ops
        assert histograms["mshr.occupancy"]["count"] == memory_ops
        snapshots.append(metrics)
    assert snapshots[0] == snapshots[1]


def _arm_cyclic_repair(monkeypatch, after):
    """Seed the cyclic VOL-repair bug of tests/repro/test_checker.py,
    armed only after ``after`` repairs, so it fires mid-run."""
    original = vcl_module.rewrite_pointers
    repairs = [0]

    def cyclic_repair(entries, vol):
        original(entries, vol)
        repairs[0] += 1
        if repairs[0] > after and len(vol) >= 2:
            entries[vol[-1]].pointer = vol[0]

    monkeypatch.setattr(vcl_module, "rewrite_pointers", cyclic_repair)


@pytest.mark.parametrize("interval", [1, PRODUCTION_SAMPLE_INTERVAL])
def test_sampled_trace_keeps_checker_violations(monkeypatch, interval):
    """The checker reports through the telemetry it took at wiring time,
    so a violation raised inside an untraced op is still an error
    instant."""
    _arm_cyclic_repair(monkeypatch, after=300)
    tel = Telemetry(sample_interval=interval)
    system = MACHINES["svc_final"](tel, checker=InvariantChecker())
    with pytest.raises(InvariantViolation, match="vol-acyclic"):
        TimingSimulator(system, spec95_tasks("compress", SCALE)).run()
    snap = tel.snapshot()
    violations = [s for s in snap["spans"] if s["kind"] == INVARIANT_VIOLATION]
    assert [s["level"] for s in violations] == ["error"]


# -- production wiring -------------------------------------------------------


class TestProductionConfig:
    def test_production_constants_are_bounded(self):
        assert PRODUCTION_TRACE_CAPACITY > 0
        assert PRODUCTION_SAMPLE_INTERVAL > 1

    def test_telemetry_passes_knobs_to_tracer(self):
        tel = Telemetry(
            capacity=PRODUCTION_TRACE_CAPACITY,
            sample_interval=PRODUCTION_SAMPLE_INTERVAL,
        )
        assert tel.tracer.capacity == PRODUCTION_TRACE_CAPACITY
        assert tel.sample_interval == PRODUCTION_SAMPLE_INTERVAL
        snap = tel.snapshot()
        assert snap["sample_interval"] == PRODUCTION_SAMPLE_INTERVAL

    def test_default_telemetry_records_everything(self):
        tel = Telemetry()
        assert tel.tracer.capacity is None
        assert tel.sample_interval == 1
