"""Flight recorder: bounded ring, atomic dumps, quarantine post-mortems.

The unit tests pin the recorder's own mechanics; the end-to-end test is
the acceptance path for the observability stack — a chaos-seeded
campaign quarantines a point and the flight dumps surface on the
``PointOutcome``, in the result store's quarantine namespace, and in a
schema-valid NDJSON stream.
"""

import json
import os

from repro.harness.chaos import ChaosPlan
from repro.harness.resultstore import ResultStore, point_key
from repro.harness.supervisor import (
    QUARANTINED,
    BackoffPolicy,
    SupervisorConfig,
    run_campaign,
)
from repro.telemetry.flight import (
    DEFAULT_CAPACITY,
    SPAN_TAIL,
    FlightRecorder,
    load_point_records,
    purge,
    record_path,
)

FAST = BackoffPolicy(base=0.0)


# -- ring mechanics ----------------------------------------------------------


def test_ring_is_bounded_and_counts_drops(tmp_path):
    recorder = FlightRecorder(str(tmp_path), point=0, attempt=1, capacity=4)
    for index in range(10):
        recorder.note("step", index=index)
    assert recorder.dropped == 6
    path = recorder.flush()
    record = json.loads(open(path).read())
    assert record["dropped"] == 6
    assert [entry["index"] for entry in record["entries"]] == [6, 7, 8, 9]


def test_default_capacity_matches_constant(tmp_path):
    recorder = FlightRecorder(str(tmp_path), point=0, attempt=1)
    for _ in range(DEFAULT_CAPACITY + 5):
        recorder.note("step")
    assert recorder.dropped == 5


def test_flush_writes_schema_and_identity(tmp_path):
    recorder = FlightRecorder(str(tmp_path), point=3, attempt=2)
    recorder.note("attempt_started", benchmark="compress")
    path = recorder.flush()
    assert path == record_path(str(tmp_path), 3, 2)
    assert path.endswith("point-0003/attempt-02.json")
    record = json.loads(open(path).read())
    assert record["schema"] == 1
    assert record["point"] == 3
    assert record["attempt"] == 2
    assert record["pid"] == os.getpid()
    assert record["entries"][0]["kind"] == "attempt_started"
    # No leftover temp files: the dump landed via atomic rename.
    names = os.listdir(os.path.dirname(path))
    assert names == ["attempt-02.json"]


def test_reflush_overwrites_in_place(tmp_path):
    recorder = FlightRecorder(str(tmp_path), point=0, attempt=1)
    recorder.note("attempt_started")
    recorder.flush()
    recorder.note("attempt_finished")
    path = recorder.flush()
    record = json.loads(open(path).read())
    kinds = [entry["kind"] for entry in record["entries"]]
    assert kinds == ["attempt_started", "attempt_finished"]


def test_span_tail_is_bounded(tmp_path):
    recorder = FlightRecorder(str(tmp_path), point=0, attempt=1)
    spans = [{"kind": "mem_op", "id": index} for index in range(50)]
    recorder.note_span_tail({"spans": spans, "dropped_spans": 7})
    recorder.note_span_tail(None)  # telemetry off: no entry
    recorder.note_span_tail({"spans": []})  # empty trace: no entry
    path = recorder.flush()
    entries = json.loads(open(path).read())["entries"]
    assert len(entries) == 1
    tail = entries[0]
    assert tail["kind"] == "span_tail"
    assert len(tail["spans"]) == SPAN_TAIL
    assert tail["spans"][-1]["id"] == 49
    assert tail["total_spans"] == 50
    assert tail["dropped_spans"] == 7


# -- collection --------------------------------------------------------------


def test_load_point_records_orders_by_attempt(tmp_path):
    root = str(tmp_path)
    for attempt in (2, 1):
        recorder = FlightRecorder(root, point=5, attempt=attempt)
        recorder.note("attempt_started")
        recorder.flush()
    records = load_point_records(root, 5)
    assert [record["attempt"] for record in records] == [1, 2]
    assert load_point_records(root, 6) == []  # no directory: no failure


def test_load_point_records_skips_garbage(tmp_path):
    root = str(tmp_path)
    recorder = FlightRecorder(root, point=0, attempt=1)
    recorder.note("attempt_started")
    recorder.flush()
    point_dir = os.path.dirname(record_path(root, 0, 1))
    with open(os.path.join(point_dir, "attempt-02.json"), "w") as handle:
        handle.write("{half a record")
    with open(os.path.join(point_dir, "notes.txt"), "w") as handle:
        handle.write("not a dump")
    records = load_point_records(root, 0)
    assert [record["attempt"] for record in records] == [1]


def test_purge_removes_tree(tmp_path):
    root = str(tmp_path / "flight")
    FlightRecorder(root, point=0, attempt=1).flush()
    assert os.path.isdir(root)
    purge(root)
    assert not os.path.exists(root)
    purge(root)  # idempotent


# -- end to end: chaos -> quarantine -> post-mortems everywhere --------------


def test_quarantine_attaches_flight_records_everywhere(tmp_path):
    from repro.harness.experiments import figure19_specs
    from repro.telemetry.stream import (
        CampaignStream,
        read_stream,
        validate_stream_file,
    )

    specs = figure19_specs(benchmarks=("compress",), scale=0.01)
    stream_path = tmp_path / "campaign.ndjson"
    stream = CampaignStream(path=str(stream_path))
    plan = ChaosPlan(raises=((0, 0), (0, 1)))
    report = run_campaign(
        specs,
        SupervisorConfig(
            workers=1,
            chaos=plan,
            retries=1,
            backoff=FAST,
            resume=True,
            store_root=str(tmp_path / "store"),
            stream=stream,
        ),
    )
    stream.close()

    # The outcome carries one dump per attempt, each proving the
    # attempt started and died on the injected exception.
    assert not report.ok
    outcome = report.outcomes[0]
    assert outcome.status == QUARANTINED
    assert outcome.flight is not None and len(outcome.flight) == 2
    for attempt, record in enumerate(outcome.flight):
        assert record["attempt"] == attempt
        kinds = [entry["kind"] for entry in record["entries"]]
        assert kinds == ["attempt_started", "exception"]
        assert "chaos" in record["entries"][1]["error"]

    # The store's quarantine namespace has the same post-mortem, kept
    # apart from the pickle result cache so resume can never serve it.
    store = ResultStore(str(tmp_path / "store"))
    quarantine = store.get_quarantine(point_key(specs[0]))
    assert quarantine is not None
    assert quarantine["attempts"] == 2
    assert len(quarantine["flight"]) == 2
    assert store.get(point_key(specs[0])) is None

    # The stream is schema-valid and narrates the retry + quarantine.
    assert validate_stream_file(str(stream_path)) == []
    events = read_stream(str(stream_path))
    by_kind = {}
    for event in events:
        by_kind.setdefault(event["event"], []).append(event)
    assert len(by_kind["point_retry"]) == 1
    assert by_kind["point_retry"][0]["kind"] == "failures"
    quarantined = by_kind["point_quarantined"][0]
    assert quarantined["point"] == 0
    assert quarantined["flight_records"] == 2
    assert by_kind["campaign_finished"][0]["counters"]["quarantined"] == 1
    # The other four points still delivered.
    assert len(by_kind["point_finished"]) == 4


def test_parallel_timeout_leaves_attempt_started_breadcrumb(tmp_path):
    """A SIGKILLed (timed-out) worker cannot flush anything after the
    stall begins — the pre-execution dump must survive and become the
    post-mortem."""
    from repro.harness.experiments import figure19_specs

    specs = figure19_specs(benchmarks=("compress",), scale=0.01)
    plan = ChaosPlan(stalls=((1, 0, 30.0),))
    report = run_campaign(
        specs,
        SupervisorConfig(
            workers=2,
            chaos=plan,
            retries=0,
            backoff=FAST,
            point_timeout=2.0,
        ),
    )
    assert not report.ok
    outcome = report.outcomes[1]
    assert outcome.status == QUARANTINED
    assert outcome.flight, "timeout quarantine must carry flight dumps"
    kinds = [entry["kind"] for entry in outcome.flight[0]["entries"]]
    assert kinds == ["attempt_started"], (
        "a killed attempt's dump should stop at attempt_started"
    )


def test_plain_campaign_keeps_flight_recorder_off(tmp_path, monkeypatch):
    """No chaos, no timeout, no stream: the no-fault fast path must not
    touch the filesystem (this is what the <3% overhead gate times when
    streaming is off)."""
    import repro.telemetry.flight as flight_module
    from repro.harness.experiments import figure19_specs

    created = []
    original = flight_module.FlightRecorder

    def tracking(*args, **kwargs):
        created.append(args)
        return original(*args, **kwargs)

    # The supervisor imports FlightRecorder lazily from the flight
    # module at attempt time, so patching the source module sees every
    # construction.
    monkeypatch.setattr(flight_module, "FlightRecorder", tracking)
    specs = figure19_specs(benchmarks=("compress",), scale=0.01)
    report = run_campaign(specs[:2], SupervisorConfig(workers=1))
    assert report.ok
    assert created == []
