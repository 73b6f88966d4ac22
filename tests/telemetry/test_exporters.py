"""Exporters: Chrome-trace schema (pinned fixture), validation, metrics."""

import json
import os

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    chrome_trace,
    metrics_document,
    render_summary,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "example_trace.json")


def example_payloads():
    """A small deterministic run: one bus transaction with a nested
    snoop and walk, an error instant, and a histogram. This is the
    exact payload behind ``fixtures/example_trace.json``."""
    tel = Telemetry(label="compress/svc_1c")
    run = tel.begin("run", "timing run", pus=1)
    txn = tel.begin("bus_txn", "read 0x100", requestor=0)
    snoop = tel.begin("snoop", "snoop 0x100")
    tel.end(snoop, fanout=2, vol_length=1)
    walk = tel.begin("vol_walk", "supply walk", phase="supply")
    tel.end(walk, blocks=4)
    tel.end(txn)
    tel.end(txn, from_memory=True, end_cycle=12)
    tel.instant("invariant_violation", "invariant:vol_order", level="error")
    tel.end(run, cycles=12)
    tel.histogram("svc.vol_length", (0, 1, 2, 3), unit="versions").observe(2)
    return [tel.snapshot()]


def test_chrome_trace_matches_checked_in_fixture():
    """The exporter's output schema is pinned byte-for-byte: a change
    here is a change to what Perfetto users load, so the fixture must be
    regenerated deliberately (see fixtures/README note in the file)."""
    document = chrome_trace(example_payloads(), meta={"experiment": "example"})
    with open(FIXTURE) as handle:
        expected = json.load(handle)
    assert document == expected


def test_fixture_itself_validates():
    with open(FIXTURE) as handle:
        document = json.load(handle)
    assert validate_chrome_trace(
        document, require_kinds=("bus_txn", "snoop", "vol_walk", "run")
    ) == []


def test_span_maps_to_complete_event_and_instant_to_instant_event():
    events = chrome_trace(example_payloads())["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    meta = [e for e in events if e.get("ph") == "M"]
    assert {e["cat"].split(",")[0] for e in complete} == {
        "run",
        "bus_txn",
        "snoop",
        "vol_walk",
    }
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
    assert [e["s"] for e in instants] == ["t"]
    # Error-level instants get the filterable error category suffix.
    assert instants[0]["cat"] == "invariant_violation,error"
    assert meta[0]["args"]["name"] == "compress/svc_1c"


def test_validate_detects_straddling_event():
    document = {
        "traceEvents": [
            {"ph": "X", "name": "outer", "pid": 0, "tid": 0, "ts": 0, "dur": 10},
            {"ph": "X", "name": "bad", "pid": 0, "tid": 0, "ts": 5, "dur": 10},
        ]
    }
    problems = validate_chrome_trace(document)
    assert any("straddles" in p for p in problems)


def test_validate_detects_missing_required_kind_and_bad_phase():
    assert validate_chrome_trace({"traceEvents": []}, require_kinds=("snoop",)) == [
        "no events of required kind 'snoop'"
    ]
    problems = validate_chrome_trace({"traceEvents": [{"ph": "B"}]})
    assert any("unsupported phase" in p for p in problems)
    assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]


def test_validate_trace_file_raises_with_problems(tmp_path):
    path = write_chrome_trace(str(tmp_path / "t.json"), example_payloads())
    validate_trace_file(path, require_kinds=("bus_txn",))  # no raise
    with pytest.raises(ValueError, match="no events of required kind"):
        validate_trace_file(path, require_kinds=("wb_drain",))


def test_unfinished_span_exports_as_zero_duration():
    """A crashed run's snapshot has spans with end=None; the exporter
    must still emit a loadable trace (instant at the start tick)."""
    tel = Telemetry()
    tel.begin("bus_txn", "read")  # never ended
    events = chrome_trace([tel.snapshot()])["traceEvents"]
    (event,) = [e for e in events if e.get("ph") != "M"]
    assert event["ph"] == "i"


def test_metrics_document_flat_keys():
    document = metrics_document(example_payloads(), meta={"experiment": "x"})
    assert document["flat"] == {
        "histograms.svc.vol_length.count": 1,
        "histograms.svc.vol_length.total": 2,
        "telemetry.dropped_spans": 0,
    }
    assert document["meta"] == {"experiment": "x"}
    assert "compress/svc_1c" in document["per_point"]


def test_render_summary_digest():
    text = render_summary(example_payloads())
    assert "1 point(s)" in text
    assert "bus_txn=1" in text
    assert "ERROR-level spans: 1" in text
    assert "svc.vol_length: n=1" in text


def dropped_payloads():
    """Two payloads whose bounded tracers evicted spans."""
    payloads = []
    for extra in (3, 2):
        tel = Telemetry(capacity=1)
        for index in range(1 + extra):
            span = tel.begin("mem_op", f"op{index}")
            tel.end(span)
        payloads.append(tel.snapshot())
    return payloads


def test_metrics_document_surfaces_dropped_spans():
    document = metrics_document(dropped_payloads())
    expected = sum(p["dropped_spans"] for p in dropped_payloads())
    assert expected > 0
    assert document["dropped_spans"] == expected
    assert document["flat"]["telemetry.dropped_spans"] == expected


def test_metrics_document_zero_dropped_spans():
    document = metrics_document(example_payloads())
    assert document["dropped_spans"] == 0
    assert document["flat"]["telemetry.dropped_spans"] == 0


def test_render_summary_warns_on_dropped_spans():
    text = render_summary(dropped_payloads())
    assert "WARNING" in text
    assert "dropped by the trace ring buffer" in text


def test_render_summary_silent_when_nothing_dropped():
    assert "dropped" not in render_summary(example_payloads())
