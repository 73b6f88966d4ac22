"""Campaign NDJSON stream: schema, aggregation, renderer, validator CLI."""

import io
import json
import os
import re

import pytest

from repro.common.errors import ReproError
from repro.telemetry.stream import (
    EVENT_FIELDS,
    SCHEMA_VERSION,
    CampaignStream,
    ProgressRenderer,
    main,
    make_event,
    read_stream,
    validate_stream_events,
    validate_stream_file,
)


def drive_minimal(stream):
    """One campaign: a fresh point, a cached point, a retry-then-
    quarantine point."""
    stream.campaign_started(points=3, workers=2)
    stream.point_started(0, 1, "compress", "svc_1c")
    stream.point_finished(
        0, 1, "compress", "svc_1c", status="ok", wall_s=0.5, events=1000,
        metrics={"ipc": 1.2},
    )
    stream.point_started(1, 1, "compress", "arb_1c")
    stream.point_finished(
        1, 1, "compress", "arb_1c", status="cached", wall_s=0.0, events=1000,
    )
    stream.point_started(2, 1, "compress", "arb_2c")
    stream.point_retry(2, 1, kind="crash", delay_s=0.0, note="boom")
    stream.point_quarantined(2, attempts=2, note="budget spent")
    stream.heartbeat(waiting=0, force=True)
    stream.campaign_finished({"points": 3, "ok": 1, "quarantined": 1})


# -- event construction ------------------------------------------------------


def test_make_event_stamps_envelope():
    event = make_event("campaign_started", 0, 0.25, points=5, workers=2)
    assert event["v"] == SCHEMA_VERSION
    assert event["seq"] == 0
    assert event["t"] == 0.25
    assert event["points"] == 5


def test_make_event_rejects_unknown_type():
    with pytest.raises(ReproError) as excinfo:
        make_event("point_exploded", 0, 0.0)
    assert "unknown stream event type" in str(excinfo.value)


def test_make_event_rejects_missing_required_fields():
    with pytest.raises(ReproError) as excinfo:
        make_event("point_started", 0, 0.0, point=1, attempt=1)
    message = str(excinfo.value)
    assert "benchmark" in message and "machine" in message


# -- validation --------------------------------------------------------------


def valid_events():
    stream = CampaignStream()
    captured = []
    stream._listeners.append(captured.append)
    drive_minimal(stream)
    stream.close()
    return captured


def test_valid_stream_has_no_problems():
    assert validate_stream_events(valid_events()) == []


def test_empty_stream_is_invalid():
    assert validate_stream_events([]) == ["stream is empty"]


def test_seq_must_be_dense():
    events = valid_events()
    events[3]["seq"] = 99
    problems = validate_stream_events(events)
    assert any("seq" in p and "expected 3" in p for p in problems)


def test_t_must_not_go_backwards():
    events = valid_events()
    events[-1]["t"] = -1.0
    problems = validate_stream_events(events)
    assert any("t went backwards" in p for p in problems)


def test_unknown_event_type_is_flagged():
    events = valid_events()
    events[2]["event"] = "point_exploded"
    problems = validate_stream_events(events)
    assert any("unknown event type" in p for p in problems)


def test_missing_required_field_is_flagged():
    events = valid_events()
    del events[1]["machine"]
    problems = validate_stream_events(events)
    assert any("missing field 'machine'" in p for p in problems)


def test_numeric_fields_must_be_numbers():
    events = valid_events()
    events[1]["attempt"] = "one"
    problems = validate_stream_events(events)
    assert any("must be a number" in p for p in problems)


def test_future_schema_version_is_rejected():
    events = valid_events()
    events[0]["v"] = SCHEMA_VERSION + 1
    problems = validate_stream_events(events)
    assert any("schema version" in p for p in problems)


def test_campaign_started_must_come_first():
    events = valid_events()
    events[0], events[1] = events[1], events[0]
    events[0]["seq"], events[1]["seq"] = 0, 1
    problems = validate_stream_events(events)
    assert any("not campaign_started" in p for p in problems)


def test_campaign_finished_must_come_last():
    events = valid_events()
    extra = dict(events[-2])
    extra["seq"] = len(events)
    events.append(extra)
    problems = validate_stream_events(events)
    assert any("not the last event" in p for p in problems)


def test_truncated_stream_needs_partial_flag():
    events = valid_events()[:-1]
    assert any(
        "no campaign_finished" in p for p in validate_stream_events(events)
    )
    assert validate_stream_events(events, require_finished=False) == []


# -- file round-trip + CLI ---------------------------------------------------


def stream_to_file(tmp_path, truncate=False):
    path = tmp_path / "campaign.ndjson"
    stream = CampaignStream(path=str(path))
    drive_minimal(stream)
    stream.close()
    if truncate:
        lines = path.read_text().splitlines()[:-1]
        path.write_text("\n".join(lines) + "\n")
    return path


def test_file_round_trip_validates(tmp_path):
    path = stream_to_file(tmp_path)
    events = read_stream(str(path))
    assert events[0]["event"] == "campaign_started"
    assert events[-1]["event"] == "campaign_finished"
    assert validate_stream_file(str(path)) == []


def test_read_stream_raises_on_garbage_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"v": 1}\nnot json at all\n')
    with pytest.raises(ValueError) as excinfo:
        read_stream(str(path))
    assert "bad.ndjson:2" in str(excinfo.value)


def test_validator_cli_accepts_valid_stream(tmp_path, capsys):
    path = stream_to_file(tmp_path)
    assert main([str(path)]) == 0
    assert "valid campaign stream" in capsys.readouterr().out


def test_validator_cli_rejects_truncated_stream(tmp_path, capsys):
    path = stream_to_file(tmp_path, truncate=True)
    assert main([str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out
    assert main([str(path), "--partial"]) == 0
    capsys.readouterr()


def test_validator_cli_rejects_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "nope.ndjson")]) == 1
    capsys.readouterr()


# -- aggregate state ---------------------------------------------------------


def test_aggregate_counts_and_tier_stats():
    stream = CampaignStream()
    drive_minimal(stream)
    assert stream.points == 3
    assert stream.done == 2
    assert stream.cached == 1
    assert stream.quarantined == 1
    assert stream.retries == 1
    assert stream.remaining == 0
    # Only the fresh execution contributes wall time and throughput.
    tiers = stream.tier_stats()
    assert list(tiers) == ["svc_1c"]
    assert tiers["svc_1c"]["points"] == 1
    assert tiers["svc_1c"]["events"] == 1000
    assert tiers["svc_1c"]["events_per_sec"] == 2000
    stream.close()


def test_eta_from_mean_fresh_wall():
    stream = CampaignStream()
    stream.campaign_started(points=4, workers=2)
    stream.point_finished(
        0, 1, "compress", "svc_1c", status="ok", wall_s=2.0, events=10
    )
    # 3 remaining x 2.0s mean / 2 workers.
    assert stream.eta_seconds() == 3.0
    stream.close()


def test_heartbeat_rate_limit_and_force():
    stream = CampaignStream(heartbeat_interval=3600.0)
    stream.campaign_started(points=1, workers=1)
    assert stream.heartbeat() is True
    assert stream.heartbeat() is False  # inside the interval
    assert stream.heartbeat(force=True) is True
    stream.close()


def test_listeners_see_every_event():
    captured = []
    stream = CampaignStream(listeners=(captured.append,))
    drive_minimal(stream)
    stream.close()
    assert [e["seq"] for e in captured] == list(range(len(captured)))
    assert stream.events_emitted == len(captured)


def test_progress_line_mentions_counts_and_rates():
    stream = CampaignStream()
    drive_minimal(stream)
    line = stream.progress_line()
    assert "2/3 done" in line
    assert "1 quarantined" in line
    assert "1 retries" in line
    assert "svc_1c" in line
    stream.close()


# -- renderer ----------------------------------------------------------------


def test_renderer_plain_lines_off_tty():
    out = io.StringIO()
    renderer = ProgressRenderer(out)
    renderer.update("one")
    renderer.update("two")
    renderer.close()
    assert out.getvalue() == "one\ntwo\n"


def test_renderer_repaints_in_place_on_tty():
    class Tty(io.StringIO):
        def isatty(self):
            return True

    out = Tty()
    renderer = ProgressRenderer(out)
    renderer.update("long line")
    renderer.update("short")
    renderer.close()
    text = out.getvalue()
    assert text.startswith("\rlong line\r")
    assert text.endswith("\n")  # the close() newline
    # The shorter repaint pads over the stale tail.
    assert "short    " in text


def test_stream_file_is_sorted_key_ndjson(tmp_path):
    path = stream_to_file(tmp_path)
    for line in path.read_text().splitlines():
        event = json.loads(line)
        assert list(event) == sorted(event)


def test_observability_table_lists_the_required_fields():
    """docs/OBSERVABILITY.md's event table names, row for row, exactly
    the required fields the validator enforces."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "docs", "OBSERVABILITY.md"
    )
    with open(path) as handle:
        lines = handle.read().splitlines()
    start = lines.index("| event | required fields | meaning |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        event, required = line.split("|")[1:3]
        rows[event.strip().strip("`")] = tuple(re.findall(r"`(\w+)`", required))
    assert rows == EVENT_FIELDS
