"""Supervised campaign engine: retry, quarantine, recovery, resume.

The chaos-driven end-to-end suite lives in test_chaos.py; these tests
pin the engine's own mechanics — knob validation, outcome accounting,
where a failure is recorded, serial/parallel equivalence and the
default-config plumbing.
"""

import pickle

import pytest

from repro.common.errors import ConfigError
from repro.harness.chaos import ChaosPlan
from repro.harness.experiments import figure19_specs
from repro.harness.resultstore import ResultStore, point_key
from repro.harness.supervisor import (
    QUARANTINED,
    BackoffPolicy,
    SupervisorConfig,
    default_supervisor,
    resolve_point_timeout,
    resolve_retries,
    run_campaign,
    set_default_supervisor,
)
from repro.telemetry.stream import (
    CampaignStream,
    read_stream,
    validate_stream_events,
    validate_stream_file,
)

SCALE = 0.01
#: Zero-delay backoff: tests exercise scheduling, not wall-clock waits.
FAST = BackoffPolicy(base=0.0)


def specs(benchmarks=("compress",)):
    return figure19_specs(benchmarks=benchmarks, scale=SCALE)


def point_bytes(results):
    return [pickle.dumps(vars(point)) for point in results]


# -- env knob resolution ----------------------------------------------------


def test_resolve_point_timeout_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
    assert resolve_point_timeout(None) is None
    assert resolve_point_timeout(2.5) == 2.5
    assert resolve_point_timeout("10") == 10.0
    monkeypatch.setenv("REPRO_POINT_TIMEOUT", "7.5")
    assert resolve_point_timeout(None) == 7.5
    assert resolve_point_timeout(1.0) == 1.0  # argument beats env


@pytest.mark.parametrize("bad", ["soon", "", 0, -3, "-1.5"])
def test_resolve_point_timeout_rejects_garbage(bad, monkeypatch):
    monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
    if bad == "":
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "nope")
        with pytest.raises(ConfigError) as excinfo:
            resolve_point_timeout(None)
        assert "'nope'" in str(excinfo.value)
        return
    with pytest.raises(ConfigError) as excinfo:
        resolve_point_timeout(bad)
    assert repr(bad) in str(excinfo.value)


def test_resolve_retries_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_RETRIES", raising=False)
    assert resolve_retries(None) == 1  # DEFAULT_RETRIES
    assert resolve_retries(0) == 0
    assert resolve_retries("4") == 4
    monkeypatch.setenv("REPRO_RETRIES", "3")
    assert resolve_retries(None) == 3


@pytest.mark.parametrize("bad", [-1, "many", "2.5"])
def test_resolve_retries_rejects_garbage(bad):
    with pytest.raises(ConfigError) as excinfo:
        resolve_retries(bad)
    assert repr(bad) in str(excinfo.value)


# -- serial engine ----------------------------------------------------------


def test_serial_campaign_runs_all_points():
    report = run_campaign(specs(), SupervisorConfig(workers=1))
    assert report.ok
    assert report.counters["points"] == 5
    assert report.counters["ok"] == 5
    assert report.counters["recomputed"] == 5
    assert report.counters["retries"] == 0
    assert [o.index for o in report.outcomes] == [0, 1, 2, 3, 4]
    assert all(o.attempts == 1 for o in report.outcomes)


def test_serial_retry_then_success():
    plan = ChaosPlan(raises=((1, 0),))
    report = run_campaign(
        specs(), SupervisorConfig(workers=1, chaos=plan, retries=1, backoff=FAST)
    )
    assert report.ok
    assert report.counters["retries"] == 1
    assert report.counters["failures"] == 1
    assert report.outcomes[1].attempts == 2
    assert report.outcomes[1].failures  # the first attempt is recorded


def test_serial_quarantine_after_budget():
    # Fail attempts 0..2: with retries=2 the budget is exactly spent.
    plan = ChaosPlan(raises=((2, 0), (2, 1), (2, 2)))
    report = run_campaign(
        specs(), SupervisorConfig(workers=1, chaos=plan, retries=2, backoff=FAST)
    )
    assert not report.ok
    assert report.counters["quarantined"] == 1
    assert report.counters["retries"] == 2
    bad = report.outcomes[2]
    assert bad.status == QUARANTINED
    assert bad.result is None
    assert bad.attempts == 3
    assert len(bad.failures) == 3
    # Partial degradation: every other point still delivered.
    assert sum(1 for o in report.outcomes if o.result is not None) == 4


def test_serial_kill_degrades_to_simulated_crash():
    plan = ChaosPlan(kills=((0, 0),))
    report = run_campaign(
        specs(), SupervisorConfig(workers=1, chaos=plan, retries=1, backoff=FAST)
    )
    assert report.ok
    assert report.counters["crashes"] == 1


# -- failure records ---------------------------------------------------------


def test_chaos_quarantine_records_each_failure_once(tmp_path):
    """A quarantined point's notes live on its outcome and in the
    campaign stream; the result store holds results only, so resume
    retries the point from scratch."""
    stream_path = tmp_path / "campaign.ndjson"
    stream = CampaignStream(path=str(stream_path))
    store_root = tmp_path / "store"
    plan = ChaosPlan(raises=((0, 0), (0, 1)))
    report = run_campaign(
        specs(),
        SupervisorConfig(
            workers=1,
            chaos=plan,
            retries=1,
            backoff=FAST,
            resume=True,
            store_root=str(store_root),
            stream=stream,
        ),
    )
    stream.close()

    assert not report.ok
    outcome = report.outcomes[0]
    assert outcome.status == QUARANTINED
    assert outcome.failures == [
        "attempt 0: ChaosError('chaos: injected failure at point 0 attempt 0')",
        "attempt 1: ChaosError('chaos: injected failure at point 0 attempt 1')",
    ]
    assert ResultStore(str(store_root)).get(point_key(specs()[0])) is None
    assert not (store_root / "quarantine").exists()

    assert validate_stream_file(str(stream_path)) == []
    events = read_stream(str(stream_path))
    point0 = [event for event in events if event.get("point") == 0]
    assert [event["event"] for event in point0] == [
        "point_started", "point_retry", "point_started", "point_quarantined",
    ]
    assert point0[1]["kind"] == "failures"
    assert point0[1]["note"] == outcome.failures[0]
    assert point0[3]["note"] == outcome.failures[1]
    assert events[-1]["counters"]["quarantined"] == 1
    # The other four points still delivered.
    finished = [event for event in events if event["event"] == "point_finished"]
    assert len(finished) == 4


def test_chaos_stream_campaign_makes_no_temp_directory(monkeypatch):
    """A campaign writes only what it was handed (a stream, a store):
    with chaos and a stream it still runs where no temp directory can
    be made."""
    import tempfile

    def refuse(*args, **kwargs):
        raise OSError("no temp directory")

    monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    events = []
    stream = CampaignStream(listeners=[events.append])
    plan = ChaosPlan(raises=((1, 0),))
    report = run_campaign(
        specs(),
        SupervisorConfig(
            workers=1, chaos=plan, retries=1, backoff=FAST, stream=stream
        ),
    )
    stream.close()
    assert report.ok
    assert report.counters["retries"] == 1
    assert validate_stream_events(events) == []


# -- parallel engine --------------------------------------------------------


def test_parallel_matches_serial_bytes():
    serial = run_campaign(specs(), SupervisorConfig(workers=1))
    parallel = run_campaign(specs(), SupervisorConfig(workers=3))
    assert point_bytes(parallel.results()) == point_bytes(serial.results())


def test_parallel_quarantine_is_partial():
    plan = ChaosPlan(raises=((4, 0), (4, 1)))
    report = run_campaign(
        specs(), SupervisorConfig(workers=2, chaos=plan, retries=1, backoff=FAST)
    )
    assert not report.ok
    assert report.counters["quarantined"] == 1
    assert report.outcomes[4].status == QUARANTINED
    serial = run_campaign(specs(), SupervisorConfig(workers=1))
    for outcome, reference in zip(report.outcomes[:4], serial.results()[:4]):
        assert pickle.dumps(vars(outcome.result)) == pickle.dumps(vars(reference))


def test_parallel_timeout_quarantine_notes_the_wall_clock():
    """A timed-out attempt dies by SIGKILL; the parent's note is its
    record."""
    plan = ChaosPlan(stalls=((1, 0, 30.0),))
    report = run_campaign(
        specs(),
        SupervisorConfig(
            workers=2, chaos=plan, retries=0, backoff=FAST, point_timeout=2.0
        ),
    )
    assert not report.ok
    outcome = report.outcomes[1]
    assert outcome.status == QUARANTINED
    assert outcome.failures == ["attempt 0: exceeded 2.0s wall clock"]


class _InterruptingStream:
    """A campaign stream whose second ``point_started`` is a Ctrl-C:
    the pool is up and its first point is in flight by then."""

    def __init__(self):
        self.started = 0

    def point_started(self, **fields):
        self.started += 1
        if self.started == 2:
            raise KeyboardInterrupt

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def test_parallel_keyboard_interrupt_reaps_workers():
    """Ctrl-C in the parent propagates and leaves no orphaned workers."""
    import multiprocessing
    import time

    stream = _InterruptingStream()
    # Point 0 stalls far past the test: only a SIGKILL ends its worker.
    plan = ChaosPlan(stalls=((0, 0, 60.0),))
    config = SupervisorConfig(workers=2, chaos=plan, stream=stream)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(specs(), config)
    assert stream.started == 2
    # The pool's workers were SIGKILLed and reaped (give the reaper a
    # beat on slow machines).
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            break
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# -- defaults plumbing ------------------------------------------------------


def test_set_default_supervisor_roundtrip():
    original = default_supervisor()
    custom = SupervisorConfig(retries=5)
    previous = set_default_supervisor(custom)
    try:
        assert previous is original
        assert default_supervisor() is custom
    finally:
        set_default_supervisor(previous)
    assert default_supervisor() is original


def test_run_points_drops_quarantined(tmp_path):
    from repro.harness.parallel import run_points

    plan = ChaosPlan(raises=((0, 0), (0, 1)))
    campaigns = []
    results = run_points(
        specs(),
        workers=1,
        supervisor=SupervisorConfig(chaos=plan, retries=1, backoff=FAST),
        campaigns=campaigns,
    )
    assert len(results) == 4  # point 0 quarantined and omitted
    (report,) = campaigns
    assert report.counters["quarantined"] == 1


def test_campaign_report_summary_mentions_failures():
    plan = ChaosPlan(raises=((0, 0),))
    report = run_campaign(
        specs(), SupervisorConfig(workers=1, chaos=plan, retries=1, backoff=FAST)
    )
    text = report.summary()
    assert "5/5 points ok" in text
    assert "1 retries" in text
