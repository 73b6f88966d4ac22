"""Content-addressed result store: keys, atomicity, resume semantics."""

import pickle

import pytest

from repro.common.config import SVCConfig
from repro.harness.experiments import figure19_specs, run_figure19
from repro.harness.parallel import PointSpec
from repro.harness.resultstore import (
    ResultStore,
    code_fingerprint,
    point_key,
    resolve_store_root,
)
from repro.harness.supervisor import SupervisorConfig, run_campaign
from repro.svc.designs import final_design

SCALE = 0.01


def spec(machine="svc_1c", scale=SCALE, telemetry=False):
    return PointSpec(
        "compress", machine, "svc", final_design(SVCConfig.paper_32kb()),
        scale, telemetry,
    )


# -- keys -------------------------------------------------------------------


def test_point_key_is_stable_and_discriminating():
    assert point_key(spec()) == point_key(spec())
    assert point_key(spec()) != point_key(spec(scale=0.02))
    assert point_key(spec()) != point_key(spec(machine="svc_other"))
    assert point_key(spec()) != point_key(spec(telemetry=True))


def test_point_key_resolves_env_scale(monkeypatch):
    """scale=None means REPRO_SCALE: different env scales, different keys."""
    unscaled = PointSpec(
        "compress", "svc_1c", "svc", final_design(SVCConfig.paper_32kb()), None
    )
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    key_half = point_key(unscaled)
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    key_quarter = point_key(unscaled)
    assert key_half != key_quarter
    # And an explicit scale matching the env resolves to the same key.
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert point_key(spec(scale=0.5)) == key_half


def test_code_fingerprint_is_cached_and_hex():
    first = code_fingerprint()
    assert first == code_fingerprint()
    assert len(first) == 64
    int(first, 16)  # valid hex digest


def test_resolve_store_root_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    assert resolve_store_root(None) == ".repro-results"
    assert resolve_store_root("/x/y") == "/x/y"
    monkeypatch.setenv("REPRO_RESULT_STORE", "/env/store")
    assert resolve_store_root(None) == "/env/store"
    assert resolve_store_root("/x/y") == "/x/y"  # argument beats env


# -- store mechanics --------------------------------------------------------


def test_store_roundtrip(tmp_path):
    store = ResultStore(str(tmp_path))
    key = point_key(spec())
    assert store.get(key) is None
    store.put(key, {"value": 42})
    assert store.get(key) == {"value": 42}
    assert store.contains(key)
    assert store.discard(key)
    assert not store.contains(key)
    assert not store.discard(key)


def test_corrupt_entry_is_a_miss(tmp_path):
    store = ResultStore(str(tmp_path))
    key = point_key(spec())
    store.put(key, [1, 2, 3])
    path = store._path(key)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert store.get(key) is None
    store.put(key, [1, 2, 3])  # the next put overwrites the corrupt entry
    assert store.get(key) == [1, 2, 3]


# -- resume semantics (the acceptance criterion) ----------------------------


def test_interrupted_campaign_recomputes_only_missing_points(tmp_path):
    specs = figure19_specs(benchmarks=("compress",), scale=SCALE)
    root = str(tmp_path)

    # "Interrupted" campaign: only the first three points completed.
    partial = run_campaign(
        specs[:3], SupervisorConfig(workers=1, resume=True, store_root=root)
    )
    assert partial.counters["recomputed"] == 3
    assert partial.counters["cache_hits"] == 0

    # Resume the full campaign: exactly the two missing points recompute.
    resumed = run_campaign(
        specs, SupervisorConfig(workers=1, resume=True, store_root=root)
    )
    assert resumed.counters["recomputed"] == 2
    assert resumed.counters["cache_hits"] == 3
    assert resumed.ok

    # And the merged results are byte-identical to a cold serial run.
    cold = run_campaign(specs, SupervisorConfig(workers=1))
    assert [pickle.dumps(vars(p)) for p in resumed.results()] == [
        pickle.dumps(vars(p)) for p in cold.results()
    ]

    # A third run is fully warm.
    warm = run_campaign(
        specs, SupervisorConfig(workers=1, resume=True, store_root=root)
    )
    assert warm.counters["recomputed"] == 0
    assert warm.counters["cache_hits"] == 5


def test_losing_one_entry_recomputes_exactly_that_point(tmp_path):
    specs = figure19_specs(benchmarks=("compress",), scale=SCALE)
    root = str(tmp_path)
    run_campaign(specs, SupervisorConfig(workers=1, resume=True, store_root=root))
    ResultStore(root).discard(point_key(specs[2]))
    report = run_campaign(
        specs, SupervisorConfig(workers=1, resume=True, store_root=root)
    )
    assert report.counters["recomputed"] == 1
    assert report.counters["cache_hits"] == 4


def test_experiment_runner_resume_kwarg(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
    first = run_figure19(benchmarks=("compress",), scale=SCALE, resume=True)
    (campaign,) = first.campaigns
    assert campaign.counters["recomputed"] == 5
    second = run_figure19(benchmarks=("compress",), scale=SCALE, resume=True)
    (campaign,) = second.campaigns
    assert campaign.counters["recomputed"] == 0
    assert campaign.counters["cache_hits"] == 5
    assert [vars(p) for p in first.points] == [vars(p) for p in second.points]
