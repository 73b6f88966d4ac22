"""Metrics: bucket-edge semantics, registry binding, snapshot merging."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    merge_metric_snapshots,
)


class TestHistogramBucketEdges:
    """edges = (a, b, c) -> buckets v<=a, a<v<=b, b<v<=c, v>c."""

    def test_inclusive_upper_bounds(self):
        hist = Histogram("h", edges=(1, 2, 4))
        for value, bucket in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
            before = hist.to_dict()["counts"]
            hist.observe(value)
            after = hist.to_dict()["counts"]
            assert after[bucket] == before[bucket] + 1, (value, bucket)
        data = hist.to_dict()
        assert data["counts"] == [1, 1, 2, 1]
        assert data["count"] == 5
        assert data["total"] == 1 + 2 + 3 + 4 + 5
        assert (data["min"], data["max"]) == (1, 5)

    def test_zero_goes_to_first_bucket(self):
        hist = Histogram("h", edges=(0, 1))
        hist.observe(0)
        assert hist.to_dict()["counts"] == [1, 0, 0]

    def test_counts_has_one_overflow_slot(self):
        assert len(Histogram("h", edges=(1, 2, 4)).to_dict()["counts"]) == 4

    def test_edges_must_be_strictly_increasing(self):
        with pytest.raises(ReproError):
            Histogram("h", edges=(1, 1, 2))
        with pytest.raises(ReproError):
            Histogram("h", edges=())


@settings(deadline=None)
@given(
    edges=st.lists(st.integers(-8, 80), min_size=1, max_size=8, unique=True).map(
        sorted
    ),
    values=st.lists(st.integers(-20, 100), max_size=60),
    by_tally=st.booleans(),
)
def test_to_dict_buckets_the_tally_like_a_bisect_loop(edges, values, by_tally):
    """Whether observations arrive through ``observe`` or through the
    tally a hot layer binds, ``to_dict`` reports what bucketing each
    observation on its own gives."""
    hist = Histogram("h", edges)
    tally = hist.tally
    for value in values:
        if by_tally:
            tally[value] = tally.get(value, 0) + 1
        else:
            hist.observe(value)
    counts = [0] * (len(edges) + 1)
    for value in values:
        counts[bisect_left(edges, value)] += 1
    assert hist.to_dict() == {
        "unit": "",
        "edges": edges,
        "counts": counts,
        "count": len(values),
        "total": sum(values),
        "min": min(values) if values else None,
        "max": max(values) if values else None,
    }


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.histogram("h", (1, 2)) is registry.histogram("h", (1, 2))
        assert registry.histogram("g", (1,)) is not registry.histogram("h", (1, 2))
        assert len(registry) == 2

    def test_histogram_edge_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ReproError):
            registry.histogram("h", (1, 2, 4))

    def test_snapshot_groups_by_type(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2)).observe(2)
        snap = registry.snapshot()
        assert set(snap) == {"histograms"}
        assert snap["histograms"]["h"]["counts"] == [0, 1, 0]


def test_merge_adds_histograms_and_widens_envelopes():
    def snap(observations):
        registry = MetricsRegistry()
        hist = registry.histogram("h", (1, 2), unit="x")
        for value in observations:
            hist.observe(value)
        return registry.snapshot()

    merged = merge_metric_snapshots([snap([1, 5]), snap([2])])
    hist = merged["histograms"]["h"]
    assert hist["counts"] == [1, 1, 1]
    assert hist["count"] == 3
    assert hist["total"] == 8
    assert (hist["min"], hist["max"]) == (1, 5)


def test_merge_rejects_mismatched_edges():
    a = {"histograms": {"h": Histogram("h", (1, 2)).to_dict()}}
    b = {"histograms": {"h": Histogram("h", (1, 2, 4)).to_dict()}}
    with pytest.raises(ReproError):
        merge_metric_snapshots([a, b])


class TestMergeEdgeCases:
    """Satellite coverage: degenerate and conflicting snapshot lists."""

    def test_empty_list_merges_to_empty_groups(self):
        merged = merge_metric_snapshots([])
        assert merged == {"histograms": {}}

    def test_empty_snapshots_merge_to_empty_groups(self):
        merged = merge_metric_snapshots([{}, {"histograms": {}}])
        assert merged == {"histograms": {}}

    def test_single_snapshot_round_trips(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2)).observe(1)
        snap = registry.snapshot()
        assert merge_metric_snapshots([snap]) == snap

    def test_edge_mismatch_error_names_both_edge_sets(self):
        a = {"histograms": {"h": Histogram("h", (1, 2)).to_dict()}}
        b = {"histograms": {"h": Histogram("h", (1, 3)).to_dict()}}
        with pytest.raises(ReproError) as excinfo:
            merge_metric_snapshots([a, b])
        message = str(excinfo.value)
        assert "[1, 2]" in message and "[1, 3]" in message
