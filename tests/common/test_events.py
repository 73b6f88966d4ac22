"""EventLog: the protocol trace consumed by figure tests and examples."""

from repro.common.events import EventLog, ProtocolEvent


def test_emit_and_query():
    log = EventLog()
    log.emit("squash", source="svc", cache=2, rank=5)
    log.emit("commit", source="svc", cache=0, rank=0)
    assert len(log) == 2
    assert len(log.of_kind("squash")) == 1
    assert log.last().kind == "commit"
    assert log.last("squash").detail["rank"] == 5


def test_last_missing_kind_is_none():
    assert EventLog().last("nothing") is None


def test_describe_renders_all_events():
    log = EventLog()
    log.emit("bus", source="bus", request="BusRead", line_addr=0x100)
    text = log.describe()
    assert "BusRead" in text
    assert "[bus]" in text


def test_clear():
    log = EventLog()
    log.emit("x", source="y")
    log.clear()
    assert len(log) == 0


def test_clear_empties_kind_queries():
    """clear() drops every event, so of_kind() and last() serve nothing
    from before it."""
    log = EventLog()
    log.emit("squash", source="svc", rank=1)
    log.emit("commit", source="svc", rank=0)
    log.clear()
    assert log.of_kind("squash") == []
    assert log.last("squash") is None
    assert log.last("commit") is None
    assert log.last() is None


def test_emit_after_clear_reflects_only_new_events():
    log = EventLog()
    log.emit("squash", source="svc", rank=1)
    log.clear()
    log.emit("squash", source="svc", rank=7)
    assert len(log) == 1
    assert [e.detail["rank"] for e in log.of_kind("squash")] == [7]
    assert log.last("squash").detail["rank"] == 7


def test_clear_keeps_observers_attached():
    log = EventLog()
    seen = []
    log.attach(seen.append)
    log.emit("a", source="s")
    log.clear()
    log.emit("b", source="s")
    assert [e.kind for e in seen] == ["a", "b"]


def test_extend_appends_batch_in_order():
    log = EventLog()
    log.emit("commit", source="svc", rank=0)
    log.extend(
        ProtocolEvent(kind="squash", source="svc", detail={"rank": r})
        for r in (3, 2, 1)
    )
    assert [e.kind for e in log] == ["commit", "squash", "squash", "squash"]
    assert [e.detail["rank"] for e in log.of_kind("squash")] == [3, 2, 1]
    assert log.last("squash").detail["rank"] == 1
    assert log.last().detail["rank"] == 1


def test_extend_notifies_observers_per_event_in_order():
    log = EventLog()
    seen = []
    log.attach(seen.append)
    log.extend(
        [
            ProtocolEvent(kind="a", source="s", detail={}),
            ProtocolEvent(kind="b", source="s", detail={}),
        ]
    )
    assert [e.kind for e in seen] == ["a", "b"]


def test_kind_queries_see_interleaved_emits_and_extends():
    """of_kind() scans the log when asked; interleaving emits, batched
    extends, and queries must never lose or double-count events."""
    log = EventLog()
    log.emit("squash", source="svc", rank=1)
    assert len(log.of_kind("squash")) == 1  # a query between emits
    log.emit("squash", source="svc", rank=2)
    log.extend([ProtocolEvent(kind="squash", source="svc", detail={"rank": 3})])
    assert [e.detail["rank"] for e in log.of_kind("squash")] == [1, 2, 3]
    assert [e.detail["rank"] for e in log.of_kind("squash")] == [1, 2, 3]


def test_kind_query_after_clear_sees_only_new_events():
    """A query before clear() leaves nothing behind for one after it."""
    log = EventLog()
    log.emit("squash", source="svc", rank=1)
    assert log.last("squash") is not None  # a query before clear()
    log.clear()
    log.emit("squash", source="svc", rank=9)
    assert [e.detail["rank"] for e in log.of_kind("squash")] == [9]
