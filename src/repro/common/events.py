"""Protocol event log.

The SVC, ARB and coherence controllers emit :class:`ProtocolEvent` records
describing bus transactions, state transitions, squashes and writebacks.
The worked-example tests (paper Figures 4, 8, 9, 12-17) and the
``protocol_walkthrough`` example assert on and pretty-print this stream.

Logging is optional: components accept ``event_log=None`` and skip emission
entirely, so the timing benchmarks pay nothing for it.

The log is also the hook point for runtime verification: observers
registered with :meth:`EventLog.attach` see every event as it is
emitted, which is how :class:`repro.check.InvariantChecker` audits the
protocol after every bus transaction, commit and squash without the
protocol code knowing checkers exist. With no log there are no
observers, so the ``checker=None`` / ``event_log=None`` fast path costs
exactly what it did before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    """One observable protocol action.

    ``kind`` is a short verb (``"bus_read"``, ``"invalidate"``,
    ``"squash"``, ``"writeback"``, ...); ``source`` names the component
    that emitted it; ``detail`` carries kind-specific fields.
    """

    kind: str
    source: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Single-line human-readable rendering."""
        fields = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.source}] {self.kind}({fields})"


class EventLog:
    """Append-only list of protocol events with simple query helpers."""

    def __init__(self) -> None:
        self._events: List[ProtocolEvent] = []
        self._observers: List[Callable[[ProtocolEvent], None]] = []

    def attach(self, observer: Callable[[ProtocolEvent], None]) -> None:
        """Register an observer called with every event as it is emitted.

        Observers run synchronously, after the event is appended; an
        observer that raises (e.g. an invariant checker) aborts the
        emitting operation with the protocol state intact for post-mortem
        inspection.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def emit(self, kind: str, source: str, **detail: Any) -> None:
        event = ProtocolEvent(kind=kind, source=source, detail=detail)
        self._events.append(event)
        for observer in self._observers:
            observer(event)

    def extend(self, events: Iterable[ProtocolEvent]) -> None:
        """Append a batch of already-built events in order.

        The batch lands in one pre-sized ``list.extend``; observers
        still see every event individually, in order, after the whole
        batch is appended — batch emitters use this exactly because
        observers must not see half-applied protocol state between the
        batch's events.
        """
        events = list(events)
        self._events.extend(events)
        observers = self._observers
        if observers:
            for event in events:
                for observer in observers:
                    observer(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[ProtocolEvent]:
        return [event for event in self._events if event.kind == kind]

    def last(self, kind: Optional[str] = None) -> Optional[ProtocolEvent]:
        for event in reversed(self._events):
            if kind is None or event.kind == kind:
                return event
        return None

    def clear(self) -> None:
        """Drop all events, keeping observers attached."""
        self._events.clear()

    def describe(self) -> str:
        """Multi-line rendering of the whole log."""
        return "\n".join(event.describe() for event in self._events)
