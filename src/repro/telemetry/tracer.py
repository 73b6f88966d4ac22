"""Span-based tracer with causal parent links and a logical clock.

A :class:`Span` is one traced operation; spans nest by call structure.
The tracer keeps an explicit stack of open spans: ``begin`` links the
new span to the innermost open one (its causal parent) and pushes it,
``end`` pops it. Because every protocol layer in this repository runs
synchronously on one thread, the open-span stack *is* the causal call
chain — a VOL walk that runs inside a bus transaction gets that
transaction as its parent with no plumbing through intermediate
signatures.

Timestamps are **logical ticks**: a counter that advances by one at
every begin, end and instant. Two properties follow:

* determinism — the same run emits the same trace, byte for byte, so
  traces can be diffed and pinned in tests (wall clocks cannot), and
* strict containment — a child's ``[start, end]`` interval always nests
  strictly inside its parent's, which is exactly what Chrome-trace
  viewers use to reconstruct nesting per track.

Simulated cycle numbers are not timestamps here; layers attach them as
span args (``cycle=...``) where they are meaningful.

``end`` is robust to exception unwinding: ending a span closes any
still-open descendants first (innermost first), so a protocol error
thrown mid-transaction cannot leave the stack polluted and silently
reparent every later span.

Bounded cost
------------

Recording every span of a long campaign once cost enabled-mode
telemetry +71% wall time. Two bounds keep traces on at a fraction of
that:

* ``capacity`` — spans live in a preallocated ring
  (``collections.deque(maxlen=capacity)``): the newest ``capacity``
  spans are kept, the oldest are evicted, and :attr:`Tracer.dropped`
  counts the evictions so exporters can say "N earlier spans dropped"
  instead of silently truncating. Span *identity* is unaffected —
  ids keep incrementing — so causal links stay stable and
  :meth:`Tracer.export_spans` reparents a span whose parent was evicted
  to the root rather than to a wrong survivor.
* sampling — the tracer records every span it is given. Which memory
  operations get spans at all is decided by the timing simulator
  (:class:`repro.timing.simulator.TimingSimulator`), which traces the
  first memory-op attempt and every ``Telemetry.sample_interval``-th
  after it and keeps the system's telemetry detached for the rest, so
  the protocol spans of an untraced op never reach this class.

The ring defaults off (unbounded), which is what the unit tests and the
differential harness use; campaign runners opt in via
:class:`repro.telemetry.Telemetry`.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

#: Span severity levels, in increasing order.
LEVELS = ("info", "warning", "error")


class Span:
    """One traced operation (or instant, when ``end == start``).

    A plain ``__slots__`` class, not a dataclass: spans are built on
    the hot path (thousands per traced run) and dataclass ``__init__``
    overhead was a measurable slice of enabled-mode telemetry cost.
    """

    __slots__ = (
        "span_id", "parent_id", "kind", "name", "start", "end", "level", "args"
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        kind: str,
        name: str,
        start: int,
        end: Optional[int] = None,
        level: str = "info",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start = start
        self.end = end
        self.level = level
        self.args = {} if args is None else args

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (
            self.span_id == other.span_id
            and self.parent_id == other.parent_id
            and self.kind == other.kind
            and self.name == other.name
            and self.start == other.start
            and self.end == other.end
            and self.level == other.level
            and self.args == other.args
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__
        )
        return f"Span({fields})"

    @property
    def is_instant(self) -> bool:
        """Zero-duration marker: real spans always tick between begin
        and end, so only instants can have ``end == start``."""
        return self.end == self.start

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "level": self.level,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            span_id=data["id"],
            parent_id=data.get("parent"),
            kind=data["kind"],
            name=data["name"],
            start=data["start"],
            end=data.get("end"),
            level=data.get("level", "info"),
            args=dict(data.get("args", {})),
        )


class Tracer:
    """Collects spans for one run. Not thread-safe by design: the
    simulation is single-threaded and parallel experiment points each
    build their own system (and tracer) inside their worker process.

    ``capacity`` bounds retained spans in a ring (``None`` = unbounded).
    See the module docstring.
    """

    __slots__ = ("spans", "_stack", "_clock", "_next_id", "_appended")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is None:
            self.spans: List[Span] = []
        else:
            self.spans = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._clock = 0
        self._next_id = 1
        #: Spans ever recorded; ``dropped`` = appended - len(spans).
        self._appended = 0

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def depth(self) -> int:
        """Number of currently open spans (0 when quiescent)."""
        return len(self._stack)

    @property
    def capacity(self) -> Optional[int]:
        return getattr(self.spans, "maxlen", None)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring (0 when unbounded)."""
        return self._appended - len(self.spans)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _record(self, span: Span) -> None:
        self._appended += 1
        self.spans.append(span)

    # -- spans ---------------------------------------------------------------

    def begin(self, kind: str, name: Optional[str] = None, **args) -> Span:
        """Open a span; its parent is the innermost span still open."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            kind=kind,
            name=name if name is not None else kind,
            start=self._tick(),
            args=args,
        )
        self._next_id += 1
        self._record(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, level: Optional[str] = None, **args) -> None:
        """Close ``span``, first closing any still-open descendants
        (an exception that unwound past their ``end`` calls). Ending a
        span that is already closed only merges args/level (idempotent).
        """
        # Identity scan, not ``in``: Span has value equality (for
        # snapshot round-trips) and the hot path must not pay for it.
        if any(open_span is span for open_span in self._stack):
            while self._stack:
                top = self._stack.pop()
                if top.end is None:
                    top.end = self._tick()
                if top is span:
                    break
        elif span.end is None:
            # Orphaned begin (its ancestor was force-closed): stamp it.
            span.end = self._tick()
        if args:
            span.args.update(args)
        if level is not None:
            span.level = level

    @contextmanager
    def span(self, kind: str, name: Optional[str] = None, **args):
        """``with tracer.span(...) as s:`` — always-closed span."""
        opened = self.begin(kind, name, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(
        self, kind: str, name: Optional[str] = None, level: str = "info", **args
    ) -> Span:
        """Record a point-in-time marker under the current open span."""
        parent = self._stack[-1].span_id if self._stack else None
        tick = self._tick()
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            kind=kind,
            name=name if name is not None else kind,
            start=tick,
            end=tick,
            level=level,
            args=args,
        )
        self._next_id += 1
        self._record(span)
        return span

    # -- queries (tests, summaries) ------------------------------------------

    def of_kind(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def export_spans(self) -> List[Dict[str, Any]]:
        """Span dicts for a snapshot, with dangling parents healed.

        When the ring evicted a span whose children survive, the
        children's ``parent`` ids would point at nothing; exporters
        (and Perfetto) treat that as corruption, so evicted parents
        are rewritten to ``None`` (top-level) here.
        """
        present = {span.span_id for span in self.spans}
        out = []
        for span in self.spans:
            data = span.to_dict()
            if data["parent"] is not None and data["parent"] not in present:
                data["parent"] = None
            out.append(data)
        return out


__all__ = ["LEVELS", "Span", "Tracer"]
