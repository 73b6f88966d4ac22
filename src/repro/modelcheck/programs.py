"""The exploration bound and the enumeration of small task programs.

A bound is (PUs, total memory ops, 16-byte lines, tasks). Programs are
every way to split ``ops`` loads/stores across ``tasks`` tasks over the
word locations of ``lines`` cache lines. Two symmetry reductions keep
the space honest without losing coverage:

* **location canonicalization** — renaming whole lines, or the two word
  slots within one line, maps any execution onto an isomorphic one (the
  bound geometry guarantees no replacements, so set indexing is
  unobservable). Only programs whose first-use order of lines, and of
  words within each line, is ascending are enumerated.
* **store-value independence** — store values are arbitrary labels as
  long as they are distinct, so each store writes a value determined by
  its (task, position) alone.

Tasks beyond the PU count exercise PU reuse: a freed PU's cache still
holds the previous task's committed lines, which is exactly the passive
copy reuse (T bit) and local reactivation (X bit) machinery of the EC+
designs — paths a one-task-per-PU model could never reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.hier.task import MemOp, TaskProgram

#: Word locations per 16-byte line (4-byte words at offsets 0 and 4;
#: offsets 8 and 12 would add symmetric slots without new behavior).
WORDS_PER_LINE = 2
WORD_SIZE = 4
LINE_SIZE = 16


@dataclass(frozen=True)
class Bounds:
    """The exploration bound: small by design, exhaustive within."""

    pus: int = 2
    ops: int = 3
    lines: int = 2
    #: Tasks to run (defaults to pus + 1, so at least one PU is reused
    #: and the passive-line reuse paths are reachable).
    tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pus < 2:
            raise ConfigError("bounds need at least 2 PUs (the SVC minimum)")
        if self.ops < 1 or self.lines < 1:
            raise ConfigError("bounds must be at least 1 op and 1 line")
        if self.tasks is not None and self.tasks < 1:
            raise ConfigError("bounds need at least one task")

    @property
    def n_tasks(self) -> int:
        return self.tasks if self.tasks is not None else self.pus + 1

    @property
    def n_locations(self) -> int:
        return self.lines * WORDS_PER_LINE

    def describe(self) -> str:
        return (
            f"{self.pus} PUs x {self.n_tasks} tasks, "
            f"<= {self.ops} ops over {self.lines} lines"
        )


def location_address(index: int) -> int:
    """Byte address of word location ``index``: two words per line."""
    line, word = divmod(index, WORDS_PER_LINE)
    return line * LINE_SIZE + word * WORD_SIZE


def bounds_for_programs(
    programs: Sequence[Sequence[TaskProgram]],
    pus: int = 2,
) -> Bounds:
    """A :class:`Bounds` wide enough for externally supplied programs.

    Litmus shapes and trace fragments arrive as hand-built
    ``TaskProgram`` tuples rather than enumerator output; this derives
    the bound that makes :func:`bound_geometry` replacement-free for
    them: ``ops`` covers the largest program's memory-op total, ``lines``
    covers its distinct 16-byte lines (whatever their absolute
    addresses — the geometry only needs the *count*, since its
    associativity covers the worst-case set collision), and ``tasks``
    covers the longest task list.
    """
    if not programs:
        raise ConfigError("bounds_for_programs needs at least one program")
    max_ops = 1
    max_lines = 1
    max_tasks = 1
    for program in programs:
        if not program:
            raise ConfigError("cannot bound an empty program")
        ops = sum(task.memory_op_count for task in program)
        lines = {
            op.addr // LINE_SIZE for task in program for op in task.memory_ops
        }
        max_ops = max(max_ops, ops)
        max_lines = max(max_lines, len(lines) or 1)
        max_tasks = max(max_tasks, len(program))
    return Bounds(
        pus=max(2, pus), ops=max_ops, lines=max_lines, tasks=max_tasks
    )


def bound_geometry(bounds: Bounds) -> CacheGeometry:
    """A geometry under which no exploration ever needs a replacement.

    Every distinct line fits a way of its set in every cache (the word
    tiers split each 16-byte line into four one-word lines over more
    sets, so they only get roomier). Replacement-freedom is what makes
    set indexing, LRU order and stalls unobservable — the soundness
    precondition of both symmetry reductions and the sleep sets.
    """
    associativity = max(2, bounds.lines * WORDS_PER_LINE)
    return CacheGeometry(
        size_bytes=associativity * LINE_SIZE * 2,
        associativity=associativity,
        line_size=LINE_SIZE,
        versioning_block_size=WORD_SIZE,
    )


def store_value(rank: int, position: int) -> int:
    """Distinct, recognizable store data per (task, op position)."""
    return (rank + 1) * 100 + position + 1


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All ways to write ``total`` as ``parts`` ordered non-negatives."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _canonical_locations(flat: Sequence[int]) -> bool:
    """True when the location sequence is the canonical representative
    of its orbit under line renaming and within-line word swapping."""
    next_line = 0
    words_seen: dict = {}
    for loc in flat:
        line, word = divmod(loc, WORDS_PER_LINE)
        seen = words_seen.get(line)
        if seen is None:
            if line != next_line:
                return False
            next_line += 1
            seen = words_seen[line] = set()
        if word not in seen:
            if word != len(seen):
                return False
            seen.add(word)
    return True


def enumerate_programs(bounds: Bounds) -> Iterator[Tuple[TaskProgram, ...]]:
    """Every canonical program within the bound.

    A program is a tuple of ``bounds.n_tasks`` tasks whose memory ops
    total between 1 and ``bounds.ops``; each op is a load or a 4-byte
    store to one of the bound's word locations.
    """
    n_tasks = bounds.n_tasks
    n_locations = bounds.n_locations
    choices = [("load", loc) for loc in range(n_locations)] + [
        ("store", loc) for loc in range(n_locations)
    ]
    for total in range(1, bounds.ops + 1):
        for split in _compositions(total, n_tasks):
            yield from _fill_ops(split, choices, total)


def _fill_ops(
    split: Tuple[int, ...],
    choices: List[Tuple[str, int]],
    total: int,
) -> Iterator[Tuple[TaskProgram, ...]]:
    """Expand one op-count split into all canonical op assignments."""
    slots: List[Tuple[str, int]] = [("load", 0)] * total

    def emit() -> Tuple[TaskProgram, ...]:
        tasks = []
        cursor = 0
        for rank, count in enumerate(split):
            ops = []
            for position in range(count):
                kind, loc = slots[cursor]
                cursor += 1
                addr = location_address(loc)
                if kind == "load":
                    ops.append(MemOp.load(addr, WORD_SIZE))
                else:
                    ops.append(
                        MemOp.store(addr, store_value(rank, position), WORD_SIZE)
                    )
            tasks.append(TaskProgram(ops=ops, name=f"t{rank}"))
        return tuple(tasks)

    def rec(index: int) -> Iterator[Tuple[TaskProgram, ...]]:
        if index == total:
            if _canonical_locations([loc for _, loc in slots]):
                yield emit()
            return
        for choice in choices:
            slots[index] = choice
            yield from rec(index + 1)

    yield from rec(0)


def count_programs(bounds: Bounds) -> int:
    """Size of the canonical program space (for reporting)."""
    return sum(1 for _ in enumerate_programs(bounds))
