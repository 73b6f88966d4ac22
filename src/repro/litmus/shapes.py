"""The declarative litmus-shape catalog.

A litmus shape is the lingua franca of memory-system verification
(RealityCheck; "Taming Weak Memory Models"): a tiny named program, one
thread per task, plus a *pinned* set of allowed final outcomes and the
classic relaxed outcomes that must never appear. Here each thread is a
speculative task — SVC tasks carry a sequential program order, so the
allowed set of every shape is exactly the sequential execution's
outcome, and the corpus' claim is the paper's central one: speculative
versioning preserves sequential semantics at every design tier, under
*every* schedule, which :mod:`repro.modelcheck` proves exhaustively.

The DSL: a thread is a tuple of statements, ``("st", loc, value)`` or
``("ld", loc, reg)``. Locations ``x``/``y``/``z``/``w`` map to distinct
16-byte cache lines (so the classic shapes exercise cross-line
ordering, not false sharing); registers are per-shape-unique names
``r0``, ``r1``, ... bound to the committed value of their load. An
outcome *valuation* assigns every register its committed load value and
every location its final architected memory word.

``allowed`` / ``forbidden`` are tuples of (possibly partial) valuation
patterns: a valuation matches a pattern when every pattern key agrees.
Every tier is checked against the same ``allowed`` set: the sequential
outcome, which is the conformance claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.common.errors import ConfigError
from repro.hier.task import MemOp, TaskProgram
from repro.modelcheck.programs import LINE_SIZE, WORD_SIZE

#: Location names, each its own 16-byte line.
LOCATIONS = ("x", "y", "z", "w")

Statement = Tuple  # ("st", loc, value) | ("ld", loc, reg)
Valuation = Tuple[Tuple[str, int], ...]  # sorted (name, value) pairs


def location_address(loc: str) -> int:
    """Byte address of a named location (one full line per location)."""
    try:
        return LOCATIONS.index(loc) * LINE_SIZE
    except ValueError:
        raise ConfigError(
            f"unknown litmus location {loc!r}; choose from {LOCATIONS}"
        ) from None


@dataclass(frozen=True)
class LitmusShape:
    """One named litmus shape with its pinned outcome sets."""

    name: str
    title: str
    #: Where the shape comes from (catalog paper / SVC paper section).
    source: str
    threads: Tuple[Tuple[Statement, ...], ...]
    #: Pinned allowed outcomes — every one must be observed, and every
    #: observed outcome must match exactly one of them.
    allowed: Tuple[Mapping[str, int], ...]
    #: Relaxed outcomes that must be proven unreachable.
    forbidden: Tuple[Mapping[str, int], ...]
    #: PUs to build (tasks beyond this count exercise PU reuse).
    pus: int = 2
    description: str = ""

    def locations(self) -> Tuple[str, ...]:
        used = []
        for thread in self.threads:
            for stmt in thread:
                if stmt[1] not in used:
                    used.append(stmt[1])
        return tuple(sorted(used, key=LOCATIONS.index))

    def registers(self) -> Tuple[str, ...]:
        return tuple(reg for reg, _ in sorted(register_map(self).items(),
                                              key=lambda kv: kv[1]))


def compile_shape(shape: LitmusShape) -> Tuple[TaskProgram, ...]:
    """Lower a shape's threads into task programs, thread order = rank
    order (the sequential order the tiers must preserve)."""
    tasks = []
    for rank, thread in enumerate(shape.threads):
        ops = []
        for stmt in thread:
            kind = stmt[0]
            if kind == "st":
                _, loc, value = stmt
                ops.append(MemOp.store(location_address(loc), value, WORD_SIZE))
            elif kind == "ld":
                _, loc, _reg = stmt
                ops.append(MemOp.load(location_address(loc), WORD_SIZE))
            else:
                raise ConfigError(f"unknown litmus statement kind {kind!r}")
        tasks.append(TaskProgram(ops=ops, name=f"{shape.name}/t{rank}"))
    return tuple(tasks)


def register_map(shape: LitmusShape) -> Dict[str, Tuple[int, int]]:
    """``register -> (rank, load ordinal)`` for outcome extraction.

    The ordinal indexes the task's committed load values
    (``DriverReport.load_values[rank]``), which follow program order.
    """
    mapping: Dict[str, Tuple[int, int]] = {}
    for rank, thread in enumerate(shape.threads):
        ordinal = 0
        for stmt in thread:
            if stmt[0] != "ld":
                continue
            reg = stmt[2]
            if reg in mapping:
                raise ConfigError(
                    f"shape {shape.name!r}: register {reg!r} bound twice"
                )
            mapping[reg] = (rank, ordinal)
            ordinal += 1
    return mapping


def outcome_valuation(shape: LitmusShape, outcome) -> Valuation:
    """Map one modelcheck :data:`~repro.modelcheck.explorer.Outcome`
    (committed load values + final memory image) onto the shape's
    registers and locations."""
    load_values, image_items = outcome
    image = dict(image_items)
    values: Dict[str, int] = {}
    for reg, (rank, ordinal) in register_map(shape).items():
        try:
            values[reg] = load_values[rank][ordinal]
        except IndexError:
            raise ConfigError(
                f"shape {shape.name!r}: outcome has no load {ordinal} "
                f"for task {rank} (register {reg!r})"
            ) from None
    for loc in shape.locations():
        base = location_address(loc)
        values[loc] = sum(
            image.get(base + i, 0) << (8 * i) for i in range(WORD_SIZE)
        )
    return tuple(sorted(values.items()))


def matches(valuation: Valuation, pattern: Mapping[str, int]) -> bool:
    """True when every key the pattern pins agrees with the valuation."""
    values = dict(valuation)
    return all(values.get(key) == want for key, want in pattern.items())


def sequential_valuation(shape: LitmusShape) -> Valuation:
    """The sequential execution's valuation (the oracle ground truth the
    pinned allowed sets are checked against by the corpus self-test)."""
    from repro.oracle.sequential import SequentialOracle

    tasks = list(compile_shape(shape))
    result = SequentialOracle().run(tasks)
    outcome = (
        tuple(tuple(values) for values in result.load_values),
        tuple(sorted(result.memory_image.items())),
    )
    return outcome_valuation(shape, outcome)


def _shape(**kwargs) -> LitmusShape:
    shape = LitmusShape(**kwargs)
    register_map(shape)  # validates register uniqueness eagerly
    return shape


#: The corpus. Classic shapes cite the weak-memory catalog; SVC shapes
#: cite the paper section whose machinery they exercise.
LITMUS_SHAPES: Dict[str, LitmusShape] = {
    shape.name: shape
    for shape in (
        _shape(
            name="sb",
            title="Store buffering (Dekker)",
            source="Taming Weak Memory Models; x86-TSO's signature relaxation",
            threads=(
                (("st", "x", 1), ("ld", "y", "r0")),
                (("st", "y", 1), ("ld", "x", "r1")),
            ),
            allowed=({"r0": 0, "r1": 1, "x": 1, "y": 1},),
            forbidden=({"r0": 0, "r1": 0}, {"r0": 1, "r1": 0}),
            description=(
                "Each task stores one flag then reads the other's. Task "
                "order makes r0=0,r1=1 the only sequential outcome; both "
                "readings of 'neither saw the other' are forbidden."
            ),
        ),
        _shape(
            name="mp",
            title="Message passing",
            source="Taming Weak Memory Models (MP); handoff idiom",
            threads=(
                (("st", "x", 1), ("st", "y", 1)),
                (("ld", "y", "r0"), ("ld", "x", "r1")),
            ),
            allowed=({"r0": 1, "r1": 1, "x": 1, "y": 1},),
            forbidden=({"r0": 1, "r1": 0}, {"r0": 0, "r1": 0}),
            description=(
                "Producer writes data (x) then flag (y); later task reads "
                "flag then data. Seeing the flag without the data — the "
                "classic weak-memory MP relaxation — must be unreachable, "
                "as must missing the committed flag entirely."
            ),
        ),
        _shape(
            name="lb",
            title="Load buffering",
            source="Taming Weak Memory Models (LB); out-of-thin-air guard",
            threads=(
                (("ld", "x", "r0"), ("st", "y", 1)),
                (("ld", "y", "r1"), ("st", "x", 1)),
            ),
            allowed=({"r0": 0, "r1": 1, "x": 1, "y": 1},),
            forbidden=({"r0": 1, "r1": 1}, {"r0": 1, "r1": 0}),
            description=(
                "Loads before cross stores. r0=1,r1=1 (each load sees the "
                "other task's later store) is the LB cycle; r0 can never "
                "see x=1 because that store is by the *younger* task."
            ),
        ),
        _shape(
            name="iriw",
            title="Independent reads of independent writes",
            source="Taming Weak Memory Models (IRIW); multi-copy atomicity",
            pus=4,
            threads=(
                (("st", "x", 1),),
                (("ld", "x", "r0"), ("ld", "y", "r1")),
                (("st", "y", 1),),
                (("ld", "y", "r2"), ("ld", "x", "r3")),
            ),
            allowed=(
                {"r0": 1, "r1": 0, "r2": 1, "r3": 1, "x": 1, "y": 1},
            ),
            forbidden=(
                {"r0": 1, "r1": 0, "r2": 1, "r3": 0},
                {"r1": 1},
            ),
            description=(
                "Two writers, two readers on four PUs. Readers disagreeing "
                "on the write order (r0=1,r1=0 but r2=1,r3=0) is the "
                "non-multi-copy-atomic outcome; r1=1 would read a store by "
                "a younger task."
            ),
        ),
        _shape(
            name="corr",
            title="Coherence: read-read same location",
            source="Taming Weak Memory Models (CoRR); per-location order",
            threads=(
                (("st", "x", 1),),
                (("ld", "x", "r0"), ("ld", "x", "r1")),
            ),
            allowed=({"r0": 1, "r1": 1, "x": 1},),
            forbidden=({"r0": 1, "r1": 0},),
            description=(
                "Two reads of one location may never observe values going "
                "backwards: once the committed store is visible, a later "
                "read in the same task cannot un-see it."
            ),
        ),
        _shape(
            name="coww",
            title="Coherence: write-write same location",
            source="Taming Weak Memory Models (CoWW); store order",
            threads=(
                (("st", "x", 1), ("st", "x", 2)),
                (("ld", "x", "r0"),),
            ),
            allowed=({"r0": 2, "x": 2},),
            forbidden=({"x": 1}, {"r0": 1}),
            description=(
                "Same-task stores to one location must retire in program "
                "order: the final architected value is the second store's, "
                "and the later task can only see it."
            ),
        ),
        _shape(
            name="svc_treuse",
            title="SVC: passive copy reuse across PU reassignment",
            source="SVC paper section 3.4 (T bit, stale-copy reuse)",
            pus=2,
            threads=(
                (("st", "x", 1),),
                (("ld", "y", "r0"),),
                (("ld", "x", "r1"),),
            ),
            allowed=({"r0": 0, "r1": 1, "x": 1},),
            forbidden=({"r1": 0},),
            description=(
                "Three tasks on two PUs: task 2 reuses task 0's PU, whose "
                "cache still holds the committed x line as a passive copy. "
                "EC+ tiers satisfy the load from that copy via the T bit; "
                "every tier must still deliver the committed value — a "
                "stale r1=0 is the bug the T-bit machinery must not admit."
            ),
        ),
        _shape(
            name="svc_xreact",
            title="SVC: local reactivation of a passive line",
            source="SVC paper sections 3.4-3.5 (X bit, reactivation)",
            pus=2,
            threads=(
                (("ld", "x", "r0"), ("st", "x", 1)),
                (("ld", "x", "r1"),),
                (("st", "x", 2), ("ld", "x", "r2")),
            ),
            allowed=({"r0": 0, "r1": 1, "r2": 2, "x": 2},),
            forbidden=({"r2": 1}, {"r1": 2}, {"x": 1}),
            description=(
                "Task 2 reuses task 0's PU and overwrites the line task 0 "
                "left behind, exercising local reactivation (X bit) of a "
                "passive copy. Its own load must see its new store (r2=2, "
                "never the stale 1), task 1 must not see the younger "
                "task's store, and the final memory is task 2's value."
            ),
        ),
    )
}
