"""Conformance checking and the ``python -m repro litmus`` CLI.

One *unit* is (shape, tier): compile the shape, exhaustively explore
every schedule on that design tier (:func:`repro.modelcheck.explorer.
explore_case`), map each terminal outcome onto the shape's registers
and locations, and hold the result against the sequential oracle's
valuation and the shape's forbidden patterns:

* every observed valuation must be the sequential one
  (:func:`repro.litmus.shapes.sequential_valuation`),
* the sequential valuation must actually be observed (a vacuously
  passing shape is a corpus bug),
* no observed valuation may match a **forbidden** pattern, and the
  exploration must be exhaustive (not truncated) — that pair is what
  "proven unreachable" means,
* the exploration must produce no oracle/invariant counterexamples.

Units fan out over :func:`repro.harness.parallel.parallel_map` exactly
like model-check units. ``--explain`` prints, for each observed
valuation, the schedule that witnessed it (from the explorer's
first-reach witness map).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.harness.parallel import parallel_map, resolve_workers
from repro.litmus.shapes import (
    LITMUS_SHAPES,
    LitmusShape,
    compile_shape,
    matches,
    outcome_valuation,
    sequential_valuation,
)
from repro.modelcheck.explorer import explore_case
from repro.modelcheck.programs import bound_geometry, bounds_for_programs
from repro.replay import Case
from repro.svc.designs import DESIGNS

#: Conformance targets: the six SVC design tiers.
ALL_TIERS = tuple(DESIGNS)

#: Default per-unit node budget. Shapes are tiny (<= 4 tasks, <= 6 ops)
#: so real explorations sit orders of magnitude below this; hitting it
#: marks the unit truncated and therefore failing.
DEFAULT_MAX_NODES = 200_000

Valuation = Tuple[Tuple[str, int], ...]


def _format_valuation(valuation: Valuation) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in valuation) + "}"


def _format_pattern(pattern) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(pattern.items())) + "}"


def _format_schedule(script: Sequence[Tuple[str, int]]) -> str:
    return " ".join(f"{kind}(t{rank})" for kind, rank in script)


@dataclass
class ShapeCheck:
    """What exhaustive exploration established for one (shape, tier)."""

    shape: str
    tier: str
    schedules: int = 0
    nodes: int = 0
    truncated: bool = False
    #: Observed valuations, sorted, with one witnessing schedule each.
    observed: List[Valuation] = field(default_factory=list)
    witnesses: Dict[Valuation, Tuple[Tuple[str, int], ...]] = field(
        default_factory=dict
    )
    #: Forbidden patterns proven unreachable (all of them, when ok).
    unreachable: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self, explain: bool = False) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [
            f"{self.shape:>12}/{self.tier:<5} {status}: "
            f"{self.schedules} schedules, {self.nodes} nodes, "
            f"{len(self.observed)} outcome(s), "
            f"{len(self.unreachable)} forbidden unreachable"
        ]
        if explain:
            for valuation in self.observed:
                witness = self.witnesses.get(valuation)
                lines.append(f"    outcome {_format_valuation(valuation)}")
                if witness is not None:
                    lines.append(f"      witness: {_format_schedule(witness)}")
            for pattern in self.unreachable:
                lines.append(f"    unreachable: {pattern}")
        for problem in self.problems:
            lines.append(f"    problem: {problem}")
        return "\n".join(lines)


def check_shape(
    shape: LitmusShape,
    tier: str,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ShapeCheck:
    """Exhaustively check one shape on one design tier."""
    if tier not in ALL_TIERS:
        raise ConfigError(f"unknown tier {tier!r}; choose from {ALL_TIERS}")
    tasks = compile_shape(shape)
    bounds = bounds_for_programs([tasks], pus=shape.pus)
    case = Case(
        design=tier,
        tasks=tasks,
        geometry=bound_geometry(bounds),
        checker=True,
        check_invariants=True,
        n_caches=bounds.pus,
    )
    result = explore_case(case, max_nodes=max_nodes, max_counterexamples=1)

    check = ShapeCheck(
        shape=shape.name,
        tier=tier,
        schedules=result.schedules,
        nodes=result.nodes,
        truncated=result.truncated,
    )
    for failing, failure in result.counterexamples:
        check.problems.append(
            f"counterexample ({failure.describe()}) at schedule "
            f"{_format_schedule(failing.script or ())}"
        )
    if result.truncated:
        check.problems.append(
            f"exploration truncated at {result.nodes} nodes — "
            "unreachability cannot be claimed"
        )

    valuations: Dict[Valuation, Tuple[Tuple[str, int], ...]] = {}
    for outcome in result.outcomes:
        valuation = outcome_valuation(shape, outcome)
        if valuation not in valuations:
            valuations[valuation] = result.witnesses.get(outcome, ())
    check.observed = sorted(valuations)
    check.witnesses = valuations

    sequential = sequential_valuation(shape)
    for valuation in check.observed:
        if valuation != sequential:
            check.problems.append(
                f"unexpected outcome {_format_valuation(valuation)} "
                f"(witness: {_format_schedule(valuations[valuation])})"
            )
    if sequential not in valuations:
        check.problems.append(
            f"sequential outcome {_format_valuation(sequential)} never observed"
        )
    for pattern in shape.forbidden:
        hits = [v for v in check.observed if matches(v, pattern)]
        if hits:
            check.problems.append(
                f"forbidden outcome {_format_pattern(pattern)} REACHED: "
                f"{_format_valuation(hits[0])} via "
                f"{_format_schedule(valuations[hits[0]])}"
            )
        elif not result.truncated and not result.counterexamples:
            check.unreachable.append(_format_pattern(pattern))
    return check


@dataclass
class LitmusReport:
    """Everything one corpus run established."""

    shapes: Tuple[str, ...]
    tiers: Tuple[str, ...]
    checks: List[ShapeCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def conformant(self) -> int:
        return sum(1 for check in self.checks if check.ok)

    @property
    def outcomes(self) -> int:
        return sum(len(check.observed) for check in self.checks)

    @property
    def unreachable(self) -> int:
        return sum(len(check.unreachable) for check in self.checks)

    def describe(self, explain: bool = False) -> str:
        lines = [check.describe(explain) for check in self.checks]
        lines.append(
            f"litmus: {len(self.shapes)} shapes x {len(self.tiers)} tiers, "
            f"{self.conformant}/{len(self.checks)} conformant, "
            f"{self.outcomes} allowed outcomes verified, "
            f"{self.unreachable} forbidden outcomes proven unreachable"
        )
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _check_unit(payload: Dict) -> Dict:
    """One (shape, tier) unit. Top-level so it pickles for the pool."""
    shape = LITMUS_SHAPES[payload["shape"]]
    check = check_shape(shape, payload["tier"], max_nodes=payload["max_nodes"])
    data = dataclasses.asdict(check)
    # dict keys must survive JSON-ish transport layers; keep tuples.
    data["witnesses"] = [
        [list(map(list, valuation)), list(map(list, witness))]
        for valuation, witness in check.witnesses.items()
    ]
    data["observed"] = [list(map(list, v)) for v in check.observed]
    return data


def _check_from_dict(data: Dict) -> ShapeCheck:
    observed = [tuple((k, v) for k, v in valuation) for valuation in data["observed"]]
    witnesses = {
        tuple((k, v) for k, v in valuation): tuple(
            (kind, rank) for kind, rank in witness
        )
        for valuation, witness in data["witnesses"]
    }
    return ShapeCheck(
        shape=data["shape"],
        tier=data["tier"],
        schedules=data["schedules"],
        nodes=data["nodes"],
        truncated=data["truncated"],
        observed=observed,
        witnesses=witnesses,
        unreachable=list(data["unreachable"]),
        problems=list(data["problems"]),
    )


def run_litmus(
    shapes: Optional[Sequence[str]] = None,
    tiers: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    log=None,
) -> LitmusReport:
    """Check ``shapes`` (default: the full corpus) on ``tiers`` (default:
    all six design tiers), fanning (shape, tier) units over workers."""
    shapes = tuple(shapes) if shapes else tuple(LITMUS_SHAPES)
    for name in shapes:
        if name not in LITMUS_SHAPES:
            raise ConfigError(
                f"unknown litmus shape {name!r}; "
                f"choose from {sorted(LITMUS_SHAPES)}"
            )
    tiers = tuple(tiers) if tiers else ALL_TIERS
    for tier in tiers:
        if tier not in ALL_TIERS:
            raise ConfigError(f"unknown tier {tier!r}; choose from {ALL_TIERS}")

    payloads = [
        {"shape": name, "tier": tier, "max_nodes": max_nodes}
        for name in shapes
        for tier in tiers
    ]
    if log is not None:
        log(
            f"checking {len(shapes)} shapes x {len(tiers)} tiers "
            f"({len(payloads)} units, {resolve_workers(workers)} workers)"
        )
    results = parallel_map(_check_unit, payloads, workers)
    report = LitmusReport(shapes=shapes, tiers=tiers)
    report.checks = [_check_from_dict(data) for data in results]
    return report


def build_parser():
    """Argument parser for ``python -m repro litmus`` (exposed so
    tools/check_docs.py can validate commands quoted in the docs)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro litmus",
        description="Run the litmus-shape conformance corpus: exhaustive "
        "schedule exploration of every named shape against its "
        "sequential outcome.",
    )
    parser.add_argument(
        "shapes", nargs="*",
        help=f"shape names to run (default: all; known: "
        f"{', '.join(sorted(LITMUS_SHAPES))})",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="run the full corpus (the default when no shapes are named)",
    )
    parser.add_argument(
        "--tier", default="all",
        help="comma-separated design tiers, or 'all' "
        f"(default: all = {','.join(ALL_TIERS)})",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print each observed outcome's witnessing schedule and the "
        "forbidden outcomes proven unreachable",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the shape catalog and exit",
    )
    parser.add_argument(
        "--workers", default=None,
        help="worker processes (default: REPRO_WORKERS or serial; 0 = all CPUs)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=DEFAULT_MAX_NODES,
        help="per-unit node budget before truncation (truncation fails)",
    )
    return parser


def litmus_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro litmus [shape ...] [--tier T] [--explain]``"""
    args = build_parser().parse_args(argv)

    if args.list:
        for name in sorted(LITMUS_SHAPES):
            shape = LITMUS_SHAPES[name]
            print(f"{name:>12}  {shape.title}  [{shape.source}]")
        return 0
    if args.all and args.shapes:
        print("--all and explicit shape names are mutually exclusive")
        return 2
    shapes = tuple(args.shapes) if args.shapes else None
    tiers = (
        None if args.tier == "all"
        else tuple(t for t in args.tier.split(",") if t)
    )
    try:
        report = run_litmus(
            shapes=shapes,
            tiers=tiers,
            workers=args.workers,
            max_nodes=args.max_nodes,
            log=print,
        )
    except ConfigError as error:
        print(f"config error: {error}")
        return 2
    print(report.describe(explain=args.explain))
    return 0 if report.ok else 1
