"""Deterministic failure capture, replay and shrinking (``repro.replay``).

When a run fails — the invariant checker raises, the driver deadlocks,
or the sequential oracle disagrees with the committed execution — the
interesting artifact is not the stack trace but the *inputs*: design
tier, geometry, seed, task programs and fault plan. Everything else in
this repository is deterministic given those, so a
:class:`FailureCapture` holding exactly that data replays the failure
byte-for-byte, on any machine, with ``python -m repro replay``.

The second half is greedy shrinking: drop whole tasks, drop single
operations, weaken the fault plan — accepting each mutation only if the
shrunken case still fails *with the same signature* (same invariant
name, same error class, or still-mismatching oracle). Minimal
reproducers are what turn a 16-task fuzzing hit into a three-line bug
report.

The unit of work is a :class:`Case`: one self-contained functional run.
``tools/stress.py`` builds Cases for its sweeps and saves a capture on
the first failure; the property tests use :func:`run_case` directly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.config import ARBConfig, CacheGeometry, SVCConfig
from repro.common.errors import (
    ConfigError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.faults import FaultPlan
from repro.hier.driver import DriverReport, SpeculativeExecutionDriver
from repro.hier.task import TaskProgram
from repro.oracle.sequential import SequentialOracle, verify_run
from repro.svc.designs import DESIGNS, design_config
from repro.workloads.traceio import decode_task, encode_task

#: Format 2 carries each task as its trace record (repro.workloads.traceio).
CAPTURE_FORMAT = 2

#: Designs a Case can name: the paper's six SVC tiers plus the ARB.
CASE_DESIGNS = tuple(DESIGNS) + ("arb",)

#: Case keys that older captures carry for a field since retired: they
#: load and are ignored (``squash_probability`` only at 0.0). Any other
#: key no field reads is refused.
RETIRED_CASE_KEYS = ("check_invariants", "squash_probability")


# -- the case ----------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One self-contained functional run: everything needed to rebuild
    the system and drive it deterministically."""

    design: str = "final"
    seed: int = 0
    tasks: Tuple[TaskProgram, ...] = ()
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    schedule: str = "random"
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    checker: bool = True
    arb_rows: int = 32
    #: Caches/PUs to build (ARB: stages - 1). The hier driver dispatches
    #: over however many units the system reports, so this also bounds
    #: concurrency.
    n_caches: int = 4
    #: An explicit schedule from repro.modelcheck: a tuple of
    #: ("op"|"commit", rank) actions the driver replays with
    #: ``run_script`` instead of choosing them by ``schedule``.
    script: Optional[Tuple[Tuple[str, int], ...]] = None
    #: Name of a repro.modelcheck.mutations entry applied to the system
    #: after construction — how kill-switch counterexamples stay
    #: replayable from their capture file alone.
    mutation: Optional[str] = None
    #: Record telemetry (spans + metrics) during the replay. Serialized
    #: only when True, so existing capture files stay byte-identical.
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.design not in CASE_DESIGNS:
            raise ReproError(
                f"unknown design {self.design!r}; choose from {CASE_DESIGNS}"
            )
        if self.script is None:
            if self.schedule not in SpeculativeExecutionDriver.SCHEDULES:
                raise ReproError(
                    f"unknown schedule {self.schedule!r}; choose from "
                    f"{SpeculativeExecutionDriver.SCHEDULES}"
                )
            return
        for action in self.script:
            if not (
                len(action) == 2
                and action[0] in ("op", "commit")
                and type(action[1]) is int
                and action[1] >= 0
            ):
                raise ReproError(
                    f"script action {list(action)!r} is not an "
                    "['op' or 'commit', rank] pair"
                )
        # A script fixes every action, so nothing would apply a plan.
        if not self.fault_plan.is_noop:
            raise ReproError("a scripted case takes no fault plan")

    def to_dict(self) -> Dict:
        data = {
            "design": self.design,
            "seed": self.seed,
            "tasks": [encode_task(t) for t in self.tasks],
            "geometry": {
                "size_bytes": self.geometry.size_bytes,
                "associativity": self.geometry.associativity,
                "line_size": self.geometry.line_size,
                "versioning_block_size": self.geometry.versioning_block_size,
            },
            "schedule": self.schedule,
            "fault_plan": self.fault_plan.to_dict(),
            "checker": self.checker,
            "arb_rows": self.arb_rows,
            "n_caches": self.n_caches,
        }
        if self.script is not None:
            data["script"] = [[kind, rank] for kind, rank in self.script]
        if self.mutation is not None:
            data["mutation"] = self.mutation
        if self.telemetry:
            data["telemetry"] = True
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Case":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known - set(RETIRED_CASE_KEYS))
        if unknown:
            raise ConfigError(f"unknown case key(s): {', '.join(unknown)}")
        retired_squashes = data.get("squash_probability", 0.0)
        if retired_squashes:
            # The retired knob drew from the driver's own random stream,
            # so no fault plan replays the run it captured.
            raise ConfigError(
                f"retired case key squash_probability={retired_squashes}: "
                "random squashes are now fault_plan.squash_rate, on "
                "another random stream, so this capture cannot replay"
            )
        tasks = []
        for rank, record in enumerate(data.get("tasks", [])):
            try:
                tasks.append(decode_task(record))
            except ConfigError as exc:
                raise ConfigError(f"task {rank}: {exc}") from exc
        return cls(
            design=data["design"],
            seed=data.get("seed", 0),
            tasks=tuple(tasks),
            geometry=CacheGeometry(**data.get("geometry", {})),
            schedule=data.get("schedule", "random"),
            fault_plan=FaultPlan.from_dict(data.get("fault_plan", {})),
            checker=data.get("checker", True),
            arb_rows=data.get("arb_rows", 32),
            n_caches=data.get("n_caches", 4),
            script=(
                tuple(map(tuple, data["script"]))
                if data.get("script") is not None
                else None
            ),
            mutation=data.get("mutation"),
            telemetry=data.get("telemetry", False),
        )

    def describe(self) -> str:
        ops = sum(t.memory_op_count for t in self.tasks)
        schedule = (
            f"script[{len(self.script)}]" if self.script is not None
            else self.schedule
        )
        mutated = f", mutation={self.mutation}" if self.mutation else ""
        return (
            f"Case(design={self.design}, seed={self.seed}, "
            f"{len(self.tasks)} tasks / {ops} memory ops, "
            f"schedule={schedule}{mutated}, {self.fault_plan.describe()})"
        )


def build_system(case: Case):
    """Construct the memory system a Case describes, with the invariant
    checker bound when the case asks for it."""
    checker = None
    if case.checker:
        from repro.check import InvariantChecker

        checker = InvariantChecker()
    telemetry = None
    if case.telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(label=f"replay:{case.design}")
    if case.design == "arb":
        from repro.arb.system import ARBSystem

        config = ARBConfig(
            n_rows=case.arb_rows,
            n_stages=case.n_caches + 1,
            cache_geometry=CacheGeometry(
                size_bytes=256, associativity=1, line_size=16
            ),
        )
        system = ARBSystem(config, checker=checker, telemetry=telemetry)
    else:
        from repro.svc.system import SVCSystem

        config = design_config(
            case.design,
            SVCConfig(geometry=case.geometry, n_caches=case.n_caches),
        )
        system = SVCSystem(config, checker=checker, telemetry=telemetry)
    if case.mutation is not None:
        from repro.modelcheck.mutations import MUTATIONS

        MUTATIONS[case.mutation].apply(system)
    return system


@dataclass
class CaseResult:
    """What one Case execution produced.

    A failure has a *signature* — ``("invariant", name)``,
    ``("protocol", type)``, ``("simulation", type)`` or
    ``("oracle", "mismatch")`` — which shrinking uses to ensure a
    reduced case still fails the same way, not merely *some* way.
    """

    ok: bool
    problems: List[str] = field(default_factory=list)
    error_kind: Optional[str] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    invariant: Optional[Dict] = None
    report: Optional[DriverReport] = None
    #: Telemetry payload when the Case asked for it — populated on every
    #: outcome, so a failing replay still yields a trace of the run up
    #: to (and including) the violation instant.
    telemetry: Optional[Dict] = None

    @property
    def signature(self) -> Optional[Tuple[str, str]]:
        if self.ok:
            return None
        if self.error_kind == "invariant":
            return ("invariant", self.invariant["invariant"])
        if self.error_kind is not None:
            return (self.error_kind, self.error_type)
        return ("oracle", "mismatch")

    def describe(self) -> str:
        if self.ok:
            return "ok"
        if self.error_kind is not None:
            return f"{self.error_kind} failure: {self.error_message}"
        return "oracle mismatch: " + "; ".join(self.problems)


def run_case(case: Case) -> CaseResult:
    """Execute a Case start to finish and classify the outcome.

    Structured failures (invariant violations, protocol errors,
    simulation deadlocks) are caught and wrapped; a passing run is still
    compared against the sequential oracle — the end-to-end correctness
    obligation the checker complements, not replaces.
    """
    system = build_system(case)
    tasks = list(case.tasks)

    def payload() -> Optional[Dict]:
        tel = getattr(system, "telemetry", None)
        return tel.snapshot() if tel is not None else None

    try:
        if case.script is not None:
            report = SpeculativeExecutionDriver(system, tasks).run_script(
                case.script
            )
        else:
            driver = SpeculativeExecutionDriver(
                system,
                tasks,
                seed=case.seed,
                schedule=case.schedule,
                fault_plan=None if case.fault_plan.is_noop else case.fault_plan,
            )
            report = driver.run()
    except InvariantViolation as exc:
        return CaseResult(
            ok=False,
            error_kind="invariant",
            error_type=type(exc).__name__,
            error_message=str(exc),
            invariant=exc.to_dict(),
            telemetry=payload(),
        )
    except SimulationError as exc:
        return CaseResult(
            ok=False,
            error_kind="simulation",
            error_type=type(exc).__name__,
            error_message=str(exc),
            telemetry=payload(),
        )
    except ProtocolError as exc:
        return CaseResult(
            ok=False,
            error_kind="protocol",
            error_type=type(exc).__name__,
            error_message=str(exc),
            telemetry=payload(),
        )
    oracle = SequentialOracle().run(tasks)
    problems = verify_run(report, oracle, system.memory)
    return CaseResult(
        ok=not problems, problems=problems, report=report, telemetry=payload()
    )


# -- capture -----------------------------------------------------------------


@dataclass
class FailureCapture:
    """A failing Case plus what went wrong — the self-contained JSON
    artifact ``python -m repro replay`` consumes."""

    case: Case
    failure: Dict

    @classmethod
    def from_result(cls, case: Case, result: CaseResult) -> "FailureCapture":
        if result.ok:
            raise ReproError("cannot capture a passing case")
        failure: Dict = {"signature": list(result.signature)}
        if result.error_kind is not None:
            failure.update(
                {
                    "kind": result.error_kind,
                    "type": result.error_type,
                    "message": result.error_message,
                }
            )
            if result.invariant is not None:
                failure["invariant"] = result.invariant
        else:
            failure.update({"kind": "oracle", "problems": result.problems})
        return cls(case=case, failure=failure)

    def to_dict(self) -> Dict:
        return {
            "format": CAPTURE_FORMAT,
            "case": self.case.to_dict(),
            "failure": self.failure,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FailureCapture":
        """Parse a capture; anything malformed raises one ReproError."""
        try:
            if data.get("format") != CAPTURE_FORMAT:
                raise ReproError(
                    f"unsupported capture format {data.get('format')!r} "
                    f"(this build reads format {CAPTURE_FORMAT})"
                )
            case = Case.from_dict(data["case"])
            signature = data["failure"]["signature"]
            if len(signature) != 2:
                raise ReproError(
                    f"failure signature must be [kind, name], got {signature!r}"
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed capture ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(case=case, failure=data["failure"])

    def save(self, path: str) -> str:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FailureCapture":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    @property
    def signature(self) -> Tuple[str, str]:
        kind, name = self.failure["signature"]
        return (kind, name)


# -- shrinking ---------------------------------------------------------------


def _drop_op(task: TaskProgram, index: int) -> TaskProgram:
    """Remove the op at full-list ``index``, reindexing later ops'
    dependency references (which are full-list positions)."""

    def fix(deps: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(d - 1 if d > index else d for d in deps if d != index)

    ops = [
        dataclasses.replace(
            op, depends_on=fix(op.depends_on), value_deps=fix(op.value_deps)
        )
        for i, op in enumerate(task.ops)
        if i != index
    ]
    return TaskProgram(ops=ops, name=task.name, mispredicted=task.mispredicted)


def _memory_op_index(task: TaskProgram, full_index: int) -> Optional[int]:
    """Position of the op at ``full_index`` among the task's memory ops
    (the index space ``FaultPlan.squash_at`` uses), or None for compute."""
    position = 0
    for i, op in enumerate(task.ops):
        if op.kind == "compute":
            continue
        if i == full_index:
            return position
        position += 1
    return None


def _script_drop_rank(
    script: Optional[Tuple[Tuple[str, int], ...]], rank: int
) -> Optional[Tuple[Tuple[str, int], ...]]:
    """A schedule script with ``rank``'s actions removed and later ranks
    renumbered to match a task list that dropped ``rank``."""
    if script is None:
        return None
    return tuple(
        (kind, r - 1 if r > rank else r) for kind, r in script if r != rank
    )


def _shrink_candidates(case: Case) -> Iterator[Tuple[str, Case]]:
    """Strictly smaller variants of ``case``, most aggressive first."""
    # 1. Drop whole tasks, youngest first (later tasks are most often
    #    passengers; ranks stay contiguous, plan references shift).
    for rank in range(len(case.tasks) - 1, -1, -1):
        tasks = case.tasks[:rank] + case.tasks[rank + 1 :]
        yield (
            f"drop task {rank}",
            dataclasses.replace(
                case,
                tasks=tasks,
                fault_plan=case.fault_plan.drop_rank(rank),
                script=_script_drop_rank(case.script, rank),
            ),
        )
    # 2. Drop single ops, longest tasks first.
    order = sorted(
        range(len(case.tasks)), key=lambda r: -len(case.tasks[r].ops)
    )
    for rank in order:
        task = case.tasks[rank]
        for index in range(len(task.ops) - 1, -1, -1):
            plan = case.fault_plan
            mem_index = _memory_op_index(task, index)
            if mem_index is not None and plan.squash_at:
                plan = dataclasses.replace(
                    plan,
                    squash_at=tuple(
                        (r, op - 1 if r == rank and op > mem_index else op)
                        for r, op in plan.squash_at
                        if not (r == rank and op == mem_index)
                    ),
                )
            tasks = (
                case.tasks[:rank]
                + (_drop_op(task, index),)
                + case.tasks[rank + 1 :]
            )
            yield (
                f"drop task {rank} op {index}",
                dataclasses.replace(case, tasks=tasks, fault_plan=plan),
            )
    # 3. Drop single schedule actions (scripted cases replay leniently,
    #    so a script that no longer matches the ops still runs; the
    #    deterministic oldest-first completion picks up the slack).
    if case.script is not None:
        for index in range(len(case.script) - 1, -1, -1):
            script = case.script[:index] + case.script[index + 1 :]
            yield (
                f"drop script action {index}",
                dataclasses.replace(case, script=script),
            )
    # 4. Weaken the fault plan one dimension at a time.
    for plan in case.fault_plan.weakenings():
        yield ("weaken faults", dataclasses.replace(case, fault_plan=plan))


def shrink_case(
    case: Case,
    signature: Optional[Tuple[str, str]] = None,
    max_attempts: int = 2000,
    log=None,
) -> Tuple[Case, CaseResult]:
    """Greedily minimize a failing case.

    Each round tries every candidate mutation and restarts from the
    first one that still fails with ``signature`` (defaults to the
    case's own failure signature); stops when no mutation survives.
    Returns the minimal case and its result.
    """
    result = run_case(case)
    if result.ok:
        raise ReproError("shrink_case: the case does not fail")
    if signature is None:
        signature = result.signature
    elif result.signature != tuple(signature):
        raise ReproError(
            f"shrink_case: case fails with {result.signature}, "
            f"not the requested {tuple(signature)}"
        )
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for label, candidate in _shrink_candidates(case):
            attempts += 1
            if attempts >= max_attempts:
                break
            candidate_result = run_case(candidate)
            if not candidate_result.ok and candidate_result.signature == signature:
                if log is not None:
                    log(f"shrink: {label} -> {candidate.describe()}")
                case, result = candidate, candidate_result
                improved = True
                break
    return case, result


# -- CLI ---------------------------------------------------------------------


def build_parser():
    """Argument parser for ``python -m repro replay`` (exposed so
    tools/check_docs.py can validate commands quoted in the docs)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Re-run a captured failure deterministically and "
        "optionally shrink it to a minimal reproducer.",
    )
    parser.add_argument("capture", help="path to a FailureCapture JSON file")
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="greedily minimize the case (drop tasks, ops, faults) while "
        "it keeps failing with the same signature",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the shrunken capture "
        "(default: <capture>.min.json)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="re-run with telemetry recording and write Chrome-trace + "
        "metrics JSON artifacts into DIR",
    )
    return parser


def replay_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro replay <capture.json> [--shrink] [--output F]``"""
    args = build_parser().parse_args(argv)

    try:
        capture = FailureCapture.load(args.capture)
    except OSError as exc:
        print(f"cannot read capture: {exc}")
        return 2
    except (ValueError, ReproError) as exc:  # bad JSON or a bad capture
        print(f"not a valid capture file: {exc}")
        return 2
    print(f"replaying {capture.case.describe()}")
    print(f"expected failure: {capture.failure['signature']}")
    case = capture.case
    if args.trace is not None:
        case = dataclasses.replace(case, telemetry=True)
    result = run_case(case)
    if args.trace is not None and result.telemetry is not None:
        from repro.telemetry.exporters import write_chrome_trace, write_metrics_json

        os.makedirs(args.trace, exist_ok=True)
        base = os.path.splitext(os.path.basename(args.capture))[0]
        meta = {"capture": args.capture, "design": case.design}
        trace_path = write_chrome_trace(
            os.path.join(args.trace, f"{base}.trace.json"),
            [result.telemetry],
            meta,
        )
        metrics_path = write_metrics_json(
            os.path.join(args.trace, f"{base}.metrics.json"),
            [result.telemetry],
            meta,
        )
        print(f"trace:   {trace_path}")
        print(f"metrics: {metrics_path}")
    if result.ok:
        print("NOT REPRODUCED: the case passes in this build")
        return 1
    print(f"reproduced: {result.describe()}")
    if result.signature != capture.signature:
        print(
            f"note: signature changed ({list(result.signature)} vs captured "
            f"{list(capture.signature)})"
        )

    if not args.shrink:
        return 0

    shrunk, shrunk_result = shrink_case(
        capture.case, signature=result.signature, log=print
    )
    print(f"minimal reproducer: {shrunk.describe()}")
    print(f"still fails: {shrunk_result.describe()}")
    output = args.output
    if output is None:
        base = args.capture[:-5] if args.capture.endswith(".json") else args.capture
        output = f"{base}.min.json"
    FailureCapture.from_result(shrunk, shrunk_result).save(output)
    print(f"wrote {output}")
    return 0


__all__ = [
    "CASE_DESIGNS",
    "Case",
    "CaseResult",
    "FailureCapture",
    "build_system",
    "replay_main",
    "run_case",
    "shrink_case",
]
