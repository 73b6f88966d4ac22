"""Unit tests for deterministic capture, replay and shrinking
(repro.replay)."""

import dataclasses
import json

import pytest

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError, ReproError
from repro.faults import FaultPlan
from repro.hier.task import MemOp, TaskProgram
from repro.litmus.shapes import LITMUS_SHAPES, compile_shape
from repro.modelcheck.programs import Bounds, enumerate_programs
from repro.replay import (
    CASE_DESIGNS,
    Case,
    CaseResult,
    FailureCapture,
    _drop_op,
    _shrink_candidates,
    replay_main,
    run_case,
    shrink_case,
)
from repro.workloads.generator import WorkloadSpec, generate_tasks
from repro.workloads.traceprog import TRACE_KERNELS, build_kernel

A = 0x1000


def simple_tasks():
    return (
        TaskProgram(ops=[MemOp.store(A, 7), MemOp.load(A)]),
        TaskProgram(ops=[MemOp.load(A), MemOp.store(A + 4, 9)]),
    )


class TestCase:
    def test_rejects_unknown_design(self):
        with pytest.raises(ReproError):
            Case(design="mystery")

    def test_round_trips_through_json_dict(self):
        case = Case(
            design="ecs",
            seed=42,
            tasks=simple_tasks(),
            geometry=CacheGeometry(size_bytes=256, associativity=2, line_size=16),
            fault_plan=FaultPlan(seed=42, squash_rate=0.1, squash_at=((1, 0),)),
        )
        rebuilt = Case.from_dict(case.to_dict())
        assert rebuilt == case

    def test_op_dependencies_survive_round_trip(self):
        task = TaskProgram(
            ops=[
                MemOp.load(A),
                MemOp.store(A + 4, 0, value_deps=(0,)),
            ]
        )
        case = Case(tasks=(task,))
        rebuilt = Case.from_dict(case.to_dict())
        assert rebuilt.tasks[0].ops[1].value_deps == (0,)


class TestRunCase:
    @pytest.mark.parametrize("design", CASE_DESIGNS)
    def test_clean_case_passes_on_every_design(self, design):
        result = run_case(Case(design=design, seed=1, tasks=simple_tasks()))
        assert result.ok, result.describe()

    def test_is_deterministic(self):
        case = Case(
            design="final",
            seed=9,
            tasks=simple_tasks(),
            fault_plan=FaultPlan(seed=9, squash_at=((1, 1),)),
        )
        first = run_case(case)
        second = run_case(case)
        assert first.ok and second.ok
        assert first.report.load_values == second.report.load_values

    def test_passing_case_has_no_signature(self):
        result = run_case(Case(tasks=simple_tasks()))
        assert result.signature is None


class TestFailureCapture:
    def failing_result(self):
        return CaseResult(
            ok=False,
            error_kind="invariant",
            error_type="InvariantViolation",
            error_message="[x-unique] two suppliers",
            invariant={"invariant": "x-unique", "message": "two suppliers"},
        )

    def test_refuses_passing_case(self):
        with pytest.raises(ReproError):
            FailureCapture.from_result(Case(), CaseResult(ok=True))

    def test_save_load_round_trip(self, tmp_path):
        case = Case(design="rl", seed=3, tasks=simple_tasks())
        capture = FailureCapture.from_result(case, self.failing_result())
        path = str(tmp_path / "capture.json")
        capture.save(path)
        loaded = FailureCapture.load(path)
        assert loaded.case == case
        assert loaded.signature == ("invariant", "x-unique")
        assert loaded.failure["message"] == "[x-unique] two suppliers"

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ReproError):
            FailureCapture.from_dict({"format": 999, "case": {}, "failure": {}})


#: Every producer of tasks a capture may carry, as one task list each.
TASK_SOURCES = {
    "generator": lambda: generate_tasks(
        WorkloadSpec(name="roundtrip", n_tasks=12, mispredict_rate=0.3, seed=5)
    ),
    "litmus": lambda: [
        task for shape in LITMUS_SHAPES.values() for task in compile_shape(shape)
    ],
    "enumerator": lambda: [
        task
        for program in enumerate_programs(Bounds(pus=2, ops=2, lines=1))
        for task in program
    ],
    "kernels": lambda: [
        task for name in TRACE_KERNELS for task in build_kernel(name)
    ],
}


@pytest.mark.parametrize("source", sorted(TASK_SOURCES))
def test_capture_round_trips_tasks_field_for_field(source):
    tasks = TASK_SOURCES[source]()
    case = Case(tasks=tuple(tasks))
    capture = FailureCapture.from_result(case, TestFailureCapture().failing_result())
    loaded = FailureCapture.from_dict(json.loads(json.dumps(capture.to_dict())))
    for original, rebuilt in zip(case.tasks, loaded.case.tasks, strict=True):
        assert rebuilt.name == original.name
        assert rebuilt.mispredicted == original.mispredicted
        assert rebuilt.ops == original.ops


def _valid_capture():
    case = Case(
        tasks=simple_tasks(),
        n_caches=2,
        script=(("op", 1), ("op", 0)),
    )
    return FailureCapture.from_result(
        case, TestFailureCapture().failing_result()
    ).to_dict()


def _no_addr(data):
    data["case"]["tasks"][0]["ops"][1] = ["L"]


def _bad_kind(data):
    data["case"]["tasks"][0]["ops"][1] = ["lod", A, 4]


def _unknown_action(data):
    data["case"]["script"].append(["jump", 0])


def _string_ops(data):
    data["case"]["tasks"][1]["ops"] = "LS"


def _short_action(data):
    data["case"]["script"].append(["op"])


def _unknown_geometry_key(data):
    data["case"]["geometry"]["banks"] = 2


def _unknown_schedule(data):
    del data["case"]["script"]
    data["case"]["schedule"] = "bogus"


@pytest.mark.parametrize(
    "corrupt",
    [_no_addr, _bad_kind, _unknown_action, _string_ops, _short_action,
     _unknown_geometry_key, _unknown_schedule],
)
def test_replay_cli_exits_two_on_an_invalid_capture(corrupt, tmp_path, capsys):
    data = _valid_capture()
    corrupt(data)
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(data))
    assert replay_main([str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("not a valid capture file")


def test_replay_cli_accepts_the_uncorrupted_capture(tmp_path, capsys):
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(_valid_capture()))
    # The case passes in this build, so it does not reproduce: exit 1.
    assert replay_main([str(path)]) == 1
    assert "NOT REPRODUCED" in capsys.readouterr().out


def test_replay_cli_accepts_a_scripted_capture_naming_the_script_schedule(
    tmp_path, capsys
):
    """Scripted captures used to carry ``"schedule": "script"``; the
    script decides every action, so the field is not checked."""
    data = _valid_capture()
    data["case"]["schedule"] = "script"
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(data))
    assert replay_main([str(path)]) == 1
    assert "NOT REPRODUCED" in capsys.readouterr().out


def test_capture_with_a_retired_case_key_loads_and_replays(tmp_path, capsys):
    """Captures written before a case field was retired still carry its
    key, as the model checker's captures carry the per-access audit
    switch. They still load, and a failing one still reproduces."""
    case = Case(
        tasks=simple_tasks(),
        n_caches=2,
        script=(("op", 1), ("op", 0)),
        mutation="no_violation_squash",
    )
    result = run_case(case)
    assert result.signature == ("oracle", "mismatch")
    data = FailureCapture.from_result(case, result).to_dict()
    data["case"]["check_invariants"] = True
    assert FailureCapture.from_dict(data).case == case
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(data))
    assert replay_main([str(path)]) == 0
    assert "reproduced: oracle mismatch" in capsys.readouterr().out


def test_capture_with_the_retired_squash_probability_key(tmp_path, capsys):
    """Captures written before random squashes moved onto the fault plan
    carry ``squash_probability``. At 0.0 it asked for nothing, so the
    capture loads as the case without it; any other value drew from
    the driver's own random stream, which no fault plan replays."""
    data = _valid_capture()
    del data["case"]["script"]
    case = FailureCapture.from_dict(data).case
    data["case"]["squash_probability"] = 0.0
    assert FailureCapture.from_dict(data).case == case
    data["case"]["squash_probability"] = 0.1
    with pytest.raises(ConfigError, match=r"fault_plan\.squash_rate"):
        FailureCapture.from_dict(data)
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(data))
    assert replay_main([str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("not a valid capture file")
    assert "squash_probability=0.1" in lines[0]


@pytest.mark.parametrize(
    "misspell, key",
    [
        (lambda case: case.update(squash_probabilty=0.2), "squash_probabilty"),
        (lambda case: case["fault_plan"].update(squash_rat=0.1), "squash_rat"),
    ],
    ids=["case-key", "fault-plan-key"],
)
def test_capture_with_a_misspelled_key_is_refused(misspell, key, tmp_path, capsys):
    """A key no field reads would load as that field's default and
    replay a different run, so it is refused by name: a misspelled case
    key or fault-plan key makes an invalid capture (exit 2)."""
    data = _valid_capture()
    del data["case"]["script"]
    misspell(data["case"])
    with pytest.raises(ConfigError, match=key):
        FailureCapture.from_dict(data)
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(data))
    assert replay_main([str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("not a valid capture file")
    assert key in lines[0]


class TestShrink:
    """Shrink mechanics on the pure helpers; the full capture-shrink-
    replay loop on a live protocol bug is exercised in test_checker.py."""

    def test_shrink_requires_a_failing_case(self):
        with pytest.raises(ReproError):
            shrink_case(Case(tasks=simple_tasks()))

    def test_drop_op_reindexes_dependencies(self):
        task = TaskProgram(
            ops=[
                MemOp.load(A),
                MemOp.load(A + 4),
                MemOp.store(A + 8, 0, value_deps=(0, 1)),
            ]
        )
        trimmed = _drop_op(task, 0)
        # Op 0 is gone: the dependency on it vanishes and the dependency
        # on old op 1 (now op 0) shifts down.
        assert len(trimmed.ops) == 2
        assert trimmed.ops[1].value_deps == (0,)

    def test_candidates_cover_tasks_ops_and_faults(self):
        case = Case(
            tasks=simple_tasks(),
            fault_plan=FaultPlan(squash_rate=0.1),
        )
        labels = [label for label, _ in _shrink_candidates(case)]
        assert "drop task 1" in labels
        assert any(label.startswith("drop task 0 op") for label in labels)
        assert "weaken faults" in labels

    def test_dropping_a_task_shifts_fault_plan_ranks(self):
        case = Case(
            tasks=simple_tasks() + simple_tasks(),
            fault_plan=FaultPlan(squash_at=((1, 0), (3, 1))),
        )
        by_label = dict(_shrink_candidates(case))
        shrunk = by_label["drop task 1"]
        assert len(shrunk.tasks) == 3
        assert shrunk.fault_plan.squash_at == ((2, 1),)


class TestScriptedCases:
    """Cases with an explicit schedule script (model-checker captures)."""

    def _scripted(self, script, **overrides):
        params = dict(
            design="final",
            tasks=simple_tasks(),
            n_caches=2,
            script=tuple(script),
        )
        params.update(overrides)
        return Case(**params)

    def test_script_and_mutation_round_trip(self):
        case = self._scripted(
            [("op", 0), ("op", 1)], mutation="no_violation_squash"
        )
        rebuilt = Case.from_dict(case.to_dict())
        assert rebuilt == case
        assert "script[2]" in case.describe()
        assert "no_violation_squash" in case.describe()

    def test_clean_scripted_case_passes(self):
        result = run_case(self._scripted([("op", 1), ("op", 0)]))
        assert result.ok, result.describe()

    def test_scripted_replay_is_deterministic(self):
        case = self._scripted([("op", 1), ("op", 0)])
        assert (
            run_case(case).report.load_values
            == run_case(case).report.load_values
        )

    def test_candidates_drop_script_actions(self):
        case = self._scripted([("op", 0), ("op", 1), ("commit", 0)])
        by_label = dict(_shrink_candidates(case))
        shrunk = by_label["drop script action 1"]
        assert shrunk.script == (("op", 0), ("commit", 0))

    def test_rejects_faults_the_script_would_not_apply(self):
        with pytest.raises(ReproError, match="scripted case"):
            self._scripted([("op", 0)], fault_plan=FaultPlan(squash_rate=0.5))
        # A seeded plan that injects nothing is still a no-op.
        self._scripted([("op", 0)], fault_plan=FaultPlan(seed=3))

    def test_dropping_a_task_renumbers_script_ranks(self):
        case = self._scripted([("op", 0), ("op", 1), ("commit", 0)])
        by_label = dict(_shrink_candidates(case))
        shrunk = by_label["drop task 0"]
        # Rank 0's actions vanish; rank 1 becomes rank 0.
        assert shrunk.script == (("op", 0),)
