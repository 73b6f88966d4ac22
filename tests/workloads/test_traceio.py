"""Trace serialization round-trips and rejects malformed input."""

import re

import pytest

from repro.common.errors import ConfigError
from repro.hier.task import MemOp, TaskProgram
from repro.workloads.generator import WorkloadSpec, generate_tasks
from repro.workloads.traceio import dump_tasks, load_tasks


def test_round_trip_hand_built(tmp_path):
    tasks = [
        TaskProgram(
            ops=[
                MemOp.load(0x100),
                MemOp.compute(latency=3, depends_on=(0,)),
                MemOp.store(0x104, 7, value_deps=(0,), depends_on=(1,)),
            ],
            name="t0",
        ),
        TaskProgram(ops=[], name=None, mispredicted=True),
    ]
    path = tmp_path / "trace.jsonl"
    dump_tasks(tasks, path)
    loaded = load_tasks(path)
    assert len(loaded) == 2
    assert loaded[0].ops == tasks[0].ops
    assert loaded[0].name == "t0"
    assert loaded[1].mispredicted


def test_round_trip_generated_workload(tmp_path):
    tasks = generate_tasks(WorkloadSpec(name="io", n_tasks=20, seed=3))
    path = tmp_path / "gen.jsonl"
    dump_tasks(tasks, path)
    loaded = load_tasks(path)
    assert [t.ops for t in loaded] == [t.ops for t in tasks]


def test_loaded_trace_drives_a_system(tmp_path):
    from conftest import make_svc
    from repro.hier.driver import SpeculativeExecutionDriver
    from repro.oracle.sequential import SequentialOracle, verify_run

    tasks = [
        TaskProgram(ops=[MemOp.store(0x100, 5)]),
        TaskProgram(ops=[MemOp.load(0x100),
                         MemOp.store(0x104, 1, value_deps=(0,))]),
    ]
    path = tmp_path / "drive.jsonl"
    dump_tasks(tasks, path)
    loaded = load_tasks(path)
    system = make_svc("final")
    report = SpeculativeExecutionDriver(system, loaded, seed=0).run()
    oracle = SequentialOracle().run(loaded)
    assert verify_run(report, oracle, system.memory) == []
    assert system.memory.read_int(0x104, 4) == 6


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ConfigError, match="bad JSON"):
        load_tasks(path)


def test_unknown_op_code_rejected(tmp_path):
    path = tmp_path / "bad2.jsonl"
    path.write_text('{"ops": [["Z", 1, 2]]}\n')
    with pytest.raises(ConfigError, match="unknown op code"):
        load_tasks(path)


def test_missing_ops_rejected(tmp_path):
    path = tmp_path / "bad3.jsonl"
    path.write_text('{"name": "x"}\n')
    with pytest.raises(ConfigError, match="malformed"):
        load_tasks(path)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text('\n{"ops": []}\n\n')
    assert len(load_tasks(path)) == 1


# -- strict decode: every malformed-op shape is rejected with the line -------


def _reject(tmp_path, op_json, match):
    path = tmp_path / "reject.jsonl"
    path.write_text('{"ops": [%s]}\n' % op_json)
    with pytest.raises(ConfigError, match=match):
        load_tasks(path)


def test_load_deps_must_be_a_list(tmp_path):
    _reject(tmp_path, '["L", 0, 4, 7]', "load deps must be a list")


def test_load_deps_must_hold_ints(tmp_path):
    _reject(tmp_path, '["L", 0, 4, ["a"]]', "load deps must contain only ints")
    _reject(tmp_path, '["L", 0, 4, [true]]', "load deps must contain only ints")


def test_load_arity_checked(tmp_path):
    _reject(tmp_path, '["L", 0]', "load op takes")
    _reject(tmp_path, '["L", 0, 4, [], []]', "load op takes")


def test_load_fields_must_be_ints(tmp_path):
    _reject(tmp_path, '["L", "0x100", 4]', "load addr must be an int")
    _reject(tmp_path, '["L", 0, true]', "load size must be an int")


def test_store_arity_checked(tmp_path):
    _reject(tmp_path, '["S", 0, 4]', "store op takes")
    _reject(tmp_path, '["S", 0, 4, 1, [], [], []]', "store op takes")


def test_store_fields_must_be_ints(tmp_path):
    _reject(tmp_path, '["S", null, 4, 1]', "store addr must be an int")
    _reject(tmp_path, '["S", 0, 4, "1"]', "store value must be an int")


def test_store_dep_lists_checked(tmp_path):
    _reject(tmp_path, '["S", 0, 4, 1, 5]', "store value deps must be a list")
    _reject(tmp_path, '["S", 0, 4, 1, [], 3]', "store deps must be a list")
    _reject(tmp_path, '["S", 0, 4, 1, [0.5]]', "store value deps must contain")


def test_compute_arity_and_types_checked(tmp_path):
    _reject(tmp_path, '["C", 1]', "compute op takes")
    _reject(tmp_path, '["C", 1, [], []]', "compute op takes")
    _reject(tmp_path, '["C", 1, 2]', "compute deps must be a list")
    _reject(tmp_path, '["C", "fast", []]', "compute latency must be an int")


def test_op_must_be_a_nonempty_list(tmp_path):
    _reject(tmp_path, '"L"', "op must be a non-empty list")
    _reject(tmp_path, "[]", "op must be a non-empty list")


def test_rejection_names_the_line(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"ops": []}\n{"ops": [["L", 0, 4, false]]}\n')
    with pytest.raises(ConfigError, match="trace line 2"):
        load_tasks(path)


def test_non_object_record_rejected(tmp_path):
    path = tmp_path / "array.jsonl"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="must be an object"):
        load_tasks(path)


_NOT_EARLIER = "which is not an earlier op"
_NOT_A_LOAD = "which is not an earlier load"


@pytest.mark.parametrize(
    "ops_json, message",
    [
        pytest.param(
            '["C", 1, [0]]',
            f"op 0 depends on op 0, {_NOT_EARLIER}",
            id="dep-on-itself",
        ),
        pytest.param(
            '["C", 1, []], ["L", 0, 4, [2]]',
            f"op 1 depends on op 2, {_NOT_EARLIER}",
            id="dep-on-later-op",
        ),
        pytest.param(
            '["C", 1, []], ["C", 1, [-1]]',
            f"op 1 depends on op -1, {_NOT_EARLIER}",
            id="negative-dep",
        ),
        pytest.param(
            '["L", 0, 4], ["S", 4, 4, 1, [], [1]]',
            f"op 1 depends on op 1, {_NOT_EARLIER}",
            id="store-dep-on-itself",
        ),
        pytest.param(
            '["S", 0, 4, 1, [0]]',
            f"op 0 takes a value from op 0, {_NOT_A_LOAD}",
            id="value-dep-on-itself",
        ),
        pytest.param(
            '["S", 0, 4, 1, [1]], ["L", 0, 4]',
            f"op 0 takes a value from op 1, {_NOT_A_LOAD}",
            id="value-dep-on-later-load",
        ),
        pytest.param(
            '["L", 0, 4], ["S", 0, 4, 1, [-1]]',
            f"op 1 takes a value from op -1, {_NOT_A_LOAD}",
            id="negative-value-dep",
        ),
        pytest.param(
            '["C", 1, []], ["S", 0, 4, 1, [0]]',
            f"op 1 takes a value from op 0, {_NOT_A_LOAD}",
            id="value-dep-on-compute",
        ),
        pytest.param(
            '["S", 0, 4, 1], ["S", 4, 4, 1, [0]]',
            f"op 1 takes a value from op 0, {_NOT_A_LOAD}",
            id="value-dep-on-store",
        ),
    ],
)
def test_dependences_must_name_earlier_ops(tmp_path, ops_json, message):
    """A dependence the simulators would drop or fail on is a load error."""
    _reject(tmp_path, ops_json, f"^trace line 1: {re.escape(message)}$")
