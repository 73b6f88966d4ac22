"""Task/operation data model."""

import pytest

from repro.hier.task import MemOp, OpKind, TaskProgram, task_program_from_ops


def test_op_constructors():
    load = MemOp.load(0x100, 2)
    store = MemOp.store(0x200, 7)
    compute = MemOp.compute(latency=3, depends_on=(0,))
    assert load.kind == OpKind.LOAD and load.size == 2
    assert store.kind == OpKind.STORE and store.value == 7
    assert compute.latency == 3 and compute.depends_on == (0,)


def test_memory_ops_filters_compute():
    program = TaskProgram(ops=[MemOp.compute(), MemOp.load(0x100), MemOp.compute()])
    assert len(program) == 3
    assert len(program.memory_ops) == 1


def test_from_compact_tuples():
    program = task_program_from_ops(
        [("load", 0x100), ("store", 0x104, 9), ("load", 0x100, 2),
         ("store", 0x108, 1, 1)],
        name="walkthrough",
    )
    assert program.name == "walkthrough"
    assert [op.kind for op in program.ops] == ["load", "store", "load", "store"]
    assert program.ops[2].size == 2
    assert program.ops[3].size == 1


def test_from_tuples_rejects_unknown_kind():
    with pytest.raises(ValueError):
        task_program_from_ops([("fence", 0)])


def test_memory_op_count_matches_the_list_without_building_it():
    program = TaskProgram(
        ops=[MemOp.compute(), MemOp.load(0x100), MemOp.store(0x104, 1)]
    )
    assert program.memory_op_count == 2
    assert program._memory_ops is None
    assert program.memory_op_count == len(program.memory_ops)


def test_task_program_is_slotted():
    program = TaskProgram(ops=[MemOp.load(0x100)], name="t")
    assert not hasattr(program, "__dict__")
    with pytest.raises(AttributeError):
        program.label = "x"
