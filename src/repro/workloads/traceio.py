"""Task-trace serialization: run your own workloads through the machines.

A trace file is JSON-lines: one object per task, ops encoded compactly.
This is the interchange point for driving the SVC/ARB with externally
generated address streams (e.g. from an instrumented application or
another simulator) instead of the built-in synthetic generators.

Format (one line per task)::

    {"name": "t0", "mispredicted": false,
     "ops": [["L", addr, size],
             ["S", addr, size, value],
             ["S", addr, size, value, [value_dep, ...]],
             ["C", latency, [dep, ...]]]}

Loads may also carry a trailing dependence list. Every dependence
names an earlier op of the same task, by its position in ``ops``, and
every value dependence an earlier load. Unknown op codes and any other
dependence are rejected loudly; round-tripping is exact.

The same record is the task codec everywhere else: failure captures
(:mod:`repro.replay`) and model-check work units carry tasks as
:func:`encode_task` records and read them back with :func:`decode_task`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.common.errors import ConfigError
from repro.hier.task import MemOp, OpKind, TaskProgram


def _encode_op(op: MemOp) -> list:
    if op.kind == OpKind.LOAD:
        encoded = ["L", op.addr, op.size]
        if op.depends_on:
            encoded.append(list(op.depends_on))
        return encoded
    if op.kind == OpKind.STORE:
        encoded = ["S", op.addr, op.size, op.value]
        if op.value_deps or op.depends_on:
            encoded.append(list(op.value_deps))
        if op.depends_on:
            encoded.append(list(op.depends_on))
        return encoded
    if op.kind == OpKind.COMPUTE:
        return ["C", op.latency, list(op.depends_on)]
    raise ConfigError(f"cannot encode op kind {op.kind!r}")


def _int_field(encoded: list, index: int, what: str) -> int:
    """Field ``index`` as a plain int (bools are JSON ``true``/``false``
    leaking into a numeric slot — reject them explicitly)."""
    value = encoded[index]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an int, got {value!r}")
    return value


def _dep_list(encoded: list, index: int, what: str) -> tuple:
    """Field ``index`` as a dependence list: a JSON array of ints."""
    value = encoded[index]
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of ints, got {value!r}")
    for dep in value:
        if isinstance(dep, bool) or not isinstance(dep, int):
            raise ConfigError(f"{what} must contain only ints, got {dep!r}")
    return tuple(value)


def _decode_op(encoded) -> MemOp:
    if not isinstance(encoded, list) or not encoded:
        raise ConfigError(f"op must be a non-empty list, got {encoded!r}")
    code = encoded[0]
    if code == "L":
        if len(encoded) not in (3, 4):
            raise ConfigError(
                f"load op takes [L, addr, size] or [L, addr, size, deps], "
                f"got {len(encoded)} fields"
            )
        deps = _dep_list(encoded, 3, "load deps") if len(encoded) > 3 else ()
        return MemOp.load(
            _int_field(encoded, 1, "load addr"),
            _int_field(encoded, 2, "load size"),
            depends_on=deps,
        )
    if code == "S":
        if len(encoded) not in (4, 5, 6):
            raise ConfigError(
                f"store op takes [S, addr, size, value] plus optional "
                f"value-dep and dep lists, got {len(encoded)} fields"
            )
        value_deps = (
            _dep_list(encoded, 4, "store value deps") if len(encoded) > 4 else ()
        )
        deps = _dep_list(encoded, 5, "store deps") if len(encoded) > 5 else ()
        return MemOp.store(
            _int_field(encoded, 1, "store addr"),
            _int_field(encoded, 3, "store value"),
            _int_field(encoded, 2, "store size"),
            value_deps=value_deps,
            depends_on=deps,
        )
    if code == "C":
        if len(encoded) != 3:
            raise ConfigError(
                f"compute op takes [C, latency, deps], got {len(encoded)} fields"
            )
        return MemOp.compute(
            latency=_int_field(encoded, 1, "compute latency"),
            depends_on=_dep_list(encoded, 2, "compute deps"),
        )
    raise ConfigError(f"unknown op code {code!r}")


def _check_dependences(ops: List[MemOp]) -> None:
    """Reject a dependence the simulators could not honour: the timing
    model silently ignores one that is not on an earlier op, and a store
    finds no loaded value for one that is not on an earlier load."""
    loads = set()
    for index, op in enumerate(ops):
        for dep in op.depends_on:
            if not 0 <= dep < index:
                raise ConfigError(
                    f"op {index} depends on op {dep}, which is not an earlier op"
                )
        for dep in op.value_deps:
            if dep not in loads:
                raise ConfigError(
                    f"op {index} takes a value from op {dep}, "
                    f"which is not an earlier load"
                )
        if op.kind == OpKind.LOAD:
            loads.add(index)


def encode_task(task: TaskProgram) -> Dict:
    """One task as its trace record (a JSON-ready dict)."""
    return {
        "name": task.name,
        "mispredicted": task.mispredicted,
        "ops": [_encode_op(op) for op in task.ops],
    }


def decode_task(record) -> TaskProgram:
    """A trace record back into a task; raises :class:`ConfigError` on
    anything :func:`encode_task` would not have written."""
    if not isinstance(record, dict):
        raise ConfigError(
            f"task record must be an object, got {type(record).__name__}"
        )
    ops = record.get("ops")
    if not isinstance(ops, list):
        raise ConfigError(f"malformed op list: expected a list, got {ops!r}")
    decoded = [_decode_op(op) for op in ops]
    _check_dependences(decoded)
    return TaskProgram(
        ops=decoded,
        name=record.get("name"),
        mispredicted=bool(record.get("mispredicted", False)),
    )


def dump_tasks(tasks: Iterable[TaskProgram], path: Union[str, Path]) -> None:
    """Write a task list as a JSON-lines trace file."""
    with open(path, "w") as handle:
        for task in tasks:
            handle.write(json.dumps(encode_task(task)) + "\n")


def load_tasks(path: Union[str, Path]) -> List[TaskProgram]:
    """Read a JSON-lines trace file back into task programs."""
    tasks: List[TaskProgram] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                tasks.append(decode_task(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"trace line {line_no}: bad JSON: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"trace line {line_no}: {exc}") from exc
    return tasks
