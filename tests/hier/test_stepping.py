"""The driver's stepping API: caller-chosen actions, scripts, and the
end-of-run audit.

The model checker drives :class:`SpeculativeExecutionDriver` one action
at a time (``enabled``/``apply``), and a scripted replay runs a recorded
action list through ``run_script``; these tests pin both against the
driver's own ``run()``.
"""

import pytest

from conftest import make_svc
from repro.common.errors import ProtocolError, SimulationError
from repro.harness.differential import differential_workload
from repro.hier.driver import SpeculativeExecutionDriver
from repro.hier.task import MemOp, TaskProgram
from repro.modelcheck.programs import Bounds, bound_geometry
from repro.oracle.sequential import SequentialOracle, verify_run
from repro.replay import CASE_DESIGNS, Case, build_system


def _case(tasks, design="final", pus=2):
    return Case(
        design=design,
        tasks=tuple(tasks),
        geometry=bound_geometry(Bounds(pus=pus)),
        checker=True,
        n_caches=pus,
    )


def _driver(tasks, design="final", pus=2):
    system = build_system(_case(tasks, design, pus))
    return system, SpeculativeExecutionDriver(system, tasks)


def _store(addr, value):
    return TaskProgram(ops=[MemOp.store(addr, value, 4)])


def _load(addr):
    return TaskProgram(ops=[MemOp.load(addr, 4)])


def test_initial_dispatch_fills_pus_in_rank_order():
    tasks = [_store(0, 1), _load(0), _load(4)]
    _, driver = _driver(tasks)
    # Two PUs, three tasks: ranks 0 and 1 active, rank 2 waiting.
    assert driver.enabled() == [("op", 0), ("op", 1)]


def test_strict_apply_rejects_disabled_actions():
    _, driver = _driver([_store(0, 1), _load(0)])
    with pytest.raises(SimulationError):
        driver.apply(("commit", 0))  # rank 0 has not finished its ops
    with pytest.raises(SimulationError):
        driver.apply(("op", 5))


def test_lenient_apply_skips_disabled_actions():
    _, driver = _driver([_store(0, 1), _load(0)])
    assert driver.apply(("commit", 0), lenient=True) is False
    assert driver.apply(("op", 0), lenient=True) is True


def test_commit_is_head_only_and_frees_the_pu():
    tasks = [_store(0, 7), _load(0), _load(4)]
    _, driver = _driver(tasks)
    driver.apply(("op", 1))  # rank 1 finishes first...
    assert ("commit", 1) not in driver.enabled()  # ...but is not head
    driver.apply(("op", 0))
    assert ("commit", 0) in driver.enabled()
    driver.apply(("commit", 0))
    # Rank 0's PU is recycled to the waiting rank 2.
    assert ("op", 2) in driver.enabled()


def test_violation_squash_resets_the_reader():
    tasks = [_store(0, 42), _load(0)]
    _, driver = _driver(tasks)
    driver.apply(("op", 1))  # premature load: use before definition
    assert driver.tasks[1].op_index == 1
    driver.apply(("op", 0))  # the store detects the violation
    state = driver.tasks[1]
    assert state.op_index == 0  # squashed back to the start
    assert state.executions == 2
    assert state.observed_loads == []


def test_terminal_run_matches_the_sequential_oracle():
    tasks = [_store(0, 42), _load(0)]
    system, driver = _driver(tasks)
    for action in [("op", 1), ("op", 0), ("commit", 0), ("op", 1), ("commit", 1)]:
        driver.apply(action)
    assert driver.terminal
    report = driver.run()  # nothing left to schedule: audit and drain
    assert report.load_values == [[], [42]]
    assert report.violation_squashes == 1
    oracle = SequentialOracle().run(tasks)
    assert verify_run(report, oracle, system.memory) == []


def test_run_script_completes_partial_schedules():
    tasks = [_store(0, 42), _load(0)]
    system = build_system(_case(tasks))
    # Only the premature load is scripted; completion is oldest-first.
    report = SpeculativeExecutionDriver(system, tasks).run_script([("op", 1)])
    assert report.load_values == [[], [42]]
    oracle = SequentialOracle().run(tasks)
    assert verify_run(report, oracle, system.memory) == []


def test_run_script_drives_the_arb_baseline_too():
    tasks = [_store(0, 9), _load(0)]
    system = build_system(_case(tasks, design="arb"))
    report = SpeculativeExecutionDriver(system, tasks).run_script(
        [("op", 0), ("op", 1)]
    )
    assert report.load_values == [[], [9]]


def _observe(system, report):
    return (
        tuple(system.event_log),
        system.stats.snapshot(),
        report.load_values,
        system.memory.image(),
    )


@pytest.mark.parametrize("design", CASE_DESIGNS)
def test_run_script_replays_a_random_run_exactly(design):
    """The actions a ``random``-schedule run takes, replayed as a script
    on a fresh system, reproduce every event, statistic, load value and
    the memory image."""
    case = Case(design=design, tasks=tuple(differential_workload(3, n_tasks=10)))
    tasks = list(case.tasks)
    system = build_system(case)
    driver = SpeculativeExecutionDriver(system, tasks, seed=11)
    applied = []
    apply = driver._apply

    def record(action):
        applied.append(action)
        return apply(action)

    driver._apply = record
    observed = _observe(system, driver.run())
    assert observed[0] and applied

    replay_system = build_system(case)
    replayed = SpeculativeExecutionDriver(replay_system, tasks).run_script(applied)
    assert _observe(replay_system, replayed) == observed


def test_run_audits_the_machine_before_it_drains():
    """A desync planted after the last commit is reported by the run's
    closing ``verify()``; draining first would empty the caches and hide
    it."""
    system = make_svc("final")
    tasks = [_store(0x100, 1)]
    line_addr = system.amap.line_address(0x100)
    commit = system.commit_head

    def commit_then_desync(cache_id, now=0):
        done = commit(cache_id, now)
        # Lazy commit keeps the line resident. Cache its columns again
        # (the commit dropped them), then pull the line out behind them.
        system.vcl.fastpath.acquire(line_addr)
        system.caches[cache_id].array.remove(line_addr)
        return done

    system.commit_head = commit_then_desync
    with pytest.raises(ProtocolError, match=f"column desync for {line_addr:#x}"):
        SpeculativeExecutionDriver(system, tasks).run()
