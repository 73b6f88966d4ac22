"""Process-parallel fan-out of experiment points.

Every experiment in :mod:`repro.harness.experiments` is a list of
independent (benchmark, machine) points: each point regenerates its own
seeded workload and runs a fresh machine, so points share no mutable
state and parallelize embarrassingly. This module fans a list of
:class:`PointSpec` descriptors over a ``ProcessPoolExecutor`` and
returns the per-point results *in spec order* — byte-identical to the
serial loop, because

* workloads are regenerated inside each worker from the per-benchmark
  seeds in :data:`repro.workloads.spec95.SPEC95_PROFILES` (deterministic
  regardless of which process runs the point, or in what order), and
* each point builds its own ``SVCSystem``/``ARBSystem``, ``StatsRegistry``
  and report; merging is just list assembly in submission order.

``workers`` resolution: an explicit argument wins; otherwise the
``REPRO_WORKERS`` environment variable; otherwise serial. ``0`` means
"one worker per CPU". Serial execution never touches multiprocessing,
so single-point callers and restricted environments pay nothing.

Two engines share these specs: :func:`parallel_map` is the bare fan-out
(kept for the model checker and the litmus runner), while
:func:`run_points` routes campaigns through the supervised engine in
:mod:`repro.harness.supervisor` — per-point timeouts, seeded-backoff
retries, quarantine, broken-pool recovery and content-addressed resume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.common.errors import ConfigError

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


@dataclass(frozen=True)
class PointSpec:
    """One (benchmark, machine) experiment point, picklable for workers.

    ``kind`` selects the machine ("svc" or "arb"); ``config`` is the
    matching frozen config dataclass; ``scale`` is the workload scale
    override (``None`` = the ``REPRO_SCALE`` environment default).
    """

    benchmark: str
    machine: str
    kind: str
    config: object
    scale: Optional[float] = None
    #: Record spans and metrics (``False`` = unwired, the fast path).
    telemetry: bool = False


def execute_point(spec: PointSpec):
    """Run one point and return its ``BenchmarkResult``.

    Top-level so it pickles; imports deferred so this module stays
    importable from :mod:`repro.harness.experiments` without a cycle.
    """
    from repro.harness.experiments import _run_arb, _run_svc

    if spec.kind == "svc":
        return _run_svc(
            spec.benchmark, spec.machine, spec.config, spec.scale, spec.telemetry
        )
    if spec.kind == "arb":
        return _run_arb(
            spec.benchmark, spec.machine, spec.config, spec.scale, spec.telemetry
        )
    raise ValueError(f"unknown machine kind {spec.kind!r}")


def resolve_workers(workers: Optional[Union[int, str]] = None) -> int:
    """Effective worker count: argument, else ``REPRO_WORKERS``, else 1.

    Raises :class:`ConfigError` naming the offending value for negative
    or non-integer input — a bad env knob must fail as a usage error,
    not flow into ``ProcessPoolExecutor`` as a crash.
    """
    if workers is None:
        workers = os.environ.get(WORKERS_ENV, "")
        if not workers:
            return 1
    try:
        count = int(str(workers))
    except (TypeError, ValueError):
        raise ConfigError(
            f"{WORKERS_ENV} must be a non-negative integer "
            f"(0 = one per CPU), got {workers!r}"
        ) from None
    if count < 0:
        raise ConfigError(
            f"{WORKERS_ENV} must be a non-negative integer "
            f"(0 = one per CPU), got {workers!r}"
        )
    if count == 0:
        count = os.cpu_count() or 1
    return count


def _kill_pool(pool) -> None:
    """Tear a pool down hard: cancel queued work, SIGKILL the workers
    and reap them.

    Shared by :func:`parallel_map` and the supervisor, for Ctrl-C and
    for point timeouts. Reaches into ``_processes`` (stable since 3.7)
    because the public API has no way to stop a worker mid-task.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except (OSError, AttributeError, ValueError):
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except (OSError, AssertionError, ValueError):
            pass


def parallel_map(
    func, items: List, workers: Optional[Union[int, str]] = None
) -> List:
    """``[func(item) for item in items]``, optionally across processes.

    The generic engine under :func:`run_points` and the model checker's
    per-program fan-out. ``func`` must be a top-level function and every
    item picklable; results come back in item order either way, so
    callers see exactly what the serial loop produced.
    """
    items = list(items)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1:
        return [func(item) for item in items]

    import concurrent.futures
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        # No fork on this platform; spawn would re-import the world per
        # worker, but the work is deterministic either way.
        context = multiprocessing.get_context("spawn")
    max_workers = min(count, len(items))
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=max_workers, mp_context=context
    )
    try:
        results = list(pool.map(func, items))
    except KeyboardInterrupt:
        # An aborted campaign must not leave orphaned workers.
        _kill_pool(pool)
        raise
    else:
        pool.shutdown(wait=True)
        return results


def run_points(
    specs: List[PointSpec],
    workers: Optional[Union[int, str]] = None,
    resume: bool = False,
    supervisor=None,
    campaigns: Optional[List] = None,
) -> List:
    """Execute every experiment point under the supervised engine.

    The successor of the old ``parallel_map(execute_point, ...)`` path:
    points now get wall-clock timeouts, bounded seeded-backoff retries,
    quarantine, broken-pool recovery and (with ``resume=True``) warm
    results from the content-addressed store — see
    :mod:`repro.harness.supervisor`. Returns the successful results in
    spec order; quarantined points are *omitted* so a campaign degrades
    to a partial report rather than crashing. Pass a list as
    ``campaigns`` to receive the full :class:`CampaignReport` (the CLI
    uses it to map quarantine onto exit code 1).
    """
    from repro.harness.supervisor import run_campaign

    report = run_campaign(
        specs, supervisor, workers=workers, resume=resume or None
    )
    if campaigns is not None:
        campaigns.append(report)
    return [out.result for out in report.outcomes if out.result is not None]
