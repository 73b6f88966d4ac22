"""Supervised campaign execution (``repro.harness.supervisor``).

The SVC protocol survives misspeculation by squashing, repairing the
VOL and re-executing; this module gives the *experiment harness* the
same discipline. Where :func:`repro.harness.parallel.parallel_map` is a
thin ``ProcessPoolExecutor`` wrapper that loses the whole campaign to
one hung point, OOM-killed worker or Ctrl-C, the supervisor treats every
point as a speculative task:

* **timeout** — each point gets a wall-clock budget
  (``REPRO_POINT_TIMEOUT``); exceeding it kills the worker pool
  (SIGKILL), requeues the innocent in-flight points uncharged, and
  charges the culprit one attempt;
* **retry with deterministic backoff** — failed attempts are retried up
  to ``REPRO_RETRIES`` times, spaced by a :class:`BackoffPolicy`
  schedule that is seeded, monotone non-decreasing and capped;
* **quarantine** — a point that exhausts its budget is quarantined and
  the campaign degrades to a partial-result report instead of crashing;
* **pool recovery** — a ``BrokenProcessPool`` (worker SIGKILLed,
  interpreter crash) rebuilds the pool and resubmits the in-flight
  points;
* **resume** — with a :class:`~repro.harness.resultstore.ResultStore`,
  completed points are served from the content-addressed cache and only
  missing/changed points recompute;
* **observability** — the engine narrates the campaign as a
  schema-versioned NDJSON event stream
  (:class:`repro.telemetry.stream.CampaignStream`, CLI ``--stream`` /
  ``--progress``). Each failed attempt leaves one note, kept in
  :attr:`PointOutcome.failures` and carried by the stream's
  ``point_retry``/``point_quarantined`` events. A quarantined point
  stores nothing, so a resumed campaign retries it from scratch.

Because every point is a pure function of its spec, a retried point
reproduces exactly the bytes the fault destroyed — the chaos suite
(:mod:`tests.harness.test_chaos`) asserts campaign results under seeded
kills/exceptions/stalls are identical to a fault-free serial run.

Serial mode (one worker) keeps the retry/quarantine/resume semantics
in-process; wall-clock timeouts and real SIGKILL chaos require worker
processes (a serial chaos ``kill`` degrades to a raised
:class:`~repro.harness.chaos.WorkerKilled`).

Invariants
----------

1. **Determinism under faults.** A campaign's results are a pure
   function of (specs, seed): retries, pool rebuilds and cache hits
   never change a single result byte vs. a fault-free serial run.
2. **Conservation of points.** Every spec ends in exactly one terminal
   outcome (``ok`` / ``cached`` / ``quarantined``), and the report's
   counters account for every attempt — nothing is silently dropped.
3. **Bounded work.** Attempts per point never exceed 1 + retries, and
   backoff is monotone non-decreasing and capped, so a campaign always
   terminates.
4. **Near-zero overhead.** The no-fault supervised path must stay
   within 3% of the bare fan-out.

docs/RESILIENCE.md documents the user-facing semantics: CLI flags and
environment knobs, exit codes, the result-store keying rule, and the
chaos plan format.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import make_rng
from repro.harness.chaos import ChaosPlan, random_chaos_plan
from repro.harness.parallel import _kill_pool, execute_point, resolve_workers
from repro.harness.resultstore import ResultStore, point_key

#: Per-point wall-clock budget in seconds (unset = no timeout).
POINT_TIMEOUT_ENV = "REPRO_POINT_TIMEOUT"
#: Retry budget per point (default 1: one clean re-execution).
RETRIES_ENV = "REPRO_RETRIES"

#: Outcome states.
OK = "ok"
CACHED = "cached"
QUARANTINED = "quarantined"

#: Default retry budget when neither argument nor env supplies one.
DEFAULT_RETRIES = 1


def resolve_point_timeout(timeout=None) -> Optional[float]:
    """Effective per-point timeout: argument, else env, else none.

    Raises :class:`ConfigError` (exit code 2 territory) on garbage — a
    harness knob must never flow into the executor as a crash.
    """
    source = timeout
    if source is None:
        raw = os.environ.get(POINT_TIMEOUT_ENV, "")
        if not raw:
            return None
        source = raw
    try:
        value = float(source)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{POINT_TIMEOUT_ENV} must be a positive number of seconds, "
            f"got {source!r}"
        ) from None
    if value <= 0:
        raise ConfigError(
            f"{POINT_TIMEOUT_ENV} must be a positive number of seconds, "
            f"got {source!r}"
        )
    return value


def resolve_retries(retries=None) -> int:
    """Effective retry budget: argument, else env, else ``DEFAULT_RETRIES``."""
    source = retries
    if source is None:
        raw = os.environ.get(RETRIES_ENV, "")
        if not raw:
            return DEFAULT_RETRIES
        source = raw
    try:
        value = int(str(source))
    except (TypeError, ValueError):
        raise ConfigError(
            f"{RETRIES_ENV} must be a non-negative integer, got {source!r}"
        ) from None
    if value < 0:
        raise ConfigError(
            f"{RETRIES_ENV} must be a non-negative integer, got {source!r}"
        )
    return value


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic seeded retry spacing.

    The k-th retry of a point waits
    ``min(cap, base * factor**k * (1 + jitter * u))`` seconds, where
    ``u`` is one uniform draw per point key from the policy seed — so a
    schedule is reproducible given the seed, monotone non-decreasing
    (``factor >= 1`` and the cap only flattens it), and bounded by
    ``cap``. Jitter decorrelates points retrying after a shared pool
    crash without ever reordering a single point's own schedule.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigError(f"backoff base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ConfigError(
                f"backoff factor must be >= 1 (monotone schedule), got {self.factor}"
            )
        if self.cap < 0:
            raise ConfigError(f"backoff cap must be >= 0, got {self.cap}")
        if self.jitter < 0:
            raise ConfigError(f"backoff jitter must be >= 0, got {self.jitter}")

    def delay(self, key: str, retry_index: int) -> float:
        """Seconds to wait before retry ``retry_index`` of point ``key``."""
        draw = make_rng(self.seed, f"backoff:{key}").random()
        raw = self.base * (self.factor ** retry_index) * (1.0 + self.jitter * draw)
        return min(self.cap, raw)

    def schedule(self, key: str, retries: int) -> List[float]:
        """The full delay schedule for ``retries`` retries of one point."""
        return [self.delay(key, index) for index in range(retries)]


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything the engine needs to run one campaign.

    ``workers``/``point_timeout``/``retries`` of ``None`` defer to the
    ``REPRO_WORKERS``/``REPRO_POINT_TIMEOUT``/``REPRO_RETRIES``
    environment knobs (validated, never passed through raw). ``chaos``
    is an explicit plan; ``chaos_seed`` draws a survivable random plan
    sized to the campaign.

    Observability: ``stream`` is a caller-owned
    :class:`repro.telemetry.stream.CampaignStream` that the engine
    narrates the campaign into (the CLI builds one for ``--stream``,
    ``--progress`` and ``--report``, and closes it); the campaign's
    retry/timeout/crash/quarantine counts are always in
    :attr:`CampaignReport.counters` and its ``campaign_finished``
    event.
    """

    workers: Optional[int] = None
    point_timeout: Optional[float] = None
    retries: Optional[int] = None
    backoff: BackoffPolicy = BackoffPolicy()
    chaos: Optional[ChaosPlan] = None
    chaos_seed: Optional[int] = None
    resume: bool = False
    store_root: Optional[str] = None
    stream: object = None


_DEFAULT_CONFIG = SupervisorConfig()


def set_default_supervisor(config: Optional[SupervisorConfig]) -> SupervisorConfig:
    """Install the process-wide default config; returns the previous one.

    The CLI sets this from its flags so experiment runners (whose
    signatures only thread ``workers`` and ``resume``) pick up timeout/
    retry/chaos/store settings without another eight keyword arguments.
    """
    global _DEFAULT_CONFIG
    previous = _DEFAULT_CONFIG
    _DEFAULT_CONFIG = config if config is not None else SupervisorConfig()
    return previous


def default_supervisor() -> SupervisorConfig:
    return _DEFAULT_CONFIG


@dataclass
class PointOutcome:
    """Terminal state of one point: a result, a cache hit, or quarantine.

    ``failures`` holds one note per failed attempt, oldest first.
    """

    index: int
    spec: object
    status: str
    result: object = None
    attempts: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass
class CampaignReport:
    """Partial-result report of one supervised campaign.

    ``counters`` is plain data:
    ``points/ok/cache_hits/recomputed/quarantined/retries/timeouts/
    crashes/failures/pool_rebuilds``.
    """

    outcomes: List[PointOutcome] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    def results(self) -> List:
        """Per-point results in spec order (``None`` for quarantined)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def quarantined(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if o.status == QUARANTINED]

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def summary(self) -> str:
        c = self.counters
        delivered = c.get("ok", 0) + c.get("cache_hits", 0)
        parts = [
            f"{delivered}/{c.get('points', 0)} points ok",
            f"{c.get('cache_hits', 0)} cached",
            f"{c.get('recomputed', 0)} recomputed",
        ]
        for key in ("retries", "timeouts", "crashes", "quarantined"):
            if c.get(key):
                parts.append(f"{c[key]} {key}")
        return ", ".join(parts)


class _Work:
    """Mutable per-point bookkeeping while the campaign runs."""

    __slots__ = ("index", "spec", "key", "attempts", "failures", "not_before")

    def __init__(self, index: int, spec, key: Optional[str]) -> None:
        self.index = index
        self.spec = spec
        self.key = key
        self.attempts = 0  # attempts *started*
        self.failures: List[str] = []
        self.not_before = 0.0


def _run_attempt(index, attempt, spec, chaos, allow_kill):
    """One point attempt: returns ``(result, wall)``.

    Shared by the serial loop and the worker wrapper.
    """
    start = time.perf_counter()
    if chaos is not None:
        chaos.apply(index, attempt, allow_kill=allow_kill)
    result = execute_point(spec)
    return result, time.perf_counter() - start


def _execute_supervised(payload):
    """Worker-side wrapper: apply the chaos plan, then run the point.

    Top-level so it pickles. Returns ``(index, result, wall_seconds)``
    so the supervisor can match completions to specs regardless of
    order and feed attempt walls into the campaign event stream.
    """
    index, attempt, spec, chaos_data = payload
    chaos = ChaosPlan.from_dict(chaos_data) if chaos_data is not None else None
    result, wall = _run_attempt(index, attempt, spec, chaos, allow_kill=True)
    return index, result, wall


class _Engine:
    """One campaign's supervisor state machine."""

    def __init__(self, specs: List, config: SupervisorConfig) -> None:
        self.specs = list(specs)
        self.config = config
        self.workers = resolve_workers(config.workers)
        self.timeout = resolve_point_timeout(config.point_timeout)
        self.retries = resolve_retries(config.retries)
        self.backoff = config.backoff
        self.chaos = config.chaos
        if self.chaos is None and config.chaos_seed is not None:
            stall = 3.0 * self.timeout if self.timeout else None
            self.chaos = random_chaos_plan(
                config.chaos_seed, len(self.specs), stall_seconds=stall
            )
        if self.chaos is not None and self.chaos.is_noop:
            self.chaos = None
        self.store = ResultStore(config.store_root) if config.resume else None
        self.stream = config.stream
        self.outcomes: Dict[int, PointOutcome] = {}
        self.counters: Dict[str, int] = {
            key: 0
            for key in (
                "points", "ok", "cache_hits", "recomputed", "quarantined",
                "retries", "timeouts", "crashes", "failures", "pool_rebuilds",
            )
        }
        self.counters["points"] = len(self.specs)

    # -- shared bookkeeping --------------------------------------------------

    def _count(self, name: str) -> None:
        self.counters[name] += 1

    def _succeed(
        self, work: _Work, result, fresh: bool = True, wall: float = 0.0
    ) -> None:
        self.outcomes[work.index] = PointOutcome(
            index=work.index,
            spec=work.spec,
            status=OK if fresh else CACHED,
            result=result,
            attempts=work.attempts,
            failures=work.failures,
        )
        self._count("ok" if fresh else "cache_hits")
        if fresh:
            self._count("recomputed")
            if self.store is not None and work.key is not None:
                self.store.put(work.key, result)
        if self.stream is not None:
            metrics = {}
            for name in ("ipc", "miss_ratio"):
                value = getattr(result, name, None)
                if isinstance(value, (int, float)):
                    metrics[name] = round(float(value), 6)
            self.stream.point_finished(
                point=work.index,
                attempt=max(0, work.attempts - 1),
                benchmark=getattr(work.spec, "benchmark", "?"),
                machine=getattr(work.spec, "machine", "?"),
                status=OK if fresh else CACHED,
                wall_s=wall if fresh else 0.0,
                events=getattr(result, "instructions", None),
                metrics=metrics or None,
            )

    def _fail(self, work: _Work, kind: str, note: str) -> bool:
        """Charge one failed attempt; True when the point should retry."""
        work.failures.append(note)
        self._count(kind)
        if work.attempts > self.retries:
            self.outcomes[work.index] = PointOutcome(
                index=work.index,
                spec=work.spec,
                status=QUARANTINED,
                result=None,
                attempts=work.attempts,
                failures=work.failures,
            )
            self._count("quarantined")
            if self.stream is not None:
                self.stream.point_quarantined(
                    point=work.index, attempts=work.attempts, note=note
                )
            return False
        self._count("retries")
        delay = self.backoff.delay(work.key or str(work.index), work.attempts - 1)
        work.not_before = time.monotonic() + delay
        if self.stream is not None:
            self.stream.point_retry(
                point=work.index,
                attempt=work.attempts - 1,
                kind=kind,
                delay_s=delay,
                note=note,
            )
        return True

    def _build_work(self) -> List[_Work]:
        """Resolve cache hits; return the points that must execute."""
        todo: List[_Work] = []
        for index, spec in enumerate(self.specs):
            key = point_key(spec) if self.store is not None else None
            work = _Work(index, spec, key)
            if self.store is not None:
                cached = self.store.get(key)
                if cached is not None:
                    self._succeed(work, cached, fresh=False)
                    continue
            todo.append(work)
        return todo

    def _report(self) -> CampaignReport:
        outcomes = [self.outcomes[index] for index in sorted(self.outcomes)]
        return CampaignReport(outcomes=outcomes, counters=dict(self.counters))

    # -- serial engine -------------------------------------------------------

    def _run_serial(self, todo: List[_Work]) -> None:
        remaining = len(todo)
        for work in todo:
            while True:
                attempt = work.attempts
                work.attempts += 1
                if self.stream is not None:
                    self.stream.point_started(
                        point=work.index,
                        attempt=attempt,
                        benchmark=getattr(work.spec, "benchmark", "?"),
                        machine=getattr(work.spec, "machine", "?"),
                    )
                try:
                    result, wall = _run_attempt(
                        work.index, attempt, work.spec, self.chaos,
                        allow_kill=False,
                    )
                except Exception as exc:
                    from repro.harness.chaos import WorkerKilled

                    kind = "crashes" if isinstance(exc, WorkerKilled) else "failures"
                    if not self._fail(work, kind, f"attempt {attempt}: {exc!r}"):
                        break
                    wait = work.not_before - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                else:
                    self._succeed(work, result, wall=wall)
                    break
            remaining -= 1
            if self.stream is not None:
                self.stream.heartbeat(waiting=remaining)

    # -- parallel engine -----------------------------------------------------

    def _run_parallel(self, todo: List[_Work]) -> None:
        import concurrent.futures as cf
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context("spawn")

        chaos_data = self.chaos.to_dict() if self.chaos is not None else None
        rebuild_cap = max(8, (self.retries + 1) * len(todo))
        ready = deque(todo)
        waiting: List[_Work] = []
        inflight: Dict = {}
        deadlines: Dict = {}
        pool = None

        def new_pool():
            size = min(self.workers, max(1, len(ready) + len(waiting) + 1))
            return cf.ProcessPoolExecutor(max_workers=size, mp_context=context)

        def submit(work: _Work) -> None:
            attempt = work.attempts
            work.attempts += 1
            future = pool.submit(
                _execute_supervised,
                (work.index, attempt, work.spec, chaos_data),
            )
            inflight[future] = work
            if self.timeout is not None:
                deadlines[future] = time.monotonic() + self.timeout
            if self.stream is not None:
                self.stream.point_started(
                    point=work.index,
                    attempt=attempt,
                    benchmark=getattr(work.spec, "benchmark", "?"),
                    machine=getattr(work.spec, "machine", "?"),
                )

        try:
            while ready or waiting or inflight:
                now = time.monotonic()
                still_waiting = []
                for work in waiting:
                    if work.not_before <= now:
                        ready.append(work)
                    else:
                        still_waiting.append(work)
                waiting = still_waiting

                while ready and len(inflight) < self.workers:
                    if pool is None:
                        pool = new_pool()
                    submit(ready.popleft())

                if not inflight:
                    if waiting:
                        pause = min(w.not_before for w in waiting) - now
                        time.sleep(max(0.0, min(pause, 0.5)))
                    continue

                # Wake early enough to notice the nearest deadline or the
                # nearest backoff expiry; poll at 0.5s otherwise so Ctrl-C
                # and stalled workers are noticed promptly.
                horizon = 0.5
                if deadlines:
                    horizon = min(horizon, max(0.0, min(deadlines.values()) - now))
                if waiting:
                    horizon = min(
                        horizon, max(0.0, min(w.not_before for w in waiting) - now)
                    )
                done, _ = cf.wait(
                    list(inflight), timeout=horizon,
                    return_when=cf.FIRST_COMPLETED,
                )

                broken = False
                for future in done:
                    work = inflight.pop(future)
                    deadlines.pop(future, None)
                    error = future.exception()
                    if error is None:
                        _, result, wall = future.result()
                        self._succeed(work, result, wall=wall)
                    elif isinstance(error, cf.BrokenExecutor):
                        broken = True
                        if self._fail(work, "crashes", f"attempt {work.attempts - 1}: worker died ({error!r})"):
                            waiting.append(work)
                    else:
                        if self._fail(work, "failures", f"attempt {work.attempts - 1}: {error!r}"):
                            waiting.append(work)

                now = time.monotonic()
                expired = [f for f, dl in deadlines.items() if now > dl]
                if expired:
                    victims = set(expired)
                    for future in list(inflight):
                        work = inflight.pop(future)
                        deadlines.pop(future, None)
                        if future in victims:
                            if self._fail(
                                work, "timeouts",
                                f"attempt {work.attempts - 1}: exceeded "
                                f"{self.timeout}s wall clock",
                            ):
                                waiting.append(work)
                        else:
                            # Innocent bystander: its work dies with the
                            # pool, but it keeps its attempt budget.
                            work.attempts -= 1
                            ready.appendleft(work)
                    _kill_pool(pool)
                    pool = None
                    self._count("pool_rebuilds")
                elif broken:
                    # The pool is unusable; every in-flight future is (or
                    # is about to be) broken. The true victim is unknown,
                    # so each in-flight point is charged one attempt.
                    for future in list(inflight):
                        work = inflight.pop(future)
                        deadlines.pop(future, None)
                        if self._fail(
                            work, "crashes",
                            f"attempt {work.attempts - 1}: pool broke "
                            "while in flight",
                        ):
                            waiting.append(work)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    self._count("pool_rebuilds")

                if self.stream is not None:
                    self.stream.heartbeat(waiting=len(ready) + len(waiting))

                if self.counters["pool_rebuilds"] > rebuild_cap:
                    raise SimulationError(
                        f"supervisor: gave up after "
                        f"{self.counters['pool_rebuilds']} pool rebuilds "
                        f"(cap {rebuild_cap}); see the campaign report"
                    )
        except KeyboardInterrupt:
            if pool is not None:
                _kill_pool(pool)
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)

    # -- entry ---------------------------------------------------------------

    def run(self) -> CampaignReport:
        if self.stream is not None:
            self.stream.campaign_started(
                points=len(self.specs), workers=self.workers
            )
        try:
            todo = self._build_work()
            if todo:
                if self.workers <= 1:
                    self._run_serial(todo)
                else:
                    self._run_parallel(todo)
        finally:
            if self.stream is not None:
                # Even a sub-second campaign ships one heartbeat, so
                # stream consumers can rely on the event being present.
                self.stream.heartbeat(force=True)
                self.stream.campaign_finished(dict(self.counters))
        return self._report()


def run_campaign(
    specs: List,
    config: Optional[SupervisorConfig] = None,
    workers=None,
    resume: Optional[bool] = None,
) -> CampaignReport:
    """Execute a campaign under supervision; never raises for point
    failures — quarantined points surface in the report instead."""
    if config is None:
        config = default_supervisor()
    overrides = {}
    if workers is not None:
        overrides["workers"] = workers
    if resume is not None:
        overrides["resume"] = resume
    if overrides:
        config = replace(config, **overrides)
    return _Engine(specs, config).run()


__all__ = [
    "BackoffPolicy",
    "CACHED",
    "CampaignReport",
    "DEFAULT_RETRIES",
    "OK",
    "POINT_TIMEOUT_ENV",
    "PointOutcome",
    "QUARANTINED",
    "RETRIES_ENV",
    "SupervisorConfig",
    "default_supervisor",
    "resolve_point_timeout",
    "resolve_retries",
    "run_campaign",
    "set_default_supervisor",
]
