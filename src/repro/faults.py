"""Fault-injection subsystem (``repro.faults``).

A :class:`FaultPlan` is a *declarative, seeded* description of adverse
scenarios to force on a run: mispredict squashes at chosen ranks and
op indices, random squash storms, adversarial replacement-victim
selection (conflict pressure without changing the configuration),
delayed writebacks, and MSHR/bus-occupancy saturation in the timing
model. The functional driver (:mod:`repro.hier.driver`) and the timing
simulator (:mod:`repro.timing.simulator`) consult the plan at their
decision points; the protocol code itself never sees it.

Plans are plain data: JSON-serializable (``to_dict``/``from_dict``) so a
:class:`repro.replay.FailureCapture` can replay a faulted run
byte-for-byte, and seeded through :func:`repro.common.rng.make_rng` so
two consumers (driver squashes, victim bias) never share a random
stream.

Design intent, per the robustness north star: the paper's protocol is
only exercised on the paths a benign workload happens to take; a fault
plan *steers* runs into squash recovery, VOL repair, replacement stalls
and resource exhaustion on purpose, with the invariant checker
(:mod:`repro.check`) watching every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible set of injected faults.

    Fields consumed by the functional driver:

    * ``squash_rate`` — per-scheduler-step probability of squashing a
      random non-head active task (misprediction storm).
    * ``squash_at`` — forced squashes: ``(rank, op_index)`` pairs; the
      task is squashed the first time it is about to execute its
      ``op_index``-th memory operation. Targets the exact VOL states a
      random storm only sometimes reaches.
    * ``adversarial_victims`` — bias replacement-victim selection toward
      the most-recently-used evictable way instead of LRU, maximizing
      conflict churn and replacement stalls at a fixed associativity.

    Fields consumed by the timing simulator (in addition to the above
    victim bias):

    * ``mispredict_ranks`` — tasks dispatched as mispredicted; the
      sequencer squashes them when their predecessor commits.
    * ``mshr_saturation`` — probability that a memory event finds its
      PU's MSHR file artificially saturated and must retry.
    * ``bus_saturation`` — probability that a memory operation first
      pays for a dummy bus occupant (a contending agent's transaction).

    Consumed by the bus itself:

    * ``delayed_writebacks`` — extra cycles added to every WBACK
      transaction (a slow next-level memory path), stretching the window
      in which committed state lingers in the caches.
    """

    seed: int = 0
    squash_rate: float = 0.0
    squash_at: Tuple[Tuple[int, int], ...] = ()
    adversarial_victims: bool = False
    mispredict_ranks: Tuple[int, ...] = ()
    mshr_saturation: float = 0.0
    bus_saturation: float = 0.0
    delayed_writebacks: int = 0

    def __post_init__(self) -> None:
        for name in ("squash_rate", "mshr_saturation", "bus_saturation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")
        if self.delayed_writebacks < 0:
            raise ConfigError("delayed_writebacks must be non-negative")

    @property
    def is_noop(self) -> bool:
        return self == FaultPlan(seed=self.seed)

    def rng(self, stream: str) -> random.Random:
        """A named child stream of the plan's seed (stable per consumer)."""
        return make_rng(self.seed, f"faults:{stream}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "squash_rate": self.squash_rate,
            "squash_at": [list(pair) for pair in self.squash_at],
            "adversarial_victims": self.adversarial_victims,
            "mispredict_ranks": list(self.mispredict_ranks),
            "mshr_saturation": self.mshr_saturation,
            "bus_saturation": self.bus_saturation,
            "delayed_writebacks": self.delayed_writebacks,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown fault plan key(s): {', '.join(unknown)}")
        return cls(
            seed=data.get("seed", 0),
            squash_rate=data.get("squash_rate", 0.0),
            squash_at=tuple(
                (int(rank), int(op)) for rank, op in data.get("squash_at", [])
            ),
            adversarial_victims=data.get("adversarial_victims", False),
            mispredict_ranks=tuple(data.get("mispredict_ranks", [])),
            mshr_saturation=data.get("mshr_saturation", 0.0),
            bus_saturation=data.get("bus_saturation", 0.0),
            delayed_writebacks=data.get("delayed_writebacks", 0),
        )

    def describe(self) -> str:
        parts = []
        if self.squash_rate:
            parts.append(f"squash_rate={self.squash_rate}")
        if self.squash_at:
            parts.append(f"squash_at={list(self.squash_at)}")
        if self.adversarial_victims:
            parts.append("adversarial_victims")
        if self.mispredict_ranks:
            parts.append(f"mispredict_ranks={list(self.mispredict_ranks)}")
        if self.mshr_saturation:
            parts.append(f"mshr_saturation={self.mshr_saturation}")
        if self.bus_saturation:
            parts.append(f"bus_saturation={self.bus_saturation}")
        if self.delayed_writebacks:
            parts.append(f"delayed_writebacks={self.delayed_writebacks}")
        return f"FaultPlan(seed={self.seed}: " + (", ".join(parts) or "no-op") + ")"

    # -- shrinking support (repro.replay) -----------------------------------

    def weakenings(self) -> List["FaultPlan"]:
        """Strictly weaker variants of this plan, for greedy shrinking:
        each drops one fault dimension (or one forced squash) entirely."""
        weaker: List[FaultPlan] = []
        if self.squash_rate:
            weaker.append(replace(self, squash_rate=0.0))
        for index in range(len(self.squash_at)):
            trimmed = self.squash_at[:index] + self.squash_at[index + 1 :]
            weaker.append(replace(self, squash_at=trimmed))
        if self.adversarial_victims:
            weaker.append(replace(self, adversarial_victims=False))
        if self.mispredict_ranks:
            weaker.append(replace(self, mispredict_ranks=()))
        if self.mshr_saturation:
            weaker.append(replace(self, mshr_saturation=0.0))
        if self.bus_saturation:
            weaker.append(replace(self, bus_saturation=0.0))
        if self.delayed_writebacks:
            weaker.append(replace(self, delayed_writebacks=0))
        return weaker

    def drop_rank(self, rank: int) -> "FaultPlan":
        """The plan after task ``rank`` is removed from the program:
        entries for the rank vanish, later ranks shift down by one."""
        return replace(
            self,
            squash_at=tuple(
                (r - 1 if r > rank else r, op)
                for r, op in self.squash_at
                if r != rank
            ),
            mispredict_ranks=tuple(
                r - 1 if r > rank else r
                for r in self.mispredict_ranks
                if r != rank
            ),
        )


def random_fault_plan(
    seed: int,
    n_tasks: int,
    max_ops: int,
    allow_squashes: bool = True,
) -> FaultPlan:
    """A randomized but reproducible plan for stress sweeps.

    ``allow_squashes`` is cleared for the EC design, which assumes no
    squashes (paper section 3.4).
    """
    rng = make_rng(seed, "faults:plan")
    squash_at: List[Tuple[int, int]] = []
    if allow_squashes and n_tasks > 1:
        for _ in range(rng.randint(0, 2)):
            squash_at.append(
                (rng.randint(1, n_tasks - 1), rng.randint(0, max(0, max_ops - 1)))
            )
    return FaultPlan(
        seed=seed,
        squash_rate=rng.choice([0.0, 0.05, 0.15]) if allow_squashes else 0.0,
        squash_at=tuple(sorted(set(squash_at))),
        adversarial_victims=rng.random() < 0.5,
        delayed_writebacks=rng.choice([0, 0, 2]),
    )


class FaultInjector:
    """Runtime companion of a :class:`FaultPlan` for one run.

    Owns the plan's random streams and the one-shot bookkeeping for
    forced squashes, so a driver consults simple methods at its decision
    points. Constructing an injector is the only stateful step; the plan
    itself stays immutable and serializable.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._squash_rng = plan.rng("squash")
        self._pending_squash_at = set(plan.squash_at)

    def wants_random_squash(self) -> bool:
        return (
            self.plan.squash_rate > 0
            and self._squash_rng.random() < self.plan.squash_rate
        )

    def forced_squash(self, rank: int, op_index: int) -> bool:
        """True exactly once when task ``rank`` reaches ``op_index``."""
        key = (rank, op_index)
        if key in self._pending_squash_at:
            self._pending_squash_at.remove(key)
            return True
        return False

    def install(self, system) -> None:
        """Apply the system-side fault hooks: victim bias on every SVC
        cache and writeback delay on the bus. No-ops for systems without
        the corresponding structures (e.g. the ARB has no snooping bus)."""
        if self.plan.adversarial_victims and hasattr(system, "caches"):
            for cache in system.caches:
                if hasattr(cache, "victim_bias_rng"):
                    cache.victim_bias_rng = self.plan.rng(
                        f"victims:{cache.cache_id}"
                    )
        if self.plan.delayed_writebacks and hasattr(system, "bus"):
            system.bus.fault_extra_cycles = {
                "wback": self.plan.delayed_writebacks
            }

    def mark_mispredicted(self, tasks: List) -> List:
        """Copies of ``tasks`` with the plan's mispredict ranks flagged
        (the timing sequencer's squash trigger). The caller's list is
        left untouched."""
        if not self.plan.mispredict_ranks:
            return tasks
        marked = []
        targets = set(self.plan.mispredict_ranks)
        for rank, task in enumerate(tasks):
            if rank in targets and not task.mispredicted:
                task = replace_task_mispredicted(task)
            marked.append(task)
        return marked


def replace_task_mispredicted(task):
    """A shallow mispredicted copy of a TaskProgram."""
    from repro.hier.task import TaskProgram

    return TaskProgram(ops=list(task.ops), name=task.name, mispredicted=True)


__all__ = [
    "FaultPlan",
    "FaultInjector",
    "random_fault_plan",
    "replace_task_mispredicted",
]
