"""Bounded exhaustive model checking of the MRMW protocol.

The invariant checker audits the schedules a workload happens to take;
this package enumerates *every* schedule of every small program within a
configurable bound and drives the real :class:`repro.svc.SVCSystem` (and
the ARB baseline) through each one, checking every terminal state
against the sequential oracle. Each schedule is a list of actions
applied one at a time to the same
:class:`repro.hier.driver.SpeculativeExecutionDriver` the property tests
and stress sweeps run, so it is an explicit replayable script instead of
an RNG. The pieces:

* :mod:`repro.modelcheck.programs` — the bound (PUs, total ops, lines)
  and the symmetry-reduced enumeration of small task programs,
* :mod:`repro.modelcheck.fingerprint` — canonical state hashing for
  duplicate-state pruning,
* :mod:`repro.modelcheck.explorer` — the DFS over scheduler choices with
  sleep-set and fingerprint pruning,
* :mod:`repro.modelcheck.mutations` — known-bad protocol mutations (one
  per design tier) that the checker must catch: the kill-switch that
  proves the exploration actually has teeth,
* :mod:`repro.modelcheck.runner` — fan-out over every design tier plus
  the ARB, counterexample capture, and the ``python -m repro
  modelcheck`` CLI.

Counterexamples are emitted as :class:`repro.replay.FailureCapture`
files, so every violation shrinks and replays deterministically with
``python -m repro replay``.
"""

from repro.modelcheck.explorer import ExplorationResult, explore_case
from repro.modelcheck.mutations import MUTATIONS, TIER_KILL_SWITCH
from repro.modelcheck.programs import Bounds, bound_geometry, enumerate_programs
from repro.modelcheck.runner import ModelCheckReport, modelcheck_main, run_modelcheck

__all__ = [
    "Bounds",
    "ExplorationResult",
    "MUTATIONS",
    "ModelCheckReport",
    "TIER_KILL_SWITCH",
    "bound_geometry",
    "enumerate_programs",
    "explore_case",
    "modelcheck_main",
    "run_modelcheck",
]
