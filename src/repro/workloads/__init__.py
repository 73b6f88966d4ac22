"""Synthetic workloads standing in for the paper's SPEC95 runs.

The paper drives its evaluation with annotated MIPS binaries of seven
SPEC95 programs on a cycle-level multiscalar simulator. Without those
binaries or compiler, this package substitutes parameterized synthetic
task streams whose *address-stream statistics* — working-set size,
spatial/temporal locality, inter-task sharing, task sizes, misprediction
rates — are tuned per benchmark so the memory-system comparison sees
equivalent pressure (DESIGN.md section 3 documents the substitution).

:mod:`repro.workloads.generator` is the engine;
:mod:`repro.workloads.spec95` holds the seven calibrated profiles;
:mod:`repro.workloads.traceprog` builds the concrete loop kernels (the
regression traces and the thread-level-speculation example), written
in the trace format of :mod:`repro.workloads.traceio`.
"""

from repro.workloads.generator import WorkloadSpec, generate_tasks
from repro.workloads.spec95 import SPEC95_PROFILES, spec95_tasks

__all__ = [
    "generate_tasks",
    "SPEC95_PROFILES",
    "spec95_tasks",
    "WorkloadSpec",
]
