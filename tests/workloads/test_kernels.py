"""Loop kernels executed speculatively match their Python reference.

This is the paper's automatic-parallelization pitch made executable:
each kernel is a sequential loop cut into speculative tasks; the SVC
must deliver exactly the sequential result whatever conflicts occur.
"""

import pytest

from conftest import make_svc
from repro.hier.driver import SpeculativeExecutionDriver
from repro.workloads.traceprog import histogram_kernel

HIST_BASE = 0x6_0000


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_matches_reference(seed):
    n_bins = 8
    kernel = histogram_kernel(n_values=60, n_bins=n_bins)
    system = make_svc("final")
    for op in kernel[0].ops:
        system.memory.write_int(op.addr, op.size, op.value)
    SpeculativeExecutionDriver(system, kernel[1:], seed=seed).run()
    expected = [0] * n_bins
    for op in kernel[0].ops:
        expected[op.value % n_bins] += 1
    for b, count in enumerate(expected):
        assert system.memory.read_int(HIST_BASE + 4 * b, 4) == count
