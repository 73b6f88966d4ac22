"""Kernel builders: the histogram's input stores and its oracle count."""

from repro.oracle.sequential import SequentialOracle
from repro.workloads.traceprog import histogram_kernel

INPUT_BASE = 0x1_0000
HIST_BASE = 0x6_0000


def _word(image, addr):
    return sum(image.get(addr + i, 0) << (8 * i) for i in range(4))


def test_histogram_oracle_matches_reference():
    n_bins = 4
    kernel = histogram_kernel(n_values=20, n_bins=n_bins)
    expected = [0] * n_bins
    for op in kernel[0].ops:
        expected[op.value % n_bins] += 1
    image = SequentialOracle().run(kernel).memory_image
    assert [_word(image, HIST_BASE + 4 * b) for b in range(n_bins)] == expected


def test_histogram_image_holds_input_array():
    """The first task stores the input words; the oracle's image holds
    each one little-endian at its array slot."""
    kernel = histogram_kernel(n_values=20, n_bins=4)
    values = [op.value for op in kernel[0].ops]
    assert [op.addr for op in kernel[0].ops] == [
        INPUT_BASE + 4 * i for i in range(20)
    ]
    assert len(set(values)) > 1
    image = SequentialOracle().run(kernel).memory_image
    assert [_word(image, INPUT_BASE + 4 * i) for i in range(20)] == values
