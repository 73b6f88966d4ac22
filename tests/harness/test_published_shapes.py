"""The paper's shapes, checked on the published renderings.

``benchmarks/results/<experiment>.txt`` is written by
``python -m repro <experiment> --scale 0.35 --output FILE``, and CI
regenerates every file and fails on any difference. This module reads
the committed files and holds them to the shapes the paper's evaluation
(section 4) reports: ARB IPC falls as its hit time rises, the 1-cycle
SVC beats the 4-cycle ARB, the ablations move the way section 3 says.
"""

import re
from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.workloads.spec95 import BENCHMARKS

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

PUBLISHED_SCALE = "0.35"

FIGURES = ("fig19", "fig20")

#: Cells are separated by runs of two or more spaces.
CELL = re.compile(r" {2,}")

#: (figure, benchmark) points where the 1-cycle SVC falls below the
#: 4-cycle ARB in the published renderings.
CROSSOVER_GAPS = {("fig19", "compress"), ("fig20", "compress")}


def read_rendering(experiment):
    """``{metric: {benchmark: {machine: cell}}}`` from every table of
    one committed rendering. A column header ``"<machine> <metric>"``
    names its cell; a block whose second line is not a dash rule (the
    bar charts) is not a table."""
    text = (RESULTS / f"{experiment}.txt").read_text()
    tables = {}
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if not line.startswith("== ")]
        if len(lines) < 3 or set(lines[1]) - {"-", " "}:
            continue
        headers = CELL.split(lines[0].strip())
        for line in lines[2:]:
            benchmark, *cells = CELL.split(line.strip())
            for header, cell in zip(headers[1:], cells):
                machine, _, metric = header.partition(" ")
                tables.setdefault(metric, {}).setdefault(benchmark, {})[machine] = cell
    return tables


def numbers(row):
    return {machine: float(cell) for machine, cell in row.items()}


def test_one_rendering_per_experiment():
    assert sorted(path.stem for path in RESULTS.glob("*.txt")) == sorted(EXPERIMENTS)
    for name in EXPERIMENTS:
        first = (RESULTS / f"{name}.txt").read_text().splitlines()[0]
        assert first == f"== {name} (scale={PUBLISHED_SCALE}) =="


@pytest.mark.parametrize("figure", FIGURES)
def test_arb_ipc_does_not_rise_with_hit_time(figure):
    for benchmark, row in read_rendering(figure)["IPC"].items():
        ipc = numbers(row)
        series = [ipc[f"arb_{hit}c"] for hit in (1, 2, 3, 4)]
        assert series == sorted(series, reverse=True), (benchmark, series)


@pytest.mark.parametrize(
    "figure,bench",
    [
        pytest.param(
            figure,
            bench,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the SVC's bus saturates on compress (ROADMAP item 3: "
                "committed copies block the X grant)",
            ),
        )
        if (figure, bench) in CROSSOVER_GAPS
        else (figure, bench)
        for figure in FIGURES
        for bench in BENCHMARKS
    ],
)
def test_svc_beats_the_4_cycle_arb(figure, bench):
    # ``bench``, not ``benchmark``: a widely installed pytest timing
    # plugin reserves that argument name for its fixture.
    ipc = numbers(read_rendering(figure)["IPC"][bench])
    assert ipc["svc_1c"] > ipc["arb_4c"]


def test_table2_miss_ratios_are_positive():
    rows = read_rendering("table2")["miss"]
    assert sorted(rows) == sorted(BENCHMARKS)
    for benchmark, row in rows.items():
        miss = numbers(row)
        assert miss["arb_32k"] > 0 and miss["svc_4x8k"] > 0, benchmark


def test_table3_utilizations_lie_in_the_unit_interval():
    rows = read_rendering("table3")["util"]
    assert sorted(rows) == sorted(BENCHMARKS)
    for benchmark, row in rows.items():
        util = numbers(row)
        assert 0 < util["svc_4x8k"] <= 1 and 0 < util["svc_4x16k"] <= 1, benchmark


def test_design_progression():
    """Lazy commits (EC) beat the base design's writeback bursts, and
    the final design is the best, or within 5% of it."""
    for benchmark, row in read_rendering("ablation_designs")["IPC"].items():
        ipc = numbers(row)
        assert ipc["svc_ec"] > ipc["svc_base"], benchmark
        assert (
            ipc["svc_final"] >= max(ipc["svc_base"], ipc["svc_ec"]) * 0.95
        ), benchmark


@pytest.mark.parametrize("experiment", ("ablation_update", "ablation_scaling"))
def test_every_ablation_point_commits(experiment):
    for benchmark, row in read_rendering(experiment)["IPC"].items():
        assert all(ipc > 0 for ipc in numbers(row).values()), benchmark


def test_more_stages_do_not_slow_the_contention_free_arb():
    for benchmark, row in read_rendering("ablation_scaling")["IPC"].items():
        ipc = numbers(row)
        assert ipc["arb2c_8pu"] >= ipc["arb2c_2pu"] * 0.95, benchmark


def test_coarser_versioning_blocks_only_add_squashes():
    """False sharing: a 16-byte versioning block squashes at least as
    often as a 4-byte one, unless it never squashes."""
    for benchmark, row in read_rendering("ablation_linesize")["squashes"].items():
        squashes = {machine: int(cell) for machine, cell in row.items()}
        assert (
            squashes["svc_vb16"] >= squashes["svc_vb4"] or squashes["svc_vb16"] == 0
        ), benchmark
