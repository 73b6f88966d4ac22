"""Report formatting: tables, series, ASCII charts."""

from repro.harness.charts import render_grouped_bars
from repro.harness.experiments import BenchmarkResult, ExperimentResult
from repro.harness.reporting import format_series, format_table


def make_result():
    result = ExperimentResult(
        experiment="demo",
        paper={"gcc": {"m1": 0.5}},
    )
    for benchmark in ("gcc", "perl"):
        for machine, ipc in (("m1", 2.0), ("m2", 1.0)):
            result.points.append(BenchmarkResult(
                benchmark=benchmark, machine=machine, ipc=ipc,
                miss_ratio=0.1, bus_utilization=0.3, cycles=100,
                instructions=200, violation_squashes=0,
                misprediction_squashes=0,
            ))
    return result


def test_format_table_includes_paper_columns():
    text = format_table(make_result(), ["m1", "m2"], lambda p: p.miss_ratio, "miss")
    assert "m1 (paper)" in text
    assert "0.500" in text       # paper value for gcc/m1
    assert text.count("0.100") >= 2


def test_format_table_dash_for_missing_paper_value():
    text = format_table(make_result(), ["m1", "m2"], lambda p: p.miss_ratio, "miss")
    lines = [l for l in text.splitlines() if l.startswith("perl")]
    assert "-" in lines[0]


def test_format_series_highlight_marks_beats():
    text = format_series(
        make_result(), ["m1", "m2"], lambda p: p.ipc, "IPC", highlight="m1"
    )
    assert "m1 beats" in text
    gcc_row = next(l for l in text.splitlines() if l.startswith("gcc"))
    assert "m2" in gcc_row  # m1 (2.0) beats m2 (1.0)


def test_format_series_without_highlight():
    text = format_series(make_result(), ["m1", "m2"], lambda p: p.ipc, "IPC")
    assert "beats" not in text


def test_format_series_digits():
    text = format_series(
        make_result(), ["m1", "m2"], lambda p: p.cycles, "cycles", digits=0
    )
    gcc_row = next(l for l in text.splitlines() if l.startswith("gcc"))
    assert gcc_row.split() == ["gcc", "100", "100"]


def test_render_grouped_bars_scales_to_peak():
    chart = render_grouped_bars(
        make_result(), ["m1", "m2"], lambda p: p.ipc, "IPC", width=10
    )
    lines = chart.splitlines()
    m1_bar = next(l for l in lines if l.strip().startswith("m1"))
    m2_bar = next(l for l in lines if l.strip().startswith("m2"))
    assert m1_bar.count("#") == 10       # the peak spans the full width
    assert m2_bar.count("#") == 5        # half the peak


def test_render_grouped_bars_empty():
    empty = ExperimentResult(experiment="none")
    assert render_grouped_bars(empty, ["m1"], lambda p: p.ipc, "IPC") == "(no data)"
