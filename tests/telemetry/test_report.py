"""Run reports: renderers, Prometheus, and ``python -m repro
<experiment> --report DIR``."""

import json

from repro.cli import build_parser, main
from repro.telemetry.exporters import validate_trace_file
from repro.telemetry.report import (
    PROM_FILENAME,
    prometheus_exposition,
    render_markdown,
    write_report_files,
)


def synthetic_report(**overrides):
    """A hand-built report structure exercising every renderer section:
    counters, tiers, paper rows, histograms, dropped spans, a
    quarantined point with flight records."""
    report = {
        "meta": {
            "experiment": "fig19",
            "generated": "2026-01-01 00:00:00",
            "benchmarks": ["compress"],
            "machines": ["svc_1c", "arb_1c"],
            "paper_metric": "IPC",
        },
        "counters": {"points": 2, "ok": 1, "quarantined": 1},
        "tiers": [
            {
                "machine": "svc_1c",
                "points": 1,
                "mean_ipc": 1.5,
                "mean_miss": 0.02,
                "mean_bus_util": 0.4,
                "events": 1000,
                "wall_s": 0.5,
                "events_per_sec": 2000,
            },
            {
                "machine": "arb_1c",
                "points": 1,
                "mean_ipc": 1.7,
                "mean_miss": 0.01,
                "mean_bus_util": 0.3,
                "events": 1000,
                "wall_s": 0.0,
                "events_per_sec": 0,
            },
        ],
        "paper": [
            {
                "benchmark": "compress",
                "machine": "svc_1c",
                "measured": 1.5,
                "paper": 1.79,
            }
        ],
        "metrics": {
            "counters": {"check.violations": {"unit": "", "value": 3}},
            "histograms": {
                "svc.vol_length": {
                    "unit": "versions",
                    "edges": [0, 1, 2],
                    "counts": [5, 3, 1, 1],
                    "count": 10,
                    "total": 9,
                    "min": 0,
                    "max": 3,
                }
            },
        },
        "dropped_spans": 4,
        "quarantined": [
            {
                "point": 2,
                "benchmark": "compress",
                "machine": "arb_2c",
                "attempts": 2,
                "failures": ["chaos raise", "chaos raise"],
                "flight": [
                    {
                        "attempt": 0,
                        "entries": [
                            {"kind": "attempt_started"},
                            {"kind": "exception"},
                        ],
                    }
                ],
            }
        ],
    }
    report.update(overrides)
    return report


# -- renderers ---------------------------------------------------------------


def test_markdown_covers_every_section():
    text = render_markdown(synthetic_report())
    assert "# Run report: fig19" in text
    assert "| svc_1c | 1 | 1.500" in text
    assert "2000" in text  # events/sec for the fresh tier
    assert "## Paper comparison (IPC)" in text
    assert "1.79" in text
    assert "svc.vol_length" in text
    assert "<= 0" in text and "> 2" in text  # buckets incl. overflow
    assert "4 span(s) dropped" in text
    assert "## Quarantined points" in text
    assert "attempt_started, exception" in text


def test_markdown_histogram_bars_scale_to_peak():
    text = render_markdown(synthetic_report())
    # Peak bucket (count 5) renders the full 40-char bar.
    assert "#" * 40 in text
    assert "#" * 41 not in text


def test_empty_campaign_renders_without_sections():
    report = synthetic_report(
        counters={},
        tiers=[],
        paper=[],
        metrics={"counters": {}, "histograms": {}},
        dropped_spans=0,
        quarantined=[],
    )
    text = render_markdown(report)
    assert "No campaign counters" in text
    assert "Histograms" not in text
    assert "WARNING" not in text


# -- prometheus exposition ---------------------------------------------------


def test_prometheus_histogram_buckets_are_cumulative():
    text = prometheus_exposition(synthetic_report()["metrics"])
    lines = text.splitlines()
    assert '# TYPE repro_svc_vol_length histogram' in lines
    assert 'repro_svc_vol_length_bucket{le="0"} 5' in lines
    assert 'repro_svc_vol_length_bucket{le="1"} 8' in lines
    assert 'repro_svc_vol_length_bucket{le="2"} 9' in lines
    assert 'repro_svc_vol_length_bucket{le="+Inf"} 10' in lines
    assert "repro_svc_vol_length_sum 9" in lines
    assert "repro_svc_vol_length_count 10" in lines


def test_prometheus_counters_and_campaign_counters():
    text = prometheus_exposition(
        synthetic_report()["metrics"], campaign_counters={"retries": 2}
    )
    lines = text.splitlines()
    assert "# TYPE repro_check_violations counter" in lines
    assert "repro_check_violations 3" in lines
    assert "# TYPE repro_campaign_retries counter" in lines
    assert "repro_campaign_retries 2" in lines
    assert text.endswith("\n")


def test_prometheus_names_are_sanitized():
    text = prometheus_exposition(
        {
            "counters": {"bus/weird-name.x": {"unit": "", "value": 1}},
            "histograms": {},
        }
    )
    assert "repro_bus_weird_name_x 1" in text


# -- file bundle -------------------------------------------------------------


def test_write_report_files_bundle(tmp_path):
    written = write_report_files(synthetic_report(), str(tmp_path))
    assert sorted(written) == ["md", "prom", "trace"]
    assert written["md"].endswith("fig19.report.md")
    assert written["trace"].endswith("fig19.trace.json")
    assert written["prom"].endswith(PROM_FILENAME)
    # No payloads: the trace is empty but still loadable.
    validate_trace_file(written["trace"])
    # Campaign counters go into the prometheus exposition.
    prom = open(written["prom"]).read()
    assert "repro_campaign_quarantined 1" in prom


# -- CLI ---------------------------------------------------------------------


def test_parser_prog_and_flags():
    parser = build_parser()
    assert parser.prog == "python -m repro"
    args = parser.parse_args(
        ["ablation_designs", "--designs", "base,final", "--report", "out",
         "--stream", "s.ndjson", "--progress"]
    )
    assert args.experiment == "ablation_designs"
    assert args.designs == "base,final"
    assert args.report == "out"
    assert args.stream == "s.ndjson"
    assert args.progress is True


class TestExitCodes:
    """0 clean report, 1 partial campaign, 2 usage/config error."""

    def test_unknown_experiment_is_two(self, capsys, tmp_path):
        assert main(["nope", "--report", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_benchmark_is_two(self, capsys, tmp_path):
        code = main(["fig19", "--benchmarks", "linpack", "--report", str(tmp_path)])
        assert code == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_designs_on_wrong_experiment_is_two(self, capsys, tmp_path):
        code = main(["fig19", "--designs", "base", "--report", str(tmp_path)])
        assert code == 2
        assert "ablation_designs" in capsys.readouterr().err

    def test_unknown_design_is_two(self, capsys, tmp_path):
        code = main(
            ["ablation_designs", "--designs", "base,warp9",
             "--report", str(tmp_path)]
        )
        assert code == 2
        assert "warp9" in capsys.readouterr().err

    def test_bad_timeout_is_config_error_two(self, capsys, tmp_path):
        code = main(["fig19", "--timeout", "soon", "--report", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_quarantined_campaign_is_one_but_writes_report(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "fig19", "--scale", "0.01", "--benchmarks", "compress",
                "--retries", "0", "--chaos", "7",
                "--report", str(tmp_path),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "PARTIAL CAMPAIGN" in captured.err
        text = (tmp_path / "fig19.report.md").read_text()
        assert "Quarantined points" in text


def test_report_writes_valid_perfetto_trace_and_metrics(tmp_path, capsys):
    """``--report`` writes the Markdown report, a Perfetto-loadable
    trace with nested bus_txn -> snoop -> vol_walk spans, and the
    Prometheus exposition, all from one campaign."""
    code = main(
        [
            "fig19", "--scale", "0.02", "--benchmarks", "compress",
            "--report", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "telemetry: 5 point(s)" in out
    for kind in ("md", "trace", "prom"):
        assert f"report[{kind}]" in out
    assert "| svc_1c |" in (tmp_path / "fig19.report.md").read_text()
    validate_trace_file(
        str(tmp_path / "fig19.trace.json"),
        require_kinds=("bus_txn", "snoop", "vol_walk", "commit", "mem_op", "run"),
    )
    trace = json.loads((tmp_path / "fig19.trace.json").read_text())
    assert trace["otherData"] == {
        "experiment": "fig19",
        "benchmarks": ["compress"],
        "machines": ["svc_1c", "arb_1c", "arb_2c", "arb_3c", "arb_4c"],
    }
    counts = {}
    for line in (tmp_path / PROM_FILENAME).read_text().splitlines():
        name, _, value = line.partition(" ")
        counts[name] = value
    assert int(counts["repro_svc_snoop_fanout_count"]) > 0
    assert int(counts["repro_bus_wait_cycles_count"]) > 0


def test_end_to_end_report_covers_all_six_tiers(tmp_path, capsys):
    """Acceptance: one CLI invocation sweeps every design tier and the
    report + stream + prometheus bundle covers all six."""
    from repro.svc.designs import DESIGNS
    from repro.telemetry.stream import validate_stream_file

    stream_path = tmp_path / "stream.ndjson"
    code = main(
        [
            "ablation_designs",
            "--designs", "base,ec,ecs,hr,rl,final",
            "--benchmarks", "compress",
            "--scale", "0.01",
            "--report", str(tmp_path),
            "--stream", str(stream_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "report[md]" in out and "report[prom]" in out

    markdown = (tmp_path / "ablation_designs.report.md").read_text()
    assert sorted(DESIGNS) == sorted(
        ("base", "ec", "ecs", "hr", "rl", "final")
    )
    for design in DESIGNS:
        assert f"svc_{design}" in markdown
    # Fresh serial executions: every tier has wall time and throughput.
    for line in markdown.splitlines():
        if line.startswith("| svc_"):
            assert line.split("|")[-2].strip() != "-"

    prom = (tmp_path / PROM_FILENAME).read_text()
    assert "repro_svc_vol_length_bucket" in prom
    assert "repro_campaign_points 6" in prom

    assert validate_stream_file(str(stream_path)) == []


def test_report_resume_serves_cached_points(tmp_path, capsys):
    """A warm result store renders a report without recomputing; the
    tier table then has events but no wall times."""
    store = str(tmp_path / "store")
    argv = [
        "fig19", "--scale", "0.01", "--benchmarks", "compress",
        "--resume", "--store", store, "--report", str(tmp_path / "r1"),
    ]
    assert main(argv) == 0
    argv2 = [
        "fig19", "--scale", "0.01", "--benchmarks", "compress",
        "--resume", "--store", store, "--report", str(tmp_path / "r2"),
    ]
    assert main(argv2) == 0
    captured = capsys.readouterr()
    assert "0 recomputed" in captured.err and "5 cached" in captured.err
    text = (tmp_path / "r2" / "fig19.report.md").read_text()
    # Cached points carry no wall time, so throughput shows "-".
    assert "| svc_1c |" in text
    # Cached results keep their telemetry payloads, so the warm report
    # still has a full trace.
    validate_trace_file(
        str(tmp_path / "r2" / "fig19.trace.json"), require_kinds=("bus_txn",)
    )
