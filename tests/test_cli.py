"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table2", "table3", "fig19", "fig20"):
        assert name in out


def test_unknown_experiment_errors(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_benchmark_errors(capsys):
    assert main(["table2", "--benchmarks", "linpack"]) == 2
    assert "unknown benchmarks" in capsys.readouterr().err


def test_runs_table2_at_smoke_scale(capsys, tmp_path):
    output = tmp_path / "t2.txt"
    code = main([
        "table2", "--benchmarks", "gcc", "--scale", "0.02",
        "--output", str(output),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "gcc" in out and "(paper)" in out
    assert "gcc" in output.read_text()


def test_runs_figure_series(capsys):
    assert main(["fig19", "--benchmarks", "perl", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "svc_1c" in out and "arb_4c" in out


def test_parser_help_mentions_experiments():
    parser = build_parser()
    assert "table2" in parser.format_help()


class TestExitCodes:
    """Pin the standardized exit codes: 0 success, 1 run/point failure
    (including quarantined points), 2 usage/config error."""

    def test_success_is_zero(self):
        assert main(["table2", "--benchmarks", "gcc", "--scale", "0.02"]) == 0

    def test_usage_errors_are_two(self, capsys):
        assert main(["nope"]) == 2
        assert main(["table2", "--benchmarks", "linpack"]) == 2
        capsys.readouterr()

    def test_bad_workers_env_is_config_error_two(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        assert main(["table2", "--benchmarks", "gcc", "--scale", "0.02"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'banana'" in err

    def test_bad_timeout_flag_is_config_error_two(self, capsys):
        code = main([
            "table2", "--benchmarks", "gcc", "--scale", "0.02",
            "--timeout", "soon",
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_retries_flag_is_config_error_two(self, capsys):
        code = main([
            "table2", "--benchmarks", "gcc", "--scale", "0.02",
            "--retries", "-1",
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_quarantined_point_is_one(self, capsys):
        # A seeded chaos plan attacks attempt 0 of at least one point;
        # with --retries 0 that point quarantines, so the campaign is
        # partial and must exit 1 while still rendering the survivors.
        code = main([
            "table2", "--benchmarks", "gcc", "--scale", "0.02",
            "--retries", "0", "--chaos", "7",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "PARTIAL CAMPAIGN" in captured.err
        assert "quarantined" in captured.err

    def test_chaos_with_retries_recovers_to_zero(self, capsys):
        code = main([
            "table2", "--benchmarks", "gcc", "--scale", "0.02",
            "--retries", "2", "--chaos", "7",
        ])
        assert code == 0
        capsys.readouterr()


def test_resume_flag_uses_result_store(capsys, tmp_path):
    store = str(tmp_path / "store")
    argv = [
        "table2", "--benchmarks", "gcc", "--scale", "0.02",
        "--resume", "--store", store,
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "2 recomputed" in first.err
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "0 recomputed" in second.err and "2 cached" in second.err
    # Identical rendered output either way: warm results are the same
    # bytes the cold run produced.
    assert first.out.split("==", 2)[-1] == second.out.split("==", 2)[-1]


# -- trace workloads ---------------------------------------------------------


def test_workload_and_benchmarks_are_mutually_exclusive(capsys):
    assert main([
        "table2", "--workload", "gcc", "--benchmarks", "gcc",
    ]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_workload_missing_trace_file_is_usage_error(capsys):
    assert main(["table2", "--workload", "trace:/nope/missing.jsonl"]) == 2
    assert "trace file not found" in capsys.readouterr().err


def test_workload_unknown_name_is_usage_error(capsys):
    assert main(["table2", "--workload", "linpack"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_trace_workload_campaign_with_resume(capsys, tmp_path):
    """The tentpole's end-to-end: a bundled trace kernel sweeps a full
    experiment through the supervised engine, and --resume serves every
    point from the store on the second run."""
    store = str(tmp_path / "store")
    argv = [
        "table2", "--workload", "trace:examples/traces/memcpy.jsonl",
        "--scale", "1", "--resume", "--store", store,
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "trace:examples/traces/memcpy.jsonl" in first.out
    assert "2 recomputed" in first.err
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "0 recomputed" in second.err and "2 cached" in second.err


def test_spec95_name_accepted_as_workload(capsys):
    assert main(["table2", "--workload", "gcc", "--scale", "0.02"]) == 0
    assert "gcc" in capsys.readouterr().out


# -- campaign event stream flags --------------------------------------------


def test_stream_flag_writes_valid_ndjson(tmp_path, capsys):
    from repro.telemetry.stream import read_stream, validate_stream_file

    path = tmp_path / "campaign.ndjson"
    code = main([
        "fig19", "--benchmarks", "compress", "--scale", "0.02",
        "--stream", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    assert validate_stream_file(str(path)) == []
    events = read_stream(str(path))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "campaign_started"
    assert kinds[-1] == "campaign_finished"
    assert kinds.count("point_started") == 5
    assert kinds.count("point_finished") == 5
    assert "heartbeat" in kinds


def test_progress_flag_renders_campaign_line(capsys):
    code = main([
        "fig19", "--benchmarks", "compress", "--scale", "0.02",
        "--progress",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "campaign:" in err
    assert "done" in err


def test_quarantine_mentions_flight_records(capsys):
    code = main([
        "table2", "--benchmarks", "gcc", "--scale", "0.02",
        "--retries", "0", "--chaos", "7",
    ])
    assert code == 1
    assert "flight record(s) attached" in capsys.readouterr().err


# -- run reports -------------------------------------------------------------


@pytest.mark.parametrize("subcommand", ["report", "trace", "bench"])
def test_removed_subcommands_exit_two(subcommand, capsys):
    """``report`` and ``trace`` are ``--report DIR`` on the experiment
    command now, and the benchmark is ``python3 bench/run.py``."""
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "fig19"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main([subcommand]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_report_flag_end_to_end(tmp_path, capsys):
    code = main([
        "fig19", "--benchmarks", "compress", "--scale", "0.02",
        "--report", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "svc_1c" in out  # the experiment still renders as usual
    assert "report[md]" in out
    for name in ("fig19.report.md", "fig19.trace.json", "metrics.prom"):
        assert (tmp_path / name).stat().st_size > 0
