"""The trace path of ``python -m repro <experiment> --report DIR``: an
unknown name is a usage error (2) caught before any point runs, so no
Chrome trace is left behind."""

from repro.cli import main


def test_trace_cli_rejects_unknown_experiment(capsys, tmp_path):
    out = tmp_path / "traces"
    assert main(["nope", "--report", str(out)]) == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert not (out / "nope.trace.json").exists()


def test_trace_cli_rejects_unknown_benchmark(capsys, tmp_path):
    out = tmp_path / "traces"
    assert main(["fig19", "--benchmarks", "nope", "--report", str(out)]) == 2
    assert "unknown benchmarks" in capsys.readouterr().err
    assert not (out / "fig19.trace.json").exists()
