"""Golden-regeneration smoke test: the experiment pipeline, end to end.

The fixtures are written by the same command as the published
renderings in ``benchmarks/results/``: ``python -m repro <experiment>
--scale S --output FILE``. This test reruns that command at a tiny
scale and compares the file it writes with the pinned fixture, so a
timing-model or renderer change that moves any rendered number fails
here first.
"""

import difflib
import os

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Small enough to run in ~1s; large enough that every benchmark emits
#: non-trivial miss/IPC numbers.
GOLDEN_SCALE = "0.02"

#: fixture file -> the experiment that writes it.
GOLDENS = {
    "table2_scale002.txt": "table2",
    "fig19_scale002.txt": "fig19",
}


@pytest.mark.parametrize("filename", sorted(GOLDENS))
def test_small_scale_rendering_matches_golden(filename, tmp_path, capsys):
    experiment = GOLDENS[filename]
    with open(os.path.join(FIXTURES, filename)) as handle:
        expected = handle.read()
    written = tmp_path / filename
    assert main([experiment, "--scale", GOLDEN_SCALE, "--output", str(written)]) == 0
    capsys.readouterr()
    actual = written.read_text()
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=f"fixtures/{filename}",
                tofile="regenerated",
                lineterm="",
            )
        )
        pytest.fail(
            f"{filename}: small-scale rendering diverged from the golden.\n"
            f"{diff}\n"
            "If the change is intentional, regenerate this fixture with\n"
            f"  python -m repro {experiment} --scale {GOLDEN_SCALE} "
            f"--output tests/harness/fixtures/{filename}\n"
            "and every benchmarks/results/ rendering at --scale 0.35."
        )


def test_goldens_cover_the_published_machines():
    """The fixtures exercise the same machine columns the published
    renderings use, so format drift cannot hide."""
    with open(os.path.join(FIXTURES, "table2_scale002.txt")) as handle:
        table2 = handle.read()
    assert "arb_32k" in table2 and "svc_4x8k" in table2
    with open(os.path.join(FIXTURES, "fig19_scale002.txt")) as handle:
        fig19 = handle.read()
    for machine in ("svc_1c", "arb_1c", "arb_2c", "arb_3c", "arb_4c"):
        assert machine in fig19
