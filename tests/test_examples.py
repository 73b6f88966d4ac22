"""Every example script runs end to end and prints what it promises."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    ).stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "squashed tasks [2, 3]" in out
    assert "memory[A] = 111" in out


@pytest.mark.parametrize("checker_args", [(), ("--no-checker",)],
                         ids=["checker", "no-checker"])
def test_protocol_walkthrough_covers_all_figures(checker_args):
    out = run_example("protocol_walkthrough.py", *checker_args)
    for figure in ("Figure 8", "Figure 9", "Figures 12/13", "Figures 14/15",
                   "Figure 17"):
        assert figure in out
    assert "local reuse, no bus" in out     # Fig 14/15 time line 1
    assert "bus request" in out             # Fig 14/15 time line 2
    audited = "audited by the runtime invariant checker" in out
    assert audited == (not checker_args)


def test_dependence_violation_story():
    out = run_example("dependence_violation.py")
    assert "squashed tasks: [2, 3]" in out
    assert "memory[A] = 42" in out


def test_speculative_parallel_loop_verifies_kernels():
    out = run_example("speculative_parallel_loop.py")
    lines = {line.split(":")[0].strip(): line for line in out.splitlines()}
    assert "result matches sequential execution" in lines["histogram"]
    # The independent loop's own count; "50 violation squashes" fails.
    assert " 0 violation squashes" in lines["memcpy"]
    assert "all node counters correct" in lines["pointer chase"]


def test_spec95_campaign_smoke():
    out = run_example("spec95_campaign.py", "gcc", "0.03", timeout=300)
    assert "Table 2" in out and "Figure 19" in out
    assert "svc_1c" in out
