"""The docs stay wired to reality: links and ``repro.`` names resolve,
quoted commands parse, quoted flags exist.

tools/check_docs.py is CI's docs gate; these tests pin its extraction
rules (fences vs. inline code, continuations, placeholders, prose
mentions) and run the real gate over the repository so a doc rot
regression fails the suite, not just the docs CI job.
"""

import importlib.util
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(TOOLS, "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExtraction:
    def test_fence_command_with_continuation(self, check_docs):
        text = (
            "```\n"
            "python -m repro fig19 --workers 4 \\\n"
            "    --retries 2\n"
            "```\n"
        )
        commands = [c for _, c in check_docs.extract_commands(text)]
        assert commands == ["python -m repro fig19 --workers 4 --retries 2"]

    def test_fence_mention_in_diagram_is_not_a_command(self, check_docs):
        text = "```\nrepro.cli   python -m repro — the experiment CLI\n```\n"
        assert list(check_docs.extract_commands(text)) == []

    def test_inline_code_spanning_lines(self, check_docs):
        text = "see `python -m repro modelcheck\n--pus 2` for details"
        commands = [c for _, c in check_docs.extract_commands(text)]
        assert commands == ["python -m repro modelcheck --pus 2"]

    def test_inline_scan_does_not_cross_fences(self, check_docs):
        text = "```\noutput text\n```\nprose\n```\nmore output\n```\n"
        assert list(check_docs.extract_commands(text)) == []

    def test_module_paths_are_not_matched(self, check_docs):
        text = "`python -m repro.telemetry.exporters trace.json`"
        assert list(check_docs.extract_commands(text)) == []


class TestValidation:
    def test_valid_commands(self, check_docs):
        for command in (
            "python -m repro fig19 --workers 4 --chaos 7",
            "python -m repro replay <capture.json> --shrink",
            "python -m repro modelcheck --pus 2 --ops 3 --lines 2",
            "python -m repro fig19 --scale 0.02 --report reports",
            "python -m repro",  # bare module reference in prose
        ):
            assert check_docs.check_command(command) is None, command

    def test_unknown_flag_and_experiment_fail(self, check_docs):
        assert check_docs.check_command("python -m repro fig19 --bogus")
        assert check_docs.check_command("python -m repro notanexperiment")
        assert check_docs.check_command("python -m repro modelcheck --bogus")

    def test_broken_link_detected(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("[dangling](missing.md) [ok](page.md)")
        findings = list(check_docs.check_links(str(page), page.read_text()))
        assert len(findings) == 1
        assert "missing.md" in findings[0]

    def test_missing_script_path_detected(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "Run `python tools/no_such_tool.py --quick`, then\n"
            "`python3 bench/run.py` and `python tools/check_docs.py`.\n"
        )
        findings = list(
            check_docs.check_script_paths(str(page), page.read_text())
        )
        assert len(findings) == 1
        assert "page.md:1: missing script -> tools/no_such_tool.py" in findings[0]

    def test_unknown_flag_detected(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "Smoke with `--seeds 5` and `--trace 1`, then\n"
            "audit with `--no-such-flag` (`fig19 --bogus` is prose).\n"
        )
        flags = check_docs.defined_flags()
        assert {"--seeds", "--trace", "--workload"} <= flags
        findings = list(check_docs.check_flags(str(page), page.read_text(), flags))
        assert len(findings) == 1
        assert "page.md:2: unknown flag -> --no-such-flag" in findings[0]

    def test_unresolved_repro_name_detected(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`repro.svc.vol.build_vol` and `repro.telemetry.exporters` resolve,\n"
            "`repro.svc.cache.scan_holders` and `repro.no_such_module.x` do\n"
            "not, and `repro.svc.vol.build_vol()` is not a bare name.\n"
        )
        findings = list(check_docs.check_names(str(page), page.read_text()))
        assert len(findings) == 2
        assert findings[0].endswith(
            "page.md:2: unresolved name -> repro.svc.cache.scan_holders"
        )
        assert findings[1].endswith(
            "page.md:2: unresolved name -> repro.no_such_module.x "
            "(no repro.no_such_module)"
        )


class TestLiveRepo:
    def test_repository_docs_are_clean(self, check_docs, capsys):
        assert check_docs.main() == 0
        assert "0 findings" in capsys.readouterr().out
