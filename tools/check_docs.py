#!/usr/bin/env python
"""Docs lint: intra-repo links, script paths and ``repro.`` names must
resolve, quoted commands must parse, quoted flags must exist.

Documentation rots in two characteristic ways: a file gets renamed and
every ``[link](docs/OLD.md)`` pointing at it dangles, or a CLI flag
gets renamed and every quoted ``python -m repro ...`` invocation stops
working while still looking authoritative. Both failure modes are
mechanical, so CI checks them mechanically over ``README.md``,
``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``:

* every relative Markdown link target (``[text](path)`` /
  ``![alt](path)``, anchors stripped) must exist on disk,
* every ``tools/<name>.py``, ``bench/<name>.py`` and
  ``benchmarks/<name>.py`` script path the docs name must exist under
  the repository root,
* every inline code span that starts with a ``--name`` flag must name
  one that some ``add_argument`` call in ``src/``, ``bench/`` or
  ``tools/`` defines,
* every inline code span that is a dotted ``repro.`` name (say
  ``repro.svc.vol.build_vol``) must import and resolve attribute by
  attribute, so a deleted or moved module, class or function does not
  stay in the docs, and
* every ``python -m repro ...`` command quoted in a code fence or
  inline code span must parse against the *real* argument parsers —
  the top-level experiment CLI (``repro.cli.build_parser``) and the
  dispatched ``replay`` / ``modelcheck`` / ``litmus`` subcommand
  parsers — and top-level experiment ids must exist in the
  ``EXPERIMENTS`` registry.

Commands containing ``<placeholder>`` tokens are validated for
subcommand shape only (the placeholder is substituted with a dummy
operand before parsing). Exit 0 when clean, 1 with a finding report.

Usage::

    python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import io
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

#: Markdown files under the docs gate: the README, the design notes,
#: the published results plus everything in docs/. (PAPER.md /
#: SNIPPETS.md hold retrieved third-party material and are not this
#: repo's documentation surface.)
DOC_GLOBS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs"]

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
#: ``python -m repro`` exactly — not repro.telemetry.exporters etc.,
#: which are module paths with their own __main__ handling.
CMD_RE = re.compile(r"python -m repro(?![\w.])")
#: A fence line that *is* an invocation (optionally behind a shell
#: prompt and env-var assignments), as opposed to one that merely
#: mentions the command in a diagram or sample output.
FENCE_CMD_RE = re.compile(r"^(\$\s+)?([A-Za-z_]+=\S+\s+)*python -m repro(?![\w.])")
PLACEHOLDER_RE = re.compile(r"<[^<>\s]+>")
#: A repository script named from the root (a relative link such as
#: ``../tools/x.py`` is the link check's job).
SCRIPT_RE = re.compile(r"(?<![\w./-])((?:tools|bench|benchmarks)/\w+\.py)\b")
#: The trees whose argument parsers define the flags docs may quote.
FLAG_SOURCES = ["src", "bench", "tools"]
#: The option strings an ``add_argument(...)`` call starts with.
ADD_ARGUMENT_RE = re.compile(
    r"add_argument\(\s*((?:[\"']-[\w-]*[\"']\s*,\s*)*[\"']-[\w-]*[\"'])"
)
FLAG_RE = re.compile(r"--\w[\w-]*")
#: An inline code span that is exactly a dotted ``repro`` name.
NAME_RE = re.compile(r"repro(?:\.\w+)+")


def doc_files():
    paths = []
    for entry in DOC_GLOBS:
        full = os.path.join(REPO, entry)
        if os.path.isdir(full):
            for name in sorted(os.listdir(full)):
                if name.endswith(".md"):
                    paths.append(os.path.join(full, name))
        elif os.path.exists(full):
            paths.append(full)
    return paths


# -- link checking -----------------------------------------------------------


def check_links(path, text):
    """Yield findings for relative link targets that do not resolve."""
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target.split("#", 1)[0])
        )
        if not os.path.exists(resolved):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{os.path.relpath(path, REPO)}:{line}: broken link -> {target}"


def check_script_paths(path, text):
    """Yield findings for ``tools/``, ``bench/`` or ``benchmarks/``
    script paths that do not exist: a deleted script must not stay in
    the docs."""
    for match in SCRIPT_RE.finditer(text):
        if not os.path.exists(os.path.join(REPO, match.group(1))):
            line = text.count("\n", 0, match.start()) + 1
            yield (
                f"{os.path.relpath(path, REPO)}:{line}: "
                f"missing script -> {match.group(1)}"
            )


def defined_flags():
    """Every ``--name`` flag an ``add_argument`` call under
    ``FLAG_SOURCES`` defines."""
    flags = set()
    for top in FLAG_SOURCES:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, top)):
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    source = handle.read()
                for match in ADD_ARGUMENT_RE.finditer(source):
                    flags.update(FLAG_RE.findall(match.group(1)))
    return flags


def check_flags(path, text, flags):
    """Yield findings for inline code spans that start with a ``--name``
    flag not in ``flags``: a deleted or renamed option must not stay in
    the docs."""
    text = _without_fences(text)
    for match in INLINE_CODE_RE.finditer(text):
        flag = FLAG_RE.match(match.group(1))
        if flag is not None and flag.group(0) not in flags:
            line = text.count("\n", 0, match.start()) + 1
            yield (
                f"{os.path.relpath(path, REPO)}:{line}: "
                f"unknown flag -> {flag.group(0)}"
            )


def unresolved_prefix(name):
    """The shortest dotted prefix of ``name`` that neither an attribute
    nor an importable submodule provides, or ``None`` when the whole
    name resolves."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for index, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        prefix = ".".join(parts[:index])
        try:
            obj = importlib.import_module(prefix)
        except ModuleNotFoundError:
            return prefix
    return None


def check_names(path, text):
    """Yield findings for inline code spans that are ``repro.`` names
    that do not resolve."""
    text = _without_fences(text)
    for match in INLINE_CODE_RE.finditer(text):
        name = match.group(1)
        if NAME_RE.fullmatch(name) is None:
            continue
        missing = unresolved_prefix(name)
        if missing is not None:
            line = text.count("\n", 0, match.start()) + 1
            where = "" if missing == name else f" (no {missing})"
            yield (
                f"{os.path.relpath(path, REPO)}:{line}: "
                f"unresolved name -> {name}{where}"
            )


# -- command extraction ------------------------------------------------------


def _fence_commands(text):
    """``python -m repro ...`` lines inside ``` fences, continuations
    joined, ``$``/env-var prefixes stripped."""
    in_fence = False
    pending = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        line = pending + stripped
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if FENCE_CMD_RE.match(line):
            yield lineno, line


def _without_fences(text):
    """Blank out ``` fenced blocks (preserving line numbers) so the
    inline-code scan cannot match across fence delimiters."""
    out = []
    in_fence = False
    for raw in text.splitlines(keepends=True):
        if raw.strip().startswith("```"):
            in_fence = not in_fence
            out.append("\n" if raw.endswith("\n") else "")
        elif in_fence:
            out.append("\n" if raw.endswith("\n") else "")
        else:
            out.append(raw)
    return "".join(out)


def _inline_commands(text):
    """``python -m repro ...`` quoted in inline code spans (which may
    wrap across source lines)."""
    text = _without_fences(text)
    for match in INLINE_CODE_RE.finditer(text):
        snippet = " ".join(match.group(1).split())
        if "python -m repro" in snippet:
            lineno = text.count("\n", 0, match.start()) + 1
            yield lineno, snippet


def extract_commands(text):
    """(line, command) pairs: everything from ``python -m repro`` to
    the end of the quoted snippet."""
    for lineno, line in list(_fence_commands(text)) + list(_inline_commands(text)):
        match = CMD_RE.search(line)
        if match is None:
            continue
        command = line[match.start():].split(" # ")[0].strip().rstrip(".,;:")
        yield lineno, " ".join(command.split())


# -- command validation ------------------------------------------------------


def _parse_with(parser, tokens):
    """parse_args that returns an error string instead of exiting."""
    capture = io.StringIO()
    try:
        with redirect_stderr(capture), redirect_stdout(capture):
            parser.parse_args(tokens)
    except SystemExit as exc:
        if exc.code not in (0, None):
            detail = capture.getvalue().strip().splitlines()
            return detail[-1] if detail else f"exit {exc.code}"
    return None


def check_command(command):
    """Return an error string when ``command`` does not parse, else None."""
    from repro.cli import build_parser as top_parser
    from repro.harness.experiments import EXPERIMENTS

    rest = CMD_RE.sub("", command, count=1).strip()
    if not rest:
        return None  # bare module reference in prose
    # Placeholders mark operands the reader supplies; substitute a
    # dummy so the surrounding flags still get validated.
    tokens = shlex.split(PLACEHOLDER_RE.sub("PLACEHOLDER", rest))

    subcommand = tokens[0]
    if subcommand == "replay":
        from repro.replay import build_parser
        return _parse_with(build_parser(), tokens[1:])
    if subcommand == "modelcheck":
        from repro.modelcheck.runner import build_parser
        return _parse_with(build_parser(), tokens[1:])
    if subcommand == "litmus":
        from repro.litmus.runner import build_parser
        return _parse_with(build_parser(), tokens[1:])

    error = _parse_with(top_parser(), tokens)
    if error is not None:
        return error
    known = set(EXPERIMENTS) | {"list", "PLACEHOLDER"}
    if subcommand not in known:
        return f"unknown experiment id {subcommand!r}"
    return None


# -- driver ------------------------------------------------------------------


def main() -> int:
    findings = []
    flags = defined_flags()
    checked_links = 0
    checked_commands = 0
    for path in doc_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, REPO)
        before = len(findings)
        findings.extend(check_links(path, text))
        findings.extend(check_script_paths(path, text))
        findings.extend(check_flags(path, text, flags))
        findings.extend(check_names(path, text))
        checked_links += len(LINK_RE.findall(text))
        for lineno, command in extract_commands(text):
            checked_commands += 1
            error = check_command(command)
            if error is not None:
                findings.append(f"{rel}:{lineno}: {command!r}: {error}")
        del before

    for finding in findings:
        print(finding)
    status = "FAIL" if findings else "ok"
    print(
        f"{status}: {checked_links} links, {checked_commands} quoted "
        f"commands across {len(doc_files())} files, "
        f"{len(findings)} findings"
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
