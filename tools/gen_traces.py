#!/usr/bin/env python
"""Regenerate the bundled trace-kernel corpus (examples/traces/).

Every kernel in ``repro.workloads.traceprog.TRACE_KERNELS`` lowers to
one JSON-lines trace file. Generation is fully seeded, so the output is
byte-identical run to run — the files are golden (a test regenerates
them into a temp dir and compares bytes), and any intentional kernel
change must be accompanied by rerunning this script.

Usage::

    PYTHONPATH=src python tools/gen_traces.py [--out examples/traces] [--check]

``--check`` regenerates into memory and fails (exit 1) if any bundled
file is missing or stale, without writing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.workloads.traceio import encode_task  # noqa: E402
from repro.workloads.traceprog import TRACE_KERNELS  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), "..", "examples", "traces"
)


def render_kernel(name: str) -> bytes:
    """The canonical trace-file bytes of one kernel."""
    return "".join(
        json.dumps(encode_task(task)) + "\n" for task in TRACE_KERNELS[name]()
    ).encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="output directory")
    parser.add_argument(
        "--check", action="store_true",
        help="verify the bundled files are current instead of writing",
    )
    args = parser.parse_args(argv)

    stale = []
    os.makedirs(args.out, exist_ok=True)
    for name in sorted(TRACE_KERNELS):
        path = os.path.join(args.out, f"{name}.jsonl")
        content = render_kernel(name)
        if args.check:
            try:
                with open(path, "rb") as handle:
                    current = handle.read()
            except OSError:
                current = None
            if current != content:
                stale.append(path)
                continue
            print(f"ok: {path}")
            continue
        with open(path, "wb") as handle:
            handle.write(content)
        print(f"wrote {path} ({len(content)} bytes)")
    if stale:
        for path in stale:
            print(f"STALE: {path} (rerun tools/gen_traces.py)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
