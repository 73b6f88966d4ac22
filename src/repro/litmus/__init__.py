"""Litmus-test conformance corpus (``repro.litmus``).

Named memory-model litmus shapes — SB, MP, LB, IRIW, CoRR, CoWW plus
SVC-specific shapes — compiled into task programs and checked against
pinned allowed-outcome sets on every tier by exhaustive schedule
exploration (:mod:`repro.modelcheck`). ``python -m repro litmus`` is
the CLI; docs/LITMUS.md is the catalog.
"""

from repro.litmus.runner import (
    LitmusReport,
    ShapeCheck,
    build_parser,
    check_shape,
    litmus_main,
    run_litmus,
)
from repro.litmus.shapes import (
    LITMUS_SHAPES,
    LitmusShape,
    compile_shape,
    outcome_valuation,
    register_map,
    sequential_valuation,
)

__all__ = [
    "LITMUS_SHAPES",
    "LitmusReport",
    "LitmusShape",
    "ShapeCheck",
    "build_parser",
    "check_shape",
    "compile_shape",
    "litmus_main",
    "outcome_valuation",
    "register_map",
    "run_litmus",
    "sequential_valuation",
]
