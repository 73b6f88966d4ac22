"""Summarize or compare benchmark result sets.

    python3 bench/compare.py RESULTS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appends, one per run.
With one file, it prints each workload x end-to-end metric's median,
quartiles and sample count, and the traced round's layer shares.

With two, the i-th untraced run of a workload in PARENT pairs with the
i-th in CHANGE; appending alternate ``--rounds 1`` suites of the parent
and the change to the two files gives N alternating pairs. For each
workload x end-to-end metric it prints both medians with their
quartiles, the change's wins out of the N pairs (ties count for
neither), and a verdict:

* improved: the change wins at least 9 of 10 pairs and its median beats
  the parent's by more than the parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: either side's spread (IQR over median) is wider than the
  bound, and not every change run beats every parent run;
* unchanged: otherwise.

Exits 1 if any verdict is "worse".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def end_to_end_specs() -> List[dict]:
    return json.loads(BENCHMARK.read_text())["end_to_end"]


def load(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def series(records: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values of its untraced runs, in file order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record["trace"]:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}..{q3:.5g}]"


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Tuple[str, int, int]:
    """(verdict, wins, pairs) for one workload x metric."""
    sign = 1 if better == "higher" else -1
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * pairs and gain > p_q3 - p_q1:
        return "improved", wins, pairs
    if -gain > bound * abs(p_med):
        return "worse", wins, pairs
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if spread > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins, pairs
    return "unchanged", wins, pairs


def summarize(records: List[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<14} {'median [q1..q3]':<34} n  correct"]
    for workload, metrics in series(records).items():
        correct = all(r["result"]["correct"] for r in records if r["workload"] == workload)
        for name, values in metrics.items():
            lines.append(f"{workload:<14} {name:<14} {_fmt(values):<34} {len(values):<2} {correct}")
    traced = [r for r in records if r["trace"]]
    if traced:
        lines.append("")
        lines.append("traced round, host self-time share by layer:")
        for record in traced:
            metrics = record["result"]["metrics"]
            shares = sorted(
                ((k[: -len(".share")], v["value"]) for k, v in metrics.items() if k.endswith(".share")),
                key=lambda kv: -kv[1],
            )
            top = ", ".join(f"{layer} {share:.1%}" for layer, share in shares if share >= 0.005)
            overhead = metrics["trace_overhead"]["value"]
            lines.append(f"  {record['workload']:<14} {top}; trace_overhead {overhead:+.1%}")
    return "\n".join(lines)


def compare(parent: List[dict], change: List[dict]) -> Tuple[str, bool]:
    """The comparison table, and whether any verdict is "worse"."""
    specs = end_to_end_specs()
    p_series, c_series = series(parent), series(change)
    lines = [
        f"{'workload':<14} {'metric':<14} {'parent median [q1..q3]':<34} "
        f"{'change median [q1..q3]':<34} {'wins':<7} verdict"
    ]
    any_worse = False
    for workload in p_series:
        if workload not in c_series:
            continue
        for spec in specs:
            name = spec["name"]
            p_values = p_series[workload][name]
            c_values = c_series[workload][name]
            result, wins, pairs = verdict(p_values, c_values, spec["better"], spec["bound"])
            any_worse |= result == "worse"
            lines.append(
                f"{workload:<14} {name:<14} {_fmt(p_values):<34} {_fmt(c_values):<34} "
                f"{f'{wins}/{pairs}':<7} {result}"
            )
    return "\n".join(lines), any_worse


def main(argv: List[str]) -> int:
    if len(argv) == 1:
        print(summarize(load(argv[0])))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    table, any_worse = compare(load(argv[0]), load(argv[1]))
    print(table)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
