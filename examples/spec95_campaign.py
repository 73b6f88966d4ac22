"""A miniature run of the paper's evaluation (section 4).

Reproduces one benchmark's worth of every table and figure: Table 2
miss ratios, Table 3 bus utilizations and the Figure 19 IPC series, with
the paper's published numbers beside the measurements. Run
`python -m repro table2` (or table3, fig19) for all seven programs;
`--scale` trades time for statistical steadiness.

Run:  python examples/spec95_campaign.py [benchmark] [scale]
"""

import sys

from repro.harness.experiments import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    run_figure19,
    run_table2,
    run_table3,
)
from repro.harness.reporting import format_series, format_table


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "compress"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    print(f"benchmark={benchmark}  scale={scale}  "
          f"(paper values shown for comparison)\n")

    result = run_table2(benchmarks=(benchmark,), scale=scale)
    print("Table 2 - miss ratios (memory-supplied accesses / accesses)")
    print(format_table(result, ["arb_32k", "svc_4x8k"],
                       lambda p: p.miss_ratio, "miss"))
    print()

    result = run_table3(benchmarks=(benchmark,), scale=scale)
    print("Table 3 - SVC snooping bus utilization")
    print(format_table(result, ["svc_4x8k", "svc_4x16k"],
                       lambda p: p.bus_utilization, "util"))
    print()

    result = run_figure19(benchmarks=(benchmark,), scale=scale)
    print("Figure 19 - IPC, ARB hit latency 1-4 cycles vs SVC (32KB total)")
    print(format_series(result,
                        ["svc_1c", "arb_1c", "arb_2c", "arb_3c", "arb_4c"],
                        lambda p: p.ipc, "IPC", highlight="svc_1c"))
    print()
    svc = result.point(benchmark, "svc_1c")
    arb2 = result.point(benchmark, "arb_2c")
    arb3 = result.point(benchmark, "arb_3c")
    print(f"SVC(1c) vs ARB(2c): {100 * (svc.ipc / arb2.ipc - 1):+.1f}%   "
          f"vs ARB(3c): {100 * (svc.ipc / arb3.ipc - 1):+.1f}%")
    print("(paper: the SVC beats a contention-free ARB once the ARB pays "
          "3+ cycles per hit; up to +8% vs the 2-cycle ARB on mgrid/64KB)")


if __name__ == "__main__":
    main()
