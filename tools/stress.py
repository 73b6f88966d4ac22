"""Randomized oracle + invariant stress of the SVC (all designs) and ARB.

Development tool complementing the hypothesis suite: wider seed sweeps,
run from the shell, with optional fault injection. Every run is a
:class:`repro.replay.Case`; the first failure is saved as a
FailureCapture JSON that ``python -m repro replay <path> --shrink``
reproduces and minimizes. Usage::

    python tools/stress.py --seeds 200 --faults
    python tools/stress.py --seeds 50 --designs final,arb --hard
"""

import argparse
import dataclasses
import random
import sys

from repro.common.config import CacheGeometry
from repro.faults import FaultPlan, random_fault_plan
from repro.hier.task import MemOp, TaskProgram
from repro.replay import CASE_DESIGNS, Case, FailureCapture, run_case


def random_tasks(rng, n_tasks, max_ops, n_addrs, base=0x1000, sizes=(4,), stride=4):
    addrs = [base + stride * i for i in range(n_addrs)]
    tasks = []
    value = 1
    for _ in range(n_tasks):
        ops = []
        for _ in range(rng.randint(0, max_ops)):
            size = rng.choice(sizes)
            addr = rng.choice(addrs)
            addr -= addr % size
            if rng.random() < 0.5:
                ops.append(MemOp.load(addr, size))
            else:
                ops.append(MemOp.store(addr, value % (1 << (8 * size)), size))
                value += 1
        tasks.append(TaskProgram(ops=ops))
    return tasks


def build_case(seed, design, squash_p, hard=False, faults=False):
    """The sweep's case for one seed and design. ``squash_p`` raises the
    plan's random-squash rate (capped at 1.0) for the squash pass."""
    rng = random.Random(seed)
    if hard:
        # Conflict-heavy: tiny 2-way cache, strided addresses mapping to
        # few sets (evictions + replacement stalls), byte accesses
        # (partial-block read-modify-write), long task lists.
        tasks = random_tasks(
            rng,
            n_tasks=rng.randint(4, 16),
            max_ops=8,
            n_addrs=rng.randint(4, 12),
            sizes=(1, 2, 4),
            stride=rng.choice([4, 16, 64]),
        )
        geometry = CacheGeometry(size_bytes=128, associativity=2, line_size=16)
    else:
        tasks = random_tasks(
            rng,
            n_tasks=rng.randint(1, 10),
            max_ops=6,
            n_addrs=rng.randint(1, 6),
        )
        geometry = CacheGeometry(size_bytes=256, associativity=2, line_size=16)
    if faults:
        plan = random_fault_plan(
            seed, len(tasks), 8, allow_squashes=(design != "ec")
        )
    else:
        plan = FaultPlan(seed=seed)
    if squash_p:
        plan = dataclasses.replace(
            plan, squash_rate=min(1.0, plan.squash_rate + squash_p)
        )
    return Case(
        design=design,
        seed=seed,
        tasks=tuple(tasks),
        geometry=geometry,
        fault_plan=plan,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        description="Randomized stress sweep over all designs, verifying "
        "every run against the sequential oracle with the protocol "
        "invariant checker attached."
    )
    parser.add_argument(
        "--seeds", type=int, default=300, help="seeds to sweep (default 300)"
    )
    parser.add_argument(
        "--designs",
        default=",".join(CASE_DESIGNS),
        help=f"comma-separated designs (default {','.join(CASE_DESIGNS)})",
    )
    parser.add_argument(
        "--hard",
        action="store_true",
        help="conflict-heavy workloads: tiny caches, strided addresses, "
        "byte accesses, long task lists",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="drive each case with a seeded random fault plan (injected "
        "squashes, adversarial victim choice, delayed writebacks)",
    )
    parser.add_argument(
        "--capture-dir",
        default="failures",
        help="directory for the failure capture written on the first "
        "failing case (default: failures/)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=1,
        help="stop after this many failing cases (default 1)",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    unknown = [d for d in designs if d not in CASE_DESIGNS]
    if unknown:
        print(f"unknown designs: {unknown}; choose from {CASE_DESIGNS}",
              file=sys.stderr)
        return 2
    failures = 0
    cases = 0
    for seed in range(args.seeds):
        for design in designs:
            for squash_p in (0.0, 0.1):
                if design == "ec" and squash_p > 0:
                    continue  # EC design assumes no squashes
                case = build_case(
                    seed, design, squash_p, hard=args.hard, faults=args.faults
                )
                cases += 1
                result = run_case(case)
                if result.ok:
                    continue
                failures += 1
                print(f"FAIL {case.describe()}")
                print(f"  {result.describe()}")
                capture = FailureCapture.from_result(case, result)
                path = (
                    f"{args.capture_dir}/stress-{design}-seed{seed}"
                    f"-p{squash_p}.json"
                )
                capture.save(path)
                print(f"  capture: {path}")
                print(f"  replay:  python -m repro replay {path} --shrink")
                if failures >= args.max_failures:
                    print(f"stopping after {failures} failure(s), "
                          f"{cases} cases run")
                    return 1
    print(f"ok: {cases} cases across {len(designs)} designs, "
          f"{args.seeds} seeds"
          + (" (hard)" if args.hard else "")
          + (" (faults)" if args.faults else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
