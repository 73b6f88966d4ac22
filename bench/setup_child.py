"""Time one cold set-up of a workload: importing repro, generating the
task streams and building every point's system and simulator, in this
fresh process. Prints the seconds as one JSON number.

    python3 bench/setup_child.py WORKLOAD SEED

``run.py`` starts it once per set-up sample.
"""

import json
import sys
import time

_START = time.perf_counter()

from workloads import WORKLOADS, build, generate  # noqa: E402  (imports repro)


def main(name: str, seed: int) -> float:
    workload = WORKLOADS[name]
    tasks = generate(workload, seed)
    sims = [build(point, tasks) for point in workload.points]  # noqa: F841  (freed after the clock read)
    return time.perf_counter() - _START


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
