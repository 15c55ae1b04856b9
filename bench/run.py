"""kspt benchmark entry point: one workload, closed loop, one JSON result line.

    python3 bench/run.py --workload classical-scan --seed 1 --seconds 25 --trace 0

Runs from a source checkout: it puts src/ on the import path and exits with
code 2, printing no result, when src/kspt is missing.  harness.py does the
work; bench/README.md describes workloads and metrics.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv: list[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "kspt", "__init__.py")):
        print(f"error: no kspt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]
    import harness

    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
