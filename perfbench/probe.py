"""One set-up sample for setup_s, in a fresh process.

Usage: python3 probe.py <src dir> <workload> <input file>...

Imports sparsekit, parses (and whitens) the workload's input files, then
prints CLOCK_MONOTONIC, which the parent compares with the clock it read
just before starting this process.
"""

import sys
import time


def main(argv: list[str]) -> int:
    src, workload, *paths = argv
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(paths)
    print(time.monotonic())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
