"""One set-up of a workload in a fresh interpreter, for timing ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Imports ace, resolves the workload's config and builds its dataset and
model (``bounds_sweep``: its first model and input), then prints the
seconds that took. The clock starts before the first import and stops
before the interpreter exits: process start and exit are left out, as
their wake-ups on the shared 2-core machine the README describes came
in steps of 50 ms.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2])).prepare()
print(time.perf_counter() - START)
