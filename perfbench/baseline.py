"""Reference figures for README.md: the per-step baseline and the cost of logging.

Usage: python3 perfbench/baseline.py

Prints one JSON object: machine facts, ms per training step of the C4
config (2 layers, hidden 4, batch 32, resilient) and of the set config,
the forward time of the C4 model's group conv (layer 2, pooled, batch
32), and the train() time with ``eval_every=1`` over that with
``eval_every=200`` for both configs. Every training figure is the median
of ``REPEATS`` runs through ``ace.cli.main`` with seed ``SEED``.
"""

import one_thread  # noqa: F401  (first: fixes the BLAS thread count before numpy loads)

import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

SEED = 0
REPEATS = 3
C4 = ("configs/rectangle_resilient.json", 40)  # (config, epochs)
SET = ("configs/broken_set_resilient.json", 100)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def train_seconds(config: str, epochs: int, eval_every: int):
    """Median (train() seconds, steps) of ``REPEATS`` runs."""
    wl = workloads.Training("baseline", config,
                            [f"train.epochs={epochs}", f"train.eval_every={eval_every}"], SEED)
    times = []
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for _ in range(REPEATS):
            result = workloads.invoke(wl.main_argv(0, Path(tmp)), Path(tmp))
            if not result.ok:
                raise SystemExit(f"{config}: {result.error or result.stderr}")
            times.append(result.train_s)
    return statistics.median(times), result.steps


def main() -> int:
    out = {"machine": machine_facts()}
    for name, (config, epochs) in (("c4", C4), ("set", SET)):
        sparse, steps = train_seconds(config, epochs, 200)
        dense, _ = train_seconds(config, epochs, 1)
        out[f"{name}_ms_per_step"] = sparse * 1e3 / steps
        out[f"{name}_eval_every_1_over_200"] = dense / sparse
    group_conv = workloads.layer_kinds(SEED)["c4_group_pooled"]
    out["c4_group_conv_forward_ms"] = workloads.layer_ms(
        group_conv, np.random.default_rng(SEED), 10 * REPEATS, backward=False)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
