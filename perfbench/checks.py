"""Output checks, run outside the timed region of every iteration.

Every check recomputes from the written artifacts with the code in
``reference.py`` or tests a property the method must have; none compares
against a stored copy of earlier output. Each raises ``CheckError``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import reference as ref
from reference import CheckError

ARTIFACTS = ("trace.csv", "checkpoint.bin", "summary.txt",
             "gamma.svg", "lambda.svg", "u.svg", "eq_error.svg")
RTOL = 1e-9  # the reference forward sums in another order than ace
EQUIVARIANCE_TOL = 1e-10
ORDER_SLACK = 1e-9
DIVERGED = re.compile(r"training diverged at step \d+")


def close(what: str, got: float, want: float, rtol: float = RTOL) -> None:
    if not abs(got - want) <= rtol * max(abs(want), abs(got), 1e-12):
        raise CheckError(f"{what}: program wrote {got!r}, reference gives {want!r}")


def check_artifacts(out_dir) -> None:
    missing = [a for a in ARTIFACTS if not (Path(out_dir) / a).is_file()]
    if missing:
        raise CheckError(f"{out_dir}: missing {', '.join(missing)}")


def read_trace_csv(path) -> dict:
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    if values.ndim != 2 or values.shape[1] != len(header):
        raise CheckError(f"{path}: rows do not match the {len(header)}-column header")
    return {name: values[:, i] for i, name in enumerate(header)}


def check_csv_matches_checkpoint(csv_cols: dict, cols: dict, n_layers: int) -> None:
    """trace.csv and the checkpoint's trace array hold the same numbers."""
    pairs = [(name, cols[name]) for name in
             ("step", "loss_train", "loss_val_raw", "loss_val_proj", "eq_error_exact",
              "thm1_refined", "thm2_refined")]
    for csv_prefix, vec in (("gamma", "gammas"), ("lambda", "lams"), ("u", "us")):
        pairs += [(f"{csv_prefix}_{i + 1}", cols[vec][:, i]) for i in range(n_layers)]
    for name, column in pairs:
        if name not in csv_cols or not np.array_equal(csv_cols[name], column):
            raise CheckError(f"trace.csv column {name} differs from checkpoint.bin")


def check_projection_equivariant(model: ref.Model, x: np.ndarray) -> float:
    worst = float(np.max(ref.equivariance_gaps(model, x)))
    if worst > EQUIVARIANCE_TOL:
        raise CheckError(f"gamma = 0 model is not equivariant: worst defect {worst:.3e}")
    return worst


def check_last_row(cols: dict, model: ref.Model, x_val: np.ndarray, y_val: np.ndarray) -> None:
    """The logged validation losses and defect of the final model, recomputed."""
    close("last loss_val_raw", cols["loss_val_raw"][-1], ref.mse(model, x_val, y_val))
    close("last loss_val_proj", cols["loss_val_proj"][-1], ref.mse(model.projected(), x_val, y_val))
    close("last eq_error_exact", cols["eq_error_exact"][-1],
          float(np.max(ref.equivariance_gaps(model, x_val))))


def check_trace_properties(cols: dict, mode: str, eta_d: float) -> None:
    eq, thm2 = cols["eq_error_exact"], cols["thm2_refined"]
    bad = np.flatnonzero(eq > thm2 * (1.0 + ORDER_SLACK))
    if bad.size:
        raise CheckError(f"eq_error_exact above thm2_refined at step {int(cols['step'][bad[0]])}")
    if not cols["loss_train"][-1] < cols["loss_train"][0]:
        raise CheckError(f"final loss_train {cols['loss_train'][-1]} not below the first "
                         f"{cols['loss_train'][0]}")
    if mode == "strict":
        gap = float(np.max(np.abs(cols["lams"] - eta_d * cols["gamma_sums"])))
        if gap > 1e-10:
            raise CheckError(f"strict multipliers drift from eta_d * sum(gamma) by {gap:.3e}")
    elif mode == "resilient":
        if np.any(cols["lams"] < 0.0) or np.any(cols["us"] < 0.0):
            raise CheckError("a resilient multiplier or slack went negative")


def check_training_run(out_dir, x_val: np.ndarray, y_val: np.ndarray, steps: int) -> None:
    """Every check of one ``ace train`` invocation that exited 0."""
    out_dir = Path(out_dir)
    check_artifacts(out_dir)
    meta, model, cols = ref.read_checkpoint(out_dir / "checkpoint.bin")
    if meta["step"] != steps or cols["step"][-1] != steps:
        raise CheckError(f"checkpoint says {meta['step']} steps, trace ends at "
                         f"{cols['step'][-1]}, the run returned {steps}")
    check_csv_matches_checkpoint(read_trace_csv(out_dir / "trace.csv"), cols, model.n_layers)
    check_last_row(cols, model, x_val, y_val)
    check_projection_equivariant(model.projected(), x_val)
    check_trace_properties(cols, meta["config"]["mode"], meta["config"]["eta_d"])


def check_divergence_reported(code, stderr: str, out_dir) -> None:
    """The outcome ace promises for a run whose numbers blow up."""
    if code != 1:
        raise CheckError(f"diverging run exited with {code!r}, expected 1")
    if not DIVERGED.search(stderr):
        raise CheckError("diverging run printed no 'training diverged at step N'")
    check_artifacts(out_dir)


def check_identical(paths) -> None:
    first = Path(paths[0]).read_bytes()
    for p in paths[1:]:
        if Path(p).read_bytes() != first:
            raise CheckError(f"{p} differs from {paths[0]} although the seed is the same")


# ---------------------------------------------------------------- bounds sweep


def read_bounds_csv(path, n_models: int) -> list:
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != "sample,seed,family,measured,recursion,refined,coarse,ok":
        raise CheckError(f"{path}: unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 2 * n_models:
        raise CheckError(f"{path}: {len(rows)} rows for {n_models} models")
    return [(int(r[1]), r[2], [float(v) for v in r[3:7]], r[7]) for r in rows]


def check_chain(seed: int, family: str, chain, ok_flag: str) -> None:
    for lo, hi in zip(chain, chain[1:]):
        if not lo <= hi + ORDER_SLACK * max(1.0, hi):
            raise CheckError(f"seed {seed} {family}: chain {chain} is out of order")
    if ok_flag != "1":
        raise CheckError(f"seed {seed} {family}: ok column is {ok_flag!r}")


def check_lipschitz(what: str, bound: float, operator: np.ndarray) -> None:
    sigma = float(np.linalg.svd(operator, compute_uv=False)[0])
    if not bound >= sigma * (1.0 - RTOL):
        raise CheckError(f"{what}: certified Lipschitz bound {bound!r} is below the "
                         f"operator norm {sigma!r}")
