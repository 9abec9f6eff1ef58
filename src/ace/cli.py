"""Command-line entry point: config-driven runs, bound sweeps, checks.

Subcommands:

* ``train``          run one experiment from a JSON config; writes
                     trace.csv, checkpoint.bin, summary.txt, and SVG
                     line plots of the gamma/lambda/u/error columns;
* ``verify-bounds``  sample random models and confirm the certified
                     orderings measured <= recursion <= refined <=
                     coarse for both error families;
* ``gradcheck``      finite-difference audit of every tensor op plus
                     both constrained losses;
* ``sweep``          repeat a training config over a parameter grid
                     and aggregate final metrics.

Config files are JSON with sections ``task``, ``model``, ``train`` and
a top-level ``out_dir``. Every key is validated against the schema
below before any computation starts; unknown keys are rejected with a
message naming the section and the allowed keys. ``--set key=value``
(repeatable, dotted paths or bare key names) overrides the file; the
``ACE_SEED`` environment variable overrides the configured training
seed but ranks below ``--set``.

All outputs are deterministic functions of config plus seed: rerunning
a command overwrites its artifacts with identical bytes. Plots are
rendered from trace.csv alone, so replotting from the CSV reproduces
them.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import tensor
from .constraints import DualState, lagrangian_resilient, lagrangian_strict
from .layers import (
    build_c4_model,
    build_scalar_toy_model,
    build_set_model,
    sample_random_model,
)
from .metrics import _thm1, _thm2, bound_report, layer_constants
from .tasks import Dataset, c4_toy, scalar_toys, set_regression
from .tensor import Tensor, no_grad
from .trainer import TrainConfig, TrainRun, resume, save_checkpoint, train

__all__ = [
    "main",
    "ConfigError",
    "load_experiment_config",
    "validate_experiment_config",
    "apply_overrides",
    "build_dataset",
    "build_model",
    "write_trace_csv",
    "read_trace_csv",
    "write_summary",
    "write_plots",
    "svg_line_plot",
]

GRADCHECK_TOLERANCE = 1e-5
ORDERING_SLACK = 1e-9
GAMMA_SMALL = 1e-2


class ConfigError(ValueError):
    """A config file or override that fails schema validation."""


# ---------------------------------------------------------------- schema

# Each leaf is (type, default, choices); type is one of int, float,
# str, bool, "float?", "bool?" (nullable). A default of REQUIRED marks
# keys the user must supply.

REQUIRED = object()

TASK_SCHEMAS = {
    "c4_toy": {
        "target": (str, "square", ("square", "rectangle", "nonsymmetric")),
        "n": (int, 200, None),
        "image_size": (int, 8, None),
        "seed": (int, 0, None),
        "noise": (float, 0.0, None),
    },
    "set_regression": {
        "n_points": (int, 4, None),
        "d": (int, 3, None),
        "epsilon": (float, 0.0, None),
        "n_samples": (int, 200, None),
        "seed": (int, 0, None),
        "noise": (float, 0.0, None),
    },
    "scalar_toy": {
        "kind": (str, "strict_kkt", ("strict_kkt", "resilient_kkt")),
        "a": (float, 1.0, None),
        "rho": (float, 1.0, None),
        "n": (int, 10, None),
    },
}

MODEL_SCHEMAS = {
    "c4": {
        "hidden": (int, 4, None),
        "n_layers": (int, 2, None),
        "kernel_size": (int, 3, None),
        "neq_kind": (str, "dense", ("dense", "mlp")),
        "neq_hidden": (int, 16, None),
        "weight_scale": (float, 1.0, None),
        "neq_scale": (float, 1.0, None),
        "seed": (int, 0, None),
    },
    "set": {
        "hidden": (int, 8, None),
        "n_layers": (int, 2, None),
        "neq_kind": (str, "dense", ("dense", "mlp")),
        "neq_hidden": (int, 16, None),
        "weight_scale": (float, 1.0, None),
        "neq_scale": (float, 1.0, None),
        "seed": (int, 0, None),
    },
    "scalar": {},
}

TRAIN_SCHEMA = {
    "mode": (str, "strict", ("strict", "resilient", "penalty", "plain")),
    "eta_p": (float, 1e-2, None),
    "eta_d": ("float?", None, None),
    "gamma_init": (float, 1.0, None),
    "rho": (float, 1.0, None),
    "alpha": (float, 1.0, None),
    "beta": (float, 1.0, None),
    "epochs": (int, 100, None),
    "batch_size": (int, 32, None),
    "seed": (int, 0, None),
    "eval_every": (int, 1, None),
    "spectral_norm": ("bool?", None, None),
    "sn_iters": (int, 1, None),
    "n_g_samples": (int, 5, None),
    "u_ascent": (bool, False, None),
}

DEFAULT_FAMILY = {"c4_toy": "c4", "set_regression": "set", "scalar_toy": "scalar"}

BOUNDS_SCHEMA = {
    "family": (str, "mixed", ("mixed", "c4", "set")),
    "n_models": (int, 100, None),
    "seed": (int, 0, None),
}

SWEEP_PARAMS = {
    "eta_d": ("train", "eta_d"),
    "gamma_init": ("train", "gamma_init"),
    "rho": ("train", "rho"),
    "epsilon": ("task", "epsilon"),
}


def _check_leaf(path: str, value, spec):
    kind, _, choices = spec
    if kind == "float?":
        if value is None:
            return None
        kind = float
    if kind == "bool?":
        if value is None:
            return None
        kind = bool
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config: {path} must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config: {path} must be an integer, got {value!r}")
        return int(value)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config: {path} must be true or false, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"config: {path} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"config: {path} must be one of {choices}, got {value!r}")
    return value


def _check_section(name: str, raw: dict, schema: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"config: section {name!r} must be an object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"config: unknown key {unknown[0]!r} in section {name!r} "
            f"(allowed: {sorted(schema)})"
        )
    out = {}
    for key, spec in schema.items():
        if key in raw:
            out[key] = _check_leaf(f"{name}.{key}", raw[key], spec)
        elif spec[1] is REQUIRED:
            raise ConfigError(f"config: missing required key {name}.{key}")
        else:
            out[key] = spec[1]
    return out


def validate_experiment_config(raw: dict) -> dict:
    """Fill defaults and type-check; raises ConfigError on any problem."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    allowed_top = {"task", "model", "train", "out_dir"}
    unknown = sorted(set(raw) - allowed_top)
    if unknown:
        raise ConfigError(
            f"config: unknown top-level key {unknown[0]!r} (allowed: {sorted(allowed_top)})"
        )
    if "out_dir" not in raw or not isinstance(raw["out_dir"], str) or not raw["out_dir"]:
        raise ConfigError("config: out_dir (a non-empty string) is required")
    task_raw = raw.get("task")
    if not isinstance(task_raw, dict) or "name" not in task_raw:
        raise ConfigError(
            f"config: task.name is required, one of {sorted(TASK_SCHEMAS)}"
        )
    name = task_raw["name"]
    if name not in TASK_SCHEMAS:
        raise ConfigError(f"config: task.name must be one of {sorted(TASK_SCHEMAS)}, got {name!r}")
    task = _check_section("task", {k: v for k, v in task_raw.items() if k != "name"},
                          TASK_SCHEMAS[name])
    task["name"] = name

    model_raw = dict(raw.get("model", {}))
    if not isinstance(raw.get("model", {}), dict):
        raise ConfigError("config: section 'model' must be an object")
    family = model_raw.pop("family", DEFAULT_FAMILY[name])
    if family not in MODEL_SCHEMAS:
        raise ConfigError(
            f"config: model.family must be one of {sorted(MODEL_SCHEMAS)}, got {family!r}"
        )
    if family != DEFAULT_FAMILY[name]:
        raise ConfigError(
            f"config: model.family {family!r} does not fit task {name!r} "
            f"(expected {DEFAULT_FAMILY[name]!r})"
        )
    model = _check_section("model", model_raw, MODEL_SCHEMAS[family])
    model["family"] = family

    train_cfg = _check_section("train", raw.get("train", {}), TRAIN_SCHEMA)
    return {"task": task, "model": model, "train": train_cfg, "out_dir": raw["out_dir"]}


def load_experiment_config(path) -> dict:
    """Raw JSON from disk; schema validation happens separately."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _override_location(key: str) -> tuple:
    if key == "out_dir":
        return (None, key)
    if "." in key:
        section, _, leaf = key.partition(".")
        if section not in ("task", "model", "train"):
            raise ConfigError(f"config: override section {section!r} unknown "
                              "(use task, model, or train)")
        return (section, leaf)
    if key in TRAIN_SCHEMA:
        return ("train", key)
    task_keys = set().union(*[set(s) for s in TASK_SCHEMAS.values()]) | {"name"}
    if key in task_keys:
        return ("task", key)
    model_keys = set().union(*[set(s) for s in MODEL_SCHEMAS.values()]) | {"family"}
    if key in model_keys:
        return ("model", key)
    raise ConfigError(f"config: override key {key!r} matches no schema key")


def apply_overrides(raw: dict, assignments, env=None) -> dict:
    """ACE_SEED first, then --set pairs; returns a new raw config."""
    raw = copy.deepcopy(raw)
    env = os.environ if env is None else env
    if "ACE_SEED" in env:
        try:
            seed = int(env["ACE_SEED"])
        except ValueError as exc:
            raise ConfigError(f"config: ACE_SEED must be an integer, "
                              f"got {env['ACE_SEED']!r}") from exc
        raw.setdefault("train", {})["seed"] = seed
    for assignment in assignments or []:
        if "=" not in assignment:
            raise ConfigError(f"config: --set expects key=value, got {assignment!r}")
        key, _, value_text = assignment.partition("=")
        section, leaf = _override_location(key.strip())
        value = _parse_override_value(value_text)
        if section is None:
            raw[leaf] = value
        else:
            raw.setdefault(section, {})[leaf] = value
    return raw


# ---------------------------------------------------------------- builders


def build_dataset(cfg: dict) -> Dataset:
    task = cfg["task"]
    if task["name"] == "c4_toy":
        return c4_toy(target=task["target"], n=task["n"], image_size=task["image_size"],
                      seed=task["seed"], noise=task["noise"])
    if task["name"] == "set_regression":
        return set_regression(n_points=task["n_points"], d=task["d"],
                              epsilon=task["epsilon"], n_samples=task["n_samples"],
                              seed=task["seed"], noise=task["noise"])
    toy = scalar_toys(task["kind"], a=task["a"], rho=task["rho"])
    return toy.dataset(n=task["n"])


def build_model(cfg: dict, dataset: Dataset):
    model_cfg, task, train_cfg = cfg["model"], cfg["task"], cfg["train"]
    if model_cfg["family"] == "c4":
        model = build_c4_model(image_size=task["image_size"], in_channels=1,
                               hidden=model_cfg["hidden"], out_channels=1,
                               n_layers=model_cfg["n_layers"],
                               kernel_size=model_cfg["kernel_size"],
                               neq_kind=model_cfg["neq_kind"],
                               neq_hidden=model_cfg["neq_hidden"],
                               rng=np.random.default_rng(model_cfg["seed"]),
                               gamma_init=train_cfg["gamma_init"],
                               weight_scale=model_cfg["weight_scale"],
                               neq_scale=model_cfg["neq_scale"])
    elif model_cfg["family"] == "set":
        model = build_set_model(n_points=task["n_points"], d=task["d"],
                                hidden=model_cfg["hidden"],
                                n_layers=model_cfg["n_layers"],
                                neq_kind=model_cfg["neq_kind"],
                                neq_hidden=model_cfg["neq_hidden"],
                                rng=np.random.default_rng(model_cfg["seed"]),
                                gamma_init=train_cfg["gamma_init"],
                                weight_scale=model_cfg["weight_scale"],
                                neq_scale=model_cfg["neq_scale"])
    else:
        model = build_scalar_toy_model(gamma_init=train_cfg["gamma_init"])
    target_shape = tuple(dataset.targets.shape[1:])
    if tuple(model.out_rep.space_shape) != target_shape:
        raise ConfigError(
            f"config: model output {tuple(model.out_rep.space_shape)} does not match "
            f"task target shape {target_shape}"
        )
    return model


def train_config_from(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(mode=t["mode"], eta_p=t["eta_p"], eta_d=t["eta_d"],
                       gamma_init=t["gamma_init"], rho=t["rho"], epochs=t["epochs"],
                       batch_size=t["batch_size"], seed=t["seed"],
                       eval_every=t["eval_every"], spectral_norm=t["spectral_norm"],
                       sn_iters=t["sn_iters"], alpha=t["alpha"], beta=t["beta"],
                       n_g_samples=t["n_g_samples"], u_ascent=t["u_ascent"])


# ---------------------------------------------------------------- artifacts


def _fmt(value) -> str:
    return format(float(value), ".17g")


def trace_header(n_layers: int) -> list:
    return (["step", "loss_train", "loss_val_raw", "loss_val_proj", "eq_error_exact"]
            + [f"gamma_{i + 1}" for i in range(n_layers)]
            + [f"lambda_{i + 1}" for i in range(n_layers)]
            + [f"u_{i + 1}" for i in range(n_layers)]
            + ["thm1_refined", "thm2_refined"])


def write_trace_csv(run: TrainRun, path) -> None:
    lines = [",".join(trace_header(run.model.n_layers))]
    for row in run.trace:
        cells = [str(row.step), _fmt(row.loss_train), _fmt(row.loss_val_raw),
                 _fmt(row.loss_val_proj), _fmt(row.eq_error_exact)]
        cells += [_fmt(v) for v in row.gammas]
        cells += [_fmt(v) for v in row.lams]
        cells += [_fmt(v) for v in row.us]
        cells += [_fmt(row.thm1_refined), _fmt(row.thm2_refined)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


@no_grad()
def write_summary(run: TrainRun, dataset: Dataset, path) -> None:
    last = run.trace[-1]
    x_val, _ = dataset.stacked("val")
    x_norm = float(np.max(np.linalg.norm(x_val.data.reshape(x_val.shape[0], -1), axis=1)))
    constants = layer_constants(run.model)
    t1 = _thm1(run.model, constants, x_norm)
    t2 = _thm2(run.model, constants, x_norm)
    pairs = [
        ("mode", run.config.mode),
        ("epochs", run.epochs_done),
        ("steps", run.step),
        ("diverged", "true" if run.diverged else "false"),
        ("divergence_step", -1 if run.divergence_step is None else run.divergence_step),
        ("best_step", run.best_step),
        ("best_score", _fmt(run.best_score)),
        ("final_loss_train", _fmt(last.loss_train)),
        ("final_loss_val_raw", _fmt(last.loss_val_raw)),
        ("final_loss_val_proj", _fmt(last.loss_val_proj)),
        ("final_loss_test_raw", _fmt(run.evaluate(dataset, "test", use_best=False))),
        ("final_loss_test_proj",
         _fmt(run.evaluate(dataset, "test", projected=True, use_best=False))),
        ("final_max_abs_gamma", _fmt(np.max(np.abs(last.gammas)))),
        ("final_max_u", _fmt(np.max(last.us))),
        ("final_eq_error_exact", _fmt(last.eq_error_exact)),
        ("thm1_refined", _fmt(t1["refined"].value)),
        ("thm1_coarse", _fmt(t1["coarse"].value)),
        ("thm2_refined", _fmt(t2["refined"].value)),
        ("thm2_coarse", _fmt(t2["coarse"].value)),
    ]
    Path(path).write_text("\n".join(f"{k}={v}" for k, v in pairs) + "\n")


# ---------------------------------------------------------------- SVG plots

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_W, _H = 640, 400
_L, _R, _T, _B = 64, 624, 28, 364


def _ticks(lo: float, hi: float, n: int = 5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def svg_line_plot(path, title: str, series, x_label: str = "step") -> None:
    """Fixed-size line chart; series is a list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0], [0.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = (y_hi - y_lo) * 0.05 or max(abs(y_hi) * 0.1, 1e-12)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _L + (_R - _L) * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return _B - (_B - _T) * (y - y_lo) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_L}" y="16" font-size="13">{title}</text>',
        f'<rect x="{_L}" y="{_T}" width="{_R - _L}" height="{_B - _T}" '
        f'fill="none" stroke="#999"/>',
    ]
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_L}" y1="{y:.2f}" x2="{_R}" y2="{y:.2f}" '
                     f'stroke="#eee"/>')
        parts.append(f'<text x="{_L - 6}" y="{y + 4:.2f}" text-anchor="end">{t:.4g}</text>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<text x="{x:.2f}" y="{_B + 16}" text-anchor="middle">{t:.4g}</text>')
    parts.append(f'<text x="{(_L + _R) / 2:.2f}" y="{_H - 6}" '
                 f'text-anchor="middle">{x_label}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if len(xs) <= 50:
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                             f'fill="{color}"/>')
        parts.append(f'<text x="{_R - 8}" y="{_T + 14 + 13 * i}" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_plots(out_dir, trace_path) -> None:
    """The four standard charts, rendered from trace.csv alone."""
    header, rows = read_trace_csv(trace_path)
    steps = [r[0] for r in rows]
    out_dir = Path(out_dir)

    def columns(prefix):
        picked = [(name, i) for i, name in enumerate(header) if name.startswith(prefix)]
        return [(name, steps, [r[i] for r in rows]) for name, i in picked]

    svg_line_plot(out_dir / "gamma.svg", "gamma per layer", columns("gamma_"))
    svg_line_plot(out_dir / "lambda.svg", "multiplier per layer", columns("lambda_"))
    svg_line_plot(out_dir / "u.svg", "slack per layer", columns("u_"))
    eq_idx = header.index("eq_error_exact")
    svg_line_plot(out_dir / "eq_error.svg", "exact equivariance error",
                  [("eq_error_exact", steps, [r[eq_idx] for r in rows])])


def write_run_artifacts(run: TrainRun, dataset: Dataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(run, out / "trace.csv")
    save_checkpoint(run, out / "checkpoint.bin")
    write_summary(run, dataset, out / "summary.txt")
    write_plots(out, out / "trace.csv")


# ---------------------------------------------------------------- commands


def _resolved_config(args) -> dict:
    raw = load_experiment_config(args.config)
    raw = apply_overrides(raw, args.set)
    return validate_experiment_config(raw)


def cmd_train(args) -> int:
    try:
        cfg = _resolved_config(args)
        dataset = build_dataset(cfg)
        if args.resume:
            run = resume(Path(cfg["out_dir"]) / "checkpoint.bin", dataset,
                         epochs=cfg["train"]["epochs"])
        else:
            model = build_model(cfg, dataset)
            run = train(model, dataset, train_config_from(cfg))
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    write_run_artifacts(run, dataset, cfg["out_dir"])
    if run.diverged:
        print(f"training diverged at step {run.divergence_step}", file=sys.stderr)
        return 1
    print(f"wrote {cfg['out_dir']}: {len(run.trace)} trace rows, {run.step} steps")
    return 0


def cmd_verify_bounds(args) -> int:
    try:
        raw = load_experiment_config(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        if "out_dir" not in raw or not isinstance(raw["out_dir"], str):
            raise ConfigError("config: out_dir (a string) is required")
        out_dir = raw.pop("out_dir")
        cfg = _check_section("bounds", raw, BOUNDS_SCHEMA)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["sample,seed,family,measured,recursion,refined,coarse,ok"]
    violations = []
    for i in range(cfg["n_models"]):
        sample_seed = cfg["seed"] + i
        rng = np.random.default_rng(sample_seed)
        family = None if cfg["family"] == "mixed" else cfg["family"]
        model = sample_random_model(rng, family=family)
        x = Tensor(rng.normal(size=model.in_rep.space_shape))
        report = bound_report(model, x)
        for kind, keys in (
            ("approx", ("approximation_error", "delta_recursion",
                        "thm1_refined", "thm1_coarse")),
            ("equiv", ("equivariance_error", "epsilon_recursion",
                       "thm2_refined", "thm2_coarse")),
        ):
            chain = [report[k] for k in keys]
            ok = all(chain[j] <= chain[j + 1] + ORDERING_SLACK * max(1.0, chain[j + 1])
                     for j in range(3))
            if not ok:
                violations.append((sample_seed, kind, chain))
            lines.append(",".join([str(i), str(sample_seed), kind]
                                  + [_fmt(v) for v in chain]
                                  + ["1" if ok else "0"]))
    (out / "bounds_report.csv").write_text("\n".join(lines) + "\n")
    if violations:
        for seed, kind, chain in violations[:5]:
            print(f"bound ordering violated ({kind}) for sample seed {seed}: "
                  + " ".join(_fmt(v) for v in chain), file=sys.stderr)
        print(f"{len(violations)} violations over {cfg['n_models']} models",
              file=sys.stderr)
        return 1
    print(f"0 violations over {cfg['n_models']} models; wrote {out / 'bounds_report.csv'}")
    return 0


def _lagrangian_cases(rng):
    """Finite-difference cases for both constrained losses."""
    cases = []

    def build(mode):
        model = build_set_model(n_points=3, d=2, hidden=3, n_layers=2,
                                rng=np.random.default_rng(int(rng.integers(2**31))))
        model.set_gamma_values([0.3, -0.4])
        x = Tensor(rng.normal(size=(4, 3, 2)))
        y = Tensor(rng.normal(size=(4, 3, 2)))
        if mode == "strict":
            state = DualState(mode="strict", lam=np.array([0.7, -0.2]), u=None)

            def loss():
                j0 = (model.forward(x) - y).square().mean()
                return lagrangian_strict(j0, model.gammas(), state)

        else:
            state = DualState(mode="resilient", lam=np.array([0.4, 0.2]),
                              u=np.array([0.3, 0.1]), rho=1.3)

            def loss():
                j0 = (model.forward(x) - y).square().mean()
                return lagrangian_resilient(j0, model.gammas(), state)

        return loss, model.parameters()

    for mode in ("strict", "resilient"):
        loss, params = build(mode)
        cases.append((f"lagrangian_{mode}", loss, params))
    return cases


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    cases = list(tensor.op_gradcheck_cases(rng)) + _lagrangian_cases(rng)
    worst_name, worst = "", 0.0
    for name, loss, params in cases:
        err = tensor.gradcheck(loss, params)
        if err > worst:
            worst_name, worst = name, err
    print(f"gradcheck: {len(cases)} cases, worst relative error {worst:.3e} ({worst_name})")
    if worst > GRADCHECK_TOLERANCE:
        print(f"gradcheck failed: {worst_name} exceeds {GRADCHECK_TOLERANCE:.0e}",
              file=sys.stderr)
        return 1
    return 0


def _sweep_metric_column(param: str) -> str:
    return "max_u" if param in ("epsilon", "rho") else "max_abs_gamma"


def cmd_sweep(args) -> int:
    try:
        if args.param not in SWEEP_PARAMS:
            raise ConfigError(
                f"config: sweep param must be one of {sorted(SWEEP_PARAMS)}, "
                f"got {args.param!r}"
            )
        values = []
        for text in args.values:
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ConfigError(f"config: sweep value {text!r} is not a number") from exc
        base_raw = apply_overrides(load_experiment_config(args.config), args.set)
        base = validate_experiment_config(base_raw)
        section, leaf = SWEEP_PARAMS[args.param]
        if args.param == "epsilon" and base["task"]["name"] != "set_regression":
            raise ConfigError("config: epsilon sweeps need task.name=set_regression")
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    out = Path(base["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    header = ["param", "value", "status", "steps", "final_loss_train",
              "final_loss_val_raw", "final_loss_val_proj", "final_max_abs_gamma",
              "final_max_u", "final_eq_error_exact", "steps_to_gamma_small"]
    lines = [",".join(header)]
    curves = []
    for i, value in enumerate(values):
        cfg = copy.deepcopy(base)
        cfg[section][leaf] = value
        run_dir = out / f"{args.param}_{i}"
        status, run, dataset = "ok", None, None
        try:
            dataset = build_dataset(cfg)
            model = build_model(cfg, dataset)
            run = train(model, dataset, train_config_from(cfg))
            if run.diverged:
                status = "diverged"
        except (ConfigError, ValueError, FloatingPointError, OverflowError) as exc:
            status = "error"
            print(f"{args.param}={value:g}: {exc}", file=sys.stderr)
        if run is not None:
            write_run_artifacts(run, dataset, run_dir)
            last = run.trace[-1]
            gamma_steps = [r.step for r in run.trace if np.max(np.abs(r.gammas)) <= GAMMA_SMALL]
            cells = [args.param, _fmt(value), status, str(run.step),
                     _fmt(last.loss_train), _fmt(last.loss_val_raw),
                     _fmt(last.loss_val_proj), _fmt(np.max(np.abs(last.gammas))),
                     _fmt(np.max(last.us)), _fmt(last.eq_error_exact),
                     str(gamma_steps[0] if gamma_steps else -1)]
            metric = (
                [float(np.max(r.us)) for r in run.trace]
                if _sweep_metric_column(args.param) == "max_u"
                else [float(np.max(np.abs(r.gammas))) for r in run.trace]
            )
            curves.append((f"{args.param}={value:g}",
                           [float(r.step) for r in run.trace], metric))
        else:
            cells = [args.param, _fmt(value), status, "0"] + ["nan"] * 6 + ["-1"]
        lines.append(",".join(cells))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    svg_line_plot(out / "sweep.svg", f"{_sweep_metric_column(args.param)} vs step", curves)
    print(f"wrote {out / 'sweep.csv'} ({len(values)} runs)")
    return 0


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ace",
        description="Constrained training of homotopic equivariant models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
    p_train.add_argument("--resume", action="store_true",
                         help="continue from out_dir/checkpoint.bin")
    p_train.set_defaults(func=cmd_train)

    p_bounds = sub.add_parser("verify-bounds",
                              help="check certified orderings on random models")
    p_bounds.add_argument("--config", required=True)
    p_bounds.set_defaults(func=cmd_verify_bounds)

    p_grad = sub.add_parser("gradcheck", help="finite-difference audit of gradients")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="repeat a config over a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, nargs="+")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
