"""Training loops tying models, datasets, and the primal-dual updates.

Four entry points sharing one loop body:

* ``train_strict``      equality constraints gamma_i = 0 (multiplier
                        ascent on raw gamma);
* ``train_resilient``   inequality constraints |gamma_i| <= u_i with
                        priced slack, spectral normalization of every
                        non-equivariant branch after each step;
* ``train_penalty``     fixed-weight composite alpha*J0 + beta*l_eq
                        with l_eq the sampled squared equivariance
                        defect; gamma pinned at 1, no dual variables;
* ``train_plain_equivariant``  gamma pinned at 0 and only equivariant
                        weights trained.

Step order inside a minibatch: backward through the mode's Lagrangian
(multipliers constant), then the dual step reading the pre-step gammas,
then the primal step, then optional spectral normalization. Traces are
recorded at step 0 and on an epoch cadence; each row also snapshots the
dual bookkeeping so the multiplier integration identity can be audited
per logged step.

Checkpoints round-trip everything the loop touches (weights, gammas,
dual state, trace, RNG state, best snapshot), so a resumed run replays
the uninterrupted one bit for bit.

The logged bound certificates use the largest validation-input norm, so
one number certifies every validation sample. A row runs under
``no_grad`` (it builds no autodiff graph), computes the layer constants
once for both certificates, and measures ``eq_error_exact`` as the
largest ``metrics.equivariance_gaps`` entry: one forward over the whole
group orbit of the validation split stacked along the batch axis.

Divergence guard: a non-finite batch loss, or one beyond 1e12, stops
the run and records the offending step; callers decide whether that is
an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import _binio
from .constraints import (
    DualState,
    StepConfig,
    dual_step_resilient,
    dual_step_strict,
    lagrangian_resilient,
    lagrangian_strict,
    primal_step,
)
from .layers import (
    HomotopicModel,
    model_from_manifest,
    model_manifest,
    project_equivariant,
    spectral_normalize,
)
from .metrics import _thm1, _thm2, equivariance_gaps, layer_constants
from .tasks import Dataset
from .tensor import Tensor, no_grad, zero_grad

__all__ = [
    "TrainConfig",
    "TraceRow",
    "TrainRun",
    "train",
    "train_strict",
    "train_resilient",
    "train_penalty",
    "train_plain_equivariant",
    "save_checkpoint",
    "load_checkpoint",
    "resume",
]

TRAIN_MODES = ("strict", "resilient", "penalty", "plain")
DIVERGENCE_LIMIT = 1e12
CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    """Everything a run needs beyond the model and data."""

    mode: str = "strict"
    eta_p: float = 1e-2
    eta_d: float = None
    gamma_init: float = 1.0
    rho: float = 1.0
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 1
    spectral_norm: bool = None  # None: on for resilient, off otherwise
    sn_iters: int = 1
    alpha: float = 1.0
    beta: float = 1.0
    n_g_samples: int = 5
    u_ascent: bool = False

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.eta_d is None:
            self.eta_d = self.eta_p
        if self.eta_p <= 0.0 or self.eta_d < 0.0:
            raise ValueError(
                f"need eta_p > 0 and eta_d >= 0, got eta_p={self.eta_p}, eta_d={self.eta_d}"
            )
        if self.epochs < 0 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs >= 0, batch_size >= 1, eval_every >= 1 required")
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.alpha < 0.0 or self.beta < 0.0 or self.n_g_samples < 1:
            raise ValueError("alpha, beta >= 0 and n_g_samples >= 1 required")
        if self.spectral_norm is None:
            self.spectral_norm = self.mode == "resilient"

    def step_config(self) -> StepConfig:
        mode = self.mode if self.mode in ("strict", "resilient") else "strict"
        return StepConfig(eta_p=self.eta_p, eta_d=self.eta_d, mode=mode,
                          gamma_init=self.gamma_init, u_ascent=self.u_ascent)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class TraceRow:
    """One logged snapshot of the run."""

    step: int
    loss_train: float
    loss_val_raw: float
    loss_val_proj: float
    eq_error_exact: float
    gammas: np.ndarray
    lams: np.ndarray
    us: np.ndarray
    thm1_refined: float
    thm2_refined: float
    gamma_sums: np.ndarray  # dual-step gamma accumulator at log time
    n_dual_steps: int


@dataclass
class TrainRun:
    """A finished (or checkpointed) training run."""

    model: HomotopicModel
    state: DualState | None
    config: TrainConfig
    trace: list = field(default_factory=list)
    rng: np.random.Generator = None
    step: int = 0
    epochs_done: int = 0
    diverged: bool = False
    divergence_step: int | None = None
    best_score: float = None
    best_step: int = None
    best_manifest: tuple = None  # (meta, arrays) of the selected snapshot

    def best_model(self) -> HomotopicModel:
        """The checkpoint-selected model (falls back to the final one)."""
        if self.best_manifest is None:
            return self.model
        meta, arrays = self.best_manifest
        return model_from_manifest(meta, arrays)

    @no_grad()
    def evaluate(self, dataset: Dataset, split: str = "test", projected: bool = False,
                 use_best: bool = True) -> float:
        model = self.best_model() if use_best else self.model
        if projected:
            model = project_equivariant(model)
        x, y = dataset.stacked(split)
        return _mse_value(model, x, y)


# ---------------------------------------------------------------- evaluation


def _mse(pred: Tensor, target: Tensor) -> Tensor:
    return (pred - target).square().mean()


def _mse_value(model: HomotopicModel, x: Tensor, y: Tensor) -> float:
    return float(np.mean((model.forward(x).data - y.data) ** 2))


@no_grad()
def _log_row(run: TrainRun, dataset: Dataset) -> None:
    model = run.model
    x_train, y_train = dataset.stacked("train")
    x_val, y_val = dataset.stacked("val")
    projected = project_equivariant(model)
    x_norm = float(np.max(np.linalg.norm(x_val.data.reshape(x_val.shape[0], -1), axis=1)))
    n_layers = model.n_layers
    if run.state is not None:
        lams = run.state.lam.copy()
        us = run.state.u.copy() if run.state.u is not None else np.zeros(n_layers)
        sums = run.state.gamma_step_sum.copy()
        n_dual = run.state.n_dual_steps
    else:
        lams = np.zeros(n_layers)
        us = np.zeros(n_layers)
        sums = np.zeros(n_layers)
        n_dual = 0
    constants = layer_constants(model)
    run.trace.append(TraceRow(
        step=run.step,
        loss_train=_mse_value(model, x_train, y_train),
        loss_val_raw=_mse_value(model, x_val, y_val),
        loss_val_proj=_mse_value(projected, x_val, y_val),
        eq_error_exact=float(equivariance_gaps(model, x_val).max()),
        gammas=model.gamma_values(),
        lams=lams,
        us=us,
        thm1_refined=_thm1(model, constants, x_norm)["refined"].value,
        thm2_refined=_thm2(model, constants, x_norm)["refined"].value,
        gamma_sums=sums,
        n_dual_steps=n_dual,
    ))


def _maybe_select_checkpoint(run: TrainRun, dataset: Dataset) -> None:
    row = run.trace[-1]
    score = row.loss_val_proj if run.config.mode == "strict" else row.loss_val_raw
    if run.best_score is None or score < run.best_score:
        if run.config.mode == "strict":
            x_val, _ = dataset.stacked("val")
            probe = Tensor(x_val.data[:1])
            gap = float(equivariance_gaps(project_equivariant(run.model), probe).max())
            if gap > 1e-10:
                raise AssertionError(f"projected checkpoint not equivariant: {gap}")
        run.best_score = score
        run.best_step = run.step
        run.best_manifest = model_manifest(run.model)


# ---------------------------------------------------------------- batch losses


def _batch_loss(model: HomotopicModel, x: Tensor, y: Tensor) -> Tensor:
    return _mse(model.forward(x), y)


def _penalty_loss(model: HomotopicModel, x: Tensor, y: Tensor, config: TrainConfig, rng):
    """alpha * J0 + beta * mean_g mean_n ||f(rho(g)x_n) - rho(g)f(x_n)||^2."""
    j0 = _batch_loss(model, x, y)
    if config.beta == 0.0:
        return config.alpha * j0, j0
    base = model.forward(x)
    defect = None
    n = x.shape[0]
    for _ in range(config.n_g_samples):
        g = model.in_rep.group.sample(rng)
        moved = model.forward(model.in_rep.apply(g, x))
        fixed = model.out_rep.apply(g, base)
        gap = (moved - fixed).square().sum() * (1.0 / n)
        defect = gap if defect is None else defect + gap
    l_eq = defect * (1.0 / config.n_g_samples)
    return config.alpha * j0 + config.beta * l_eq, j0


# ---------------------------------------------------------------- the loop


def _trainable_params(model: HomotopicModel, mode: str):
    if mode == "plain":
        return model.eq_parameters()
    if mode == "penalty":
        return model.theta_parameters()
    return model.parameters()


def _prepare_model(model: HomotopicModel, config: TrainConfig) -> None:
    if config.mode == "plain":
        model.set_gamma_values(np.zeros(model.n_layers))
    elif config.mode == "penalty":
        model.set_gamma_values(np.full(model.n_layers, 1.0))
    else:
        model.set_gamma_values(np.full(model.n_layers, config.gamma_init))
    if config.mode in ("plain", "penalty"):
        for g in model.gammas():
            g.requires_grad = False


def _fresh_state(model: HomotopicModel, config: TrainConfig) -> DualState | None:
    if config.mode == "strict":
        return DualState.fresh(model.n_layers, "strict")
    if config.mode == "resilient":
        return DualState.fresh(model.n_layers, "resilient", rho=config.rho)
    return None


def train(model: HomotopicModel, dataset: Dataset, config: TrainConfig) -> TrainRun:
    """Run the configured mode from scratch and return the finished run."""
    _prepare_model(model, config)
    run = TrainRun(model=model, state=_fresh_state(model, config), config=config,
                   rng=np.random.default_rng(config.seed))
    _log_row(run, dataset)
    _maybe_select_checkpoint(run, dataset)
    return _run_epochs(run, dataset, config.epochs)


def _run_epochs(run: TrainRun, dataset: Dataset, until_epochs: int) -> TrainRun:
    config = run.config
    model = run.model
    params = _trainable_params(model, config.mode)
    step_config = config.step_config()
    train_idx = dataset.splits["train"]
    while run.epochs_done < until_epochs:
        order = run.rng.permutation(train_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            x = Tensor(dataset.inputs[batch])
            y = Tensor(dataset.targets[batch])
            zero_grad(params)
            if config.mode == "penalty":
                loss, j0 = _penalty_loss(model, x, y, config, run.rng)
            else:
                j0 = _batch_loss(model, x, y)
                if config.mode == "strict":
                    loss = lagrangian_strict(j0, model.gammas(), run.state)
                elif config.mode == "resilient":
                    loss = lagrangian_resilient(j0, model.gammas(), run.state)
                else:
                    loss = j0
            j0_value = j0.item()
            if not np.isfinite(j0_value) or abs(j0_value) > DIVERGENCE_LIMIT:
                run.diverged = True
                run.divergence_step = run.step
                return run
            loss.backward()
            gamma_now = model.gamma_values()
            if config.mode == "strict":
                dual_step_strict(run.state, gamma_now, config.eta_d)
            elif config.mode == "resilient":
                dual_step_resilient(run.state, gamma_now, config.eta_p, config.eta_d,
                                    u_ascent=config.u_ascent)
            primal_step(params, step_config)
            if config.spectral_norm:
                for layer in model.layers:
                    spectral_normalize(layer.neq, n_iters=config.sn_iters)
            run.step += 1
        run.epochs_done += 1
        if run.epochs_done % config.eval_every == 0 or run.epochs_done == until_epochs:
            _log_row(run, dataset)
            _maybe_select_checkpoint(run, dataset)
    return run


def train_strict(model, dataset, config: TrainConfig = None, **overrides) -> TrainRun:
    return train(model, dataset, _mode_config(config, "strict", overrides))


def train_resilient(model, dataset, config: TrainConfig = None, **overrides) -> TrainRun:
    return train(model, dataset, _mode_config(config, "resilient", overrides))


def train_penalty(model, dataset, config: TrainConfig = None, **overrides) -> TrainRun:
    return train(model, dataset, _mode_config(config, "penalty", overrides))


def train_plain_equivariant(model, dataset, config: TrainConfig = None, **overrides) -> TrainRun:
    return train(model, dataset, _mode_config(config, "plain", overrides))


def _mode_config(config: TrainConfig | None, mode: str, overrides: dict) -> TrainConfig:
    if config is None:
        return TrainConfig(mode=mode, **overrides)
    if overrides:
        config = replace(config, **overrides)
    if config.mode != mode:
        raise ValueError(f"config mode {config.mode!r} does not match {mode!r}")
    return config


# ---------------------------------------------------------------- checkpointing

_ROW_SCALARS = ("step", "loss_train", "loss_val_raw", "loss_val_proj", "eq_error_exact",
                "thm1_refined", "thm2_refined", "n_dual_steps")
_ROW_VECTORS = ("gammas", "lams", "us", "gamma_sums")


def _trace_to_array(trace, n_layers: int) -> np.ndarray:
    rows = []
    for row in trace:
        flat = [float(getattr(row, name)) for name in _ROW_SCALARS]
        for name in _ROW_VECTORS:
            flat.extend(np.asarray(getattr(row, name), dtype=np.float64))
        rows.append(flat)
    width = len(_ROW_SCALARS) + len(_ROW_VECTORS) * n_layers
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), width)


def _trace_from_array(arr: np.ndarray, n_layers: int):
    trace = []
    n_scalars = len(_ROW_SCALARS)
    for flat in arr:
        scalars = dict(zip(_ROW_SCALARS, flat[:n_scalars]))
        vectors = {}
        for j, name in enumerate(_ROW_VECTORS):
            start = n_scalars + j * n_layers
            vectors[name] = flat[start : start + n_layers].copy()
        trace.append(TraceRow(
            step=int(scalars["step"]),
            loss_train=scalars["loss_train"],
            loss_val_raw=scalars["loss_val_raw"],
            loss_val_proj=scalars["loss_val_proj"],
            eq_error_exact=scalars["eq_error_exact"],
            thm1_refined=scalars["thm1_refined"],
            thm2_refined=scalars["thm2_refined"],
            n_dual_steps=int(scalars["n_dual_steps"]),
            **vectors,
        ))
    return trace


def save_checkpoint(run: TrainRun, path) -> None:
    model_meta, model_arrays = model_manifest(run.model)
    arrays = {f"model/{k}": v for k, v in model_arrays.items()}
    meta = {
        "format": "ace-checkpoint",
        "version": CHECKPOINT_FORMAT_VERSION,
        "config": run.config.to_dict(),
        "model_meta": model_meta,
        "rng_state": json.dumps(run.rng.bit_generator.state),
        "step": run.step,
        "epochs_done": run.epochs_done,
        "diverged": run.diverged,
        "divergence_step": run.divergence_step,
        "best_score": run.best_score,
        "best_step": run.best_step,
        "has_best": run.best_manifest is not None,
        "n_layers": run.model.n_layers,
        "has_state": run.state is not None,
    }
    if run.state is not None:
        arrays["dual/lam"] = run.state.lam
        arrays["dual/lam0"] = run.state.lam0
        arrays["dual/gamma_step_sum"] = run.state.gamma_step_sum
        meta["dual_mode"] = run.state.mode
        meta["dual_rho"] = run.state.rho
        meta["dual_n_steps"] = run.state.n_dual_steps
        if run.state.u is not None:
            arrays["dual/u"] = run.state.u
    if run.best_manifest is not None:
        best_meta, best_arrays = run.best_manifest
        meta["best_meta"] = best_meta
        arrays.update({f"best/{k}": v for k, v in best_arrays.items()})
    arrays["trace"] = _trace_to_array(run.trace, run.model.n_layers)
    _binio.write_container(path, meta, arrays)


def load_checkpoint(path) -> TrainRun:
    meta, arrays = _binio.read_container(path)
    if meta.get("format") != "ace-checkpoint":
        raise _binio.ContainerError(f"{path}: not a training checkpoint")
    if meta.get("version") != CHECKPOINT_FORMAT_VERSION:
        raise _binio.ContainerError(
            f"{path}: checkpoint version {meta.get('version')} unsupported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    model_arrays = {k[len("model/"):]: v for k, v in arrays.items() if k.startswith("model/")}
    model = model_from_manifest(meta["model_meta"], model_arrays)
    config = TrainConfig(**meta["config"])
    state = None
    if meta["has_state"]:
        state = DualState(
            mode=meta["dual_mode"],
            lam=arrays["dual/lam"],
            u=arrays.get("dual/u"),
            rho=meta["dual_rho"],
            lam0=arrays["dual/lam0"],
            gamma_step_sum=arrays["dual/gamma_step_sum"],
            n_dual_steps=meta["dual_n_steps"],
        )
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(meta["rng_state"])
    best_manifest = None
    if meta["has_best"]:
        best_arrays = {k[len("best/"):]: v for k, v in arrays.items() if k.startswith("best/")}
        best_manifest = (meta["best_meta"], best_arrays)
    run = TrainRun(
        model=model,
        state=state,
        config=config,
        trace=_trace_from_array(arrays["trace"], meta["n_layers"]),
        rng=rng,
        step=meta["step"],
        epochs_done=meta["epochs_done"],
        diverged=meta["diverged"],
        divergence_step=meta["divergence_step"],
        best_score=meta["best_score"],
        best_step=meta["best_step"],
        best_manifest=best_manifest,
    )
    return run


def resume(path, dataset: Dataset, epochs: int = None) -> TrainRun:
    """Continue a checkpointed run until ``epochs`` total epochs."""
    run = load_checkpoint(path)
    target = run.config.epochs if epochs is None else epochs
    if target < run.epochs_done:
        raise ValueError(f"checkpoint already has {run.epochs_done} epochs, asked for {target}")
    if run.diverged:
        return run
    run.config = replace(run.config, epochs=target)
    return _run_epochs(run, dataset, target)
