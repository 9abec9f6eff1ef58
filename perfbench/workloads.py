"""The three workloads: the ace commands they run, their inputs, their checks.

Every operation goes through the public entry point ``ace.cli.main``,
in this process, with stdout and stderr captured. The workload seed
goes into ``task.seed``, ``model.seed`` and ``train.seed`` (training) or
picks the block of model seeds a sweep certifies (``bounds_sweep``).
"""

from __future__ import annotations

import io
import json
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference as ref
from reference import CheckError

ROOT = Path(__file__).resolve().parent.parent

C4_EPOCHS = 20  # 3 steps per epoch: 60 steps and 2 trace rows per invocation
SET_EPOCHS = 75  # 4 steps per epoch: 300 steps and 76 trace rows per invocation
FAULT_EPOCHS = 3
BOUNDS_MODELS = 50  # models per verify-bounds invocation


@dataclass
class OpResult:
    """One ``ace.cli.main`` invocation."""

    out_dir: Path
    code: int | None  # None when main raised
    error: str | None
    stderr: str
    wall: float
    train_s: float | None = None
    steps: int | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.code == 0


def invoke(argv, out_dir: Path, quiet: bool = False) -> OpResult:
    """Run ``ace.cli.main(argv)``; times the call and, inside it, ``train``."""
    import ace.cli

    inner = ace.cli.train
    timings = []

    def timed_train(*args, **kwargs):
        t0 = time.perf_counter()
        run = inner(*args, **kwargs)
        timings.append((time.perf_counter() - t0, run.step))
        return run

    ace.cli.train = timed_train
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            if quiet:
                warnings.simplefilter("ignore")
            code = ace.cli.main(argv)
    except Exception as exc:  # the operation failed; the caller counts it
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        ace.cli.train = inner
    result = OpResult(Path(out_dir), code, error, err.getvalue(), wall)
    if timings:
        result.train_s, result.steps = timings[-1]
    return result


class Training:
    """``ace train`` on a shipped config with the benchmark's overrides."""

    def __init__(self, name: str, config: str, sets, seed: int, fault_sets=None):
        self.name, self.config, self.sets, self.seed = name, config, list(sets), seed
        self.fault_sets = fault_sets
        self._val = None

    def _pairs(self, sets, out_dir) -> list:
        return list(sets) + [f"task.seed={self.seed}", f"model.seed={self.seed}",
                             f"train.seed={self.seed}", f"out_dir={out_dir}"]

    def _argv(self, sets, out_dir) -> list:
        flags = [a for pair in self._pairs(sets, out_dir) for a in ("--set", pair)]
        return ["train", "--config", str(ROOT / self.config)] + flags

    def main_argv(self, k: int, out_dir: Path) -> list:
        return self._argv(self.sets, out_dir)

    def fault_argvs(self, out_dir: Path) -> list:
        """Untimed operations run once per round: (argv, out_dir) pairs."""
        if self.fault_sets is None:
            return []
        return [(self._argv(self.sets + self.fault_sets, out_dir), out_dir)]

    def resolved_config(self) -> dict:
        import ace.cli

        raw = ace.cli.load_experiment_config(ROOT / self.config)
        raw = ace.cli.apply_overrides(raw, self._pairs(self.sets, "unused"), env={})
        return ace.cli.validate_experiment_config(raw)

    def prepare(self):
        """What a user pays before the first step: config, dataset, model."""
        import ace.cli

        cfg = self.resolved_config()
        dataset = ace.cli.build_dataset(cfg)
        return ace.cli.build_model(cfg, dataset), dataset

    def throughput(self, result: OpResult) -> float:
        return result.steps / result.train_s

    def check_main(self, result: OpResult, k: int) -> None:
        if self._val is None:
            import ace.cli

            dataset = ace.cli.build_dataset(self.resolved_config())
            idx = dataset.splits["val"]
            self._val = dataset.inputs[idx], dataset.targets[idx]
        checks.check_training_run(result.out_dir, *self._val, steps=result.steps)

    def check_fault(self, result: OpResult) -> None:
        if result.error is not None:
            raise CheckError(result.error)
        checks.check_divergence_reported(result.code, result.stderr, result.out_dir)

    def check_all(self, results) -> None:
        """Same seed, same bytes: every iteration of a run wrote identical files."""
        for name in ("trace.csv", "checkpoint.bin"):
            checks.check_identical([r.out_dir / name for r in results])


class BoundsSweep:
    """``ace verify-bounds`` over mixed random models; each iteration a new block."""

    name = "bounds_sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def sweep_seed(self, k: int) -> int:
        return self.seed * 1_000_000 + k * BOUNDS_MODELS

    def main_argv(self, k: int, out_dir: Path) -> list:
        out_dir.mkdir(parents=True, exist_ok=True)
        config = {"family": "mixed", "n_models": BOUNDS_MODELS, "seed": self.sweep_seed(k),
                  "out_dir": str(out_dir)}
        path = out_dir / "bounds.json"
        path.write_text(json.dumps(config))
        return ["verify-bounds", "--config", str(path)]

    def fault_argvs(self, out_dir: Path) -> list:
        return []

    def prepare(self):
        """Imports, then the first model of the sweep and its input."""
        from ace.layers import sample_random_model

        rng = np.random.default_rng(self.sweep_seed(0))
        model = sample_random_model(rng, family=None)
        return model, rng.normal(size=model.in_rep.space_shape)

    def throughput(self, result: OpResult) -> float:
        return BOUNDS_MODELS / result.wall

    def check_main(self, result: OpResult, k: int) -> None:
        from ace.layers import lipschitz_bound, model_manifest, sample_random_model

        rows = checks.read_bounds_csv(result.out_dir / "bounds_report.csv", BOUNDS_MODELS)
        for i in range(BOUNDS_MODELS):
            seed = self.sweep_seed(k) + i
            (s_a, kind_a, approx, ok_a), (s_e, kind_e, equiv, ok_e) = rows[2 * i : 2 * i + 2]
            if (s_a, kind_a, s_e, kind_e) != (seed, "approx", seed, "equiv"):
                raise CheckError(f"bounds_report.csv rows {2 * i}, {2 * i + 1} are not model {seed}")
            checks.check_chain(seed, "approx", approx, ok_a)
            checks.check_chain(seed, "equiv", equiv, ok_e)
            rng = np.random.default_rng(seed)
            model = sample_random_model(rng, family=None)
            x = rng.normal(size=model.in_rep.space_shape)
            own = ref.model_from_manifest(*model_manifest(model))
            checks.close(f"seed {seed} approximation error", approx[0],
                         ref.approximation_error(own, x))
            checks.close(f"seed {seed} equivariance error", equiv[0],
                         ref.equivariance_error(own, x))
            if i == 0:  # the first model of each block: operator materialized and SVD'd
                shapes = ref.layer_input_shapes(own, x.shape)
                for j, (layer, own_layer) in enumerate(zip(model.layers, own.layers)):
                    checks.check_lipschitz(f"seed {seed} layer {j + 1}",
                                           lipschitz_bound(layer.eq, method="fast"),
                                           ref.eq_operator(own_layer, shapes[j]))

    def check_all(self, results) -> None:
        """Each round certifies its own block of models: nothing to compare."""


def make(name: str, seed: int):
    if name == "c4_resilient":
        return Training(name, "configs/rectangle_resilient.json",
                        [f"train.epochs={C4_EPOCHS}"], seed)
    if name == "set_strict_eval":
        return Training(name, "configs/broken_set_resilient.json",
                        ["train.mode=strict", "train.eval_every=1", f"train.epochs={SET_EPOCHS}"],
                        seed, fault_sets=[f"train.epochs={FAULT_EPOCHS}", "train.eta_p=1e300"])
    if name == "bounds_sweep":
        return BoundsSweep(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- layer kinds alone


def layer_kinds(seed: int) -> dict:
    """One layer of each shipped kind, from the model its training workload builds.

    The unpooled group conv comes from the same C4 config with three layers.
    """
    c4 = make("c4_resilient", seed)
    c4_model, _ = c4.prepare()
    deep = Training(c4.name, c4.config, c4.sets + ["model.n_layers=3"], seed)
    deep_model, _ = deep.prepare()
    set_model, _ = make("set_strict_eval", seed).prepare()
    return {
        "c4_lifting": c4_model.layers[0].eq,
        "c4_group": deep_model.layers[1].eq,
        "c4_group_pooled": c4_model.layers[1].eq,
        "deepsets": set_model.layers[0].eq,
        "neq": set_model.layers[0].neq,
    }


def layer_ms(layer, rng, repeats: int = 40, backward: bool = True) -> float:
    """Median ms of the layer's forward, plus ``Tensor.backward`` unless
    ``backward`` is false, on a random batch of the workloads' batch size (32)."""
    from ace.tensor import Tensor, zero_grad

    in_shape = layer.in_shape if hasattr(layer, "in_shape") else layer.in_rep.space_shape
    z = Tensor(rng.normal(size=(32,) + tuple(in_shape)))
    weights = [w for _, w in layer.weight_tensors()]
    times = []
    for i in range(repeats + 5):
        zero_grad(weights)
        t0 = time.perf_counter()
        out = layer.forward(z, True)
        if backward:
            out.sum().backward()
        if i >= 5:
            times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def layer_fwdbwd_ms(seed: int) -> dict:
    """Forward plus backward ms of each layer kind alone, by ``layer_ms``."""
    rng = np.random.default_rng(seed)
    return {f"layers.{kind}.fwdbwd_ms": layer_ms(layer, rng)
            for kind, layer in layer_kinds(seed).items()}
