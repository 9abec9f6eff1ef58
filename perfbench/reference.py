"""Independent re-implementation of what the benchmark checks ace against.

Nothing here imports ace. It holds

* a reader for the ``ACEBIN01`` container (``checkpoint.bin``) that checks
  the magic, the sha256 and the header, and splits the flat trace array
  into named columns;
* a numpy forward for every shipped layer kind, with the C4 correlations
  done by ``scipy.signal.correlate`` and the group actions by
  ``np.rot90`` / ``np.roll`` / fancy indexing;
* the two measured error families (distance to the gamma = 0
  projection, worst equivariance defect over the whole group) and a
  dense materialization of each equivariant layer's linear operator.

Models are described by the model manifest layout that ``checkpoint.bin``
stores: a ``meta`` dict with ``activation`` and one entry per layer, and
arrays ``layer{i}/eq/...``, ``layer{i}/neq/w{j}``, ``layer{i}/gamma``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import permutations
from pathlib import Path

import numpy as np

MAGIC = b"ACEBIN01"
_DTYPES = {"float64": "<f8", "int64": "<i8"}

# Column layout of the checkpoint's "trace" array: these scalars, then
# one block of n_layers values for each vector.
TRACE_SCALARS = ("step", "loss_train", "loss_val_raw", "loss_val_proj", "eq_error_exact",
                 "thm1_refined", "thm2_refined", "n_dual_steps")
TRACE_VECTORS = ("gammas", "lams", "us", "gamma_sums")


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


# ---------------------------------------------------------------- container


def read_container(path):
    """(meta, arrays) of an ACEBIN01 file; raises CheckError on any defect."""
    raw = Path(path).read_bytes()
    if len(raw) < 48 or raw[:8] != MAGIC:
        raise CheckError(f"{path}: bad magic")
    digest, body = raw[8:40], raw[40:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckError(f"{path}: sha256 does not match the payload")
    header_len = int.from_bytes(body[:8], "little")
    try:
        header = json.loads(body[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or set(header) != {"meta", "arrays"}:
        raise CheckError(f"{path}: header keys are not meta and arrays")
    arrays = {}
    offset = 8 + header_len
    for entry in header["arrays"]:
        if entry.get("dtype") not in _DTYPES:
            raise CheckError(f"{path}: array {entry.get('name')} has dtype {entry.get('dtype')}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        if offset + 8 * count > len(body):
            raise CheckError(f"{path}: payload truncated at {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(body, dtype=_DTYPES[entry["dtype"]], count=count,
                                              offset=offset).reshape(shape)
        offset += 8 * count
    if offset != len(body):
        raise CheckError(f"{path}: {len(body) - offset} bytes after the last array")
    return header["meta"], arrays


def read_checkpoint(path):
    """(meta, model, trace columns) of a training checkpoint."""
    meta, arrays = read_container(path)
    for key in ("format", "config", "model_meta", "n_layers", "step", "has_state"):
        if key not in meta:
            raise CheckError(f"{path}: checkpoint header lacks {key!r}")
    if meta["format"] != "ace-checkpoint":
        raise CheckError(f"{path}: format is {meta['format']!r}")
    model = model_from_manifest(meta["model_meta"], arrays, prefix="model/")
    if model.n_layers != meta["n_layers"]:
        raise CheckError(f"{path}: {model.n_layers} layers stored, header says {meta['n_layers']}")
    return meta, model, trace_columns(arrays["trace"], meta["n_layers"])


def trace_columns(trace: np.ndarray, n_layers: int) -> dict:
    """Split the flat (rows, 8 + 4L) trace array into named columns."""
    width = len(TRACE_SCALARS) + len(TRACE_VECTORS) * n_layers
    if trace.ndim != 2 or trace.shape[1] != width:
        raise CheckError(f"trace array is {trace.shape}, expected (rows, {width})")
    cols = {name: trace[:, i] for i, name in enumerate(TRACE_SCALARS)}
    for j, name in enumerate(TRACE_VECTORS):
        start = len(TRACE_SCALARS) + j * n_layers
        cols[name] = trace[:, start : start + n_layers]
    return cols


# ---------------------------------------------------------------- models


@dataclass(frozen=True)
class Layer:
    kind: str
    eq: dict  # weight name -> array
    neq: tuple  # dense matrices, ReLU between consecutive ones
    gamma: float
    pool: bool = False


@dataclass(frozen=True)
class Model:
    layers: tuple
    activation: str

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def projected(self) -> "Model":
        """The same weights with every gamma set to 0."""
        return replace(self, layers=tuple(replace(la, gamma=0.0) for la in self.layers))


def model_from_manifest(meta: dict, arrays: dict, prefix: str = "") -> Model:
    layers = []
    for i, entry in enumerate(meta["layers"]):
        base = f"{prefix}layer{i}/"
        eq = {key[len(base) + 3 :]: np.asarray(arr, dtype=np.float64)
              for key, arr in arrays.items() if key.startswith(base + "eq/")}
        neq = tuple(np.asarray(arrays[f"{base}neq/w{j}"], dtype=np.float64)
                    for j in range(entry["neq_depth"]))
        layers.append(Layer(kind=entry["kind"], eq=eq, neq=neq,
                            gamma=float(arrays[base + "gamma"]), pool=bool(entry.get("pool"))))
    return Model(tuple(layers), meta["activation"])


def _correlate_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Zero-padded stride-1 correlation summed over all leading kernel axes.

    x is (N, *c, H, W), kernels (O, *c, k, k); the result is (N, O, H, W).
    """
    from scipy.signal import correlate  # imported here so set-up probes never load scipy

    p = kernels.shape[-1] // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)])
    n, h, w = x.shape[0], x.shape[-2], x.shape[-1]
    return np.stack([correlate(xp, k[None], mode="valid", method="direct").reshape(n, h, w)
                     for k in kernels], axis=1)


def _rot(a: np.ndarray, r: int) -> np.ndarray:
    return np.rot90(a, r, axes=(-2, -1))


def eq_forward(layer: Layer, z: np.ndarray) -> np.ndarray:
    """The equivariant branch on a batch z."""
    if layer.kind == "c4_lifting_conv":
        k = layer.eq["kernels"]
        return np.stack([_correlate_same(z, _rot(k, r)) for r in range(4)], axis=1)
    if layer.kind == "c4_group_conv":
        k = layer.eq["kernels"]  # (O, 4, C, k, k)
        blocks = []
        for r in range(4):
            bank = np.stack([_rot(k[:, (s - r) % 4], r) for s in range(4)], axis=1)
            blocks.append(_correlate_same(z, bank))
        out = np.stack(blocks, axis=1)
        return out.mean(axis=1) if layer.pool else out
    if layer.kind == "deepsets_linear":
        return z @ layer.eq["a"] + z.mean(axis=-2, keepdims=True) @ layer.eq["b"]
    raise CheckError(f"no reference forward for layer kind {layer.kind!r}")


def neq_forward(layer: Layer, z: np.ndarray, out_shape: tuple) -> np.ndarray:
    flat = z.reshape(z.shape[0], -1)
    for i, m in enumerate(layer.neq):
        if i > 0:
            flat = np.maximum(flat, 0.0)
        flat = flat @ m
    return flat.reshape((z.shape[0],) + out_shape)


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Batched forward: x is (N, *input space), the result (N, *output space)."""
    z = x
    for i, layer in enumerate(model.layers):
        eq = eq_forward(layer, z)
        z = eq + layer.gamma * neq_forward(layer, z, eq.shape[1:])
        if model.activation == "relu" and i < model.n_layers - 1:
            z = np.maximum(z, 0.0)
    return z


# ---------------------------------------------------------------- group actions

_IN_REP = {"c4_lifting_conv": "image", "c4_group_conv": "regular", "deepsets_linear": "rows"}


def in_rep(model: Model) -> str:
    return _IN_REP[model.layers[0].kind]


def out_rep(model: Model) -> str:
    last = model.layers[-1]
    if last.kind == "c4_lifting_conv":
        return "regular"
    if last.kind == "c4_group_conv":
        return "image" if last.pool else "regular"
    return "rows"


def group_elements(rep: str, space_shape: tuple) -> list:
    """Every element: a rotation count for C4, a gather map for S_n."""
    if rep == "rows":
        return list(permutations(range(space_shape[0])))
    return [0, 1, 2, 3]


def act(rep: str, g, z: np.ndarray) -> np.ndarray:
    """The action of g on a batch z of the representation's space."""
    if rep == "image":
        return _rot(z, g)
    if rep == "regular":
        return _rot(np.roll(z, g, axis=-4), g)
    if rep == "rows":
        return z[..., list(g), :]
    raise CheckError(f"unknown representation {rep!r}")


# ---------------------------------------------------------------- measurements


def mse(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((forward(model, x) - y) ** 2))


def equivariance_gaps(model: Model, x: np.ndarray) -> np.ndarray:
    """(elements, N) norms ||g.f(x_n) - f(g.x_n)|| over the whole group.

    Every group image of the batch goes through one stacked forward.
    """
    rep_in, rep_out = in_rep(model), out_rep(model)
    gs = group_elements(rep_in, x.shape[1:])
    n = x.shape[0]
    moved = forward(model, np.concatenate([act(rep_in, g, x) for g in gs]))
    base = forward(model, x)
    fixed = np.concatenate([act(rep_out, g, base) for g in gs])
    return np.linalg.norm((fixed - moved).reshape(len(gs), n, -1), axis=2)


def approximation_error(model: Model, x: np.ndarray) -> float:
    """||f(x) - f_0(x)|| for one unbatched input."""
    return float(np.linalg.norm(forward(model, x[None]) - forward(model.projected(), x[None])))


def equivariance_error(model: Model, x: np.ndarray) -> float:
    """max_g ||g.f(x) - f(g.x)|| for one unbatched input."""
    return float(np.max(equivariance_gaps(model, x[None])))


def eq_operator(layer: Layer, in_shape: tuple) -> np.ndarray:
    """The equivariant branch as a dense (out_dim, in_dim) matrix."""
    dim = int(np.prod(in_shape))
    columns = eq_forward(layer, np.eye(dim).reshape((dim,) + tuple(in_shape)))
    return columns.reshape(dim, -1).T


def layer_input_shapes(model: Model, in_shape: tuple) -> list:
    """The space each layer reads, found by pushing a zero input through."""
    shapes, z = [], np.zeros((1,) + tuple(in_shape))
    for layer in model.layers:
        shapes.append(z.shape[1:])
        z = eq_forward(layer, z)
    return shapes
