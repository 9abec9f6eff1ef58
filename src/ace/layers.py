"""Equivariant layers, non-equivariant branches, and their homotopic sum.

A model is a chain of layers ``f_i(z) = f_eq_i(z) + gamma_i * f_neq_i(z)``
with pointwise ReLU between layers (never after the last). Setting every
gamma to zero recovers an exactly equivariant model.

Every branch here is bias-free. Both error bounds propagate worst-case
activation norms through products of per-layer constants, which needs
f(0) = 0 in each branch; a bias would silently break the certificates.

Certified constants:

* ``lipschitz_bound`` returns an upper bound on the layer's Lipschitz
  constant. For dense chains it is the product of exact largest singular
  values. For convolutions the default certificate is the per-offset
  spectral sum  sum_{di,dj} sigma_max(K[:, :, di, dj]) , valid because a
  stride-1 zero-padded correlation is a sum of k*k shift-then-mix maps
  and each shift is a contraction; this is never larger than the
  Frobenius fallback ||K||_F * k. ``method="exact"`` materializes the
  whole operator and takes its true sigma_max instead. For a
  non-equivariant branch it is the product of its matrices' sigma_max,
  which certifies ||f_neq(x)|| <= B ||x||.
"""

from __future__ import annotations

import numpy as np

from . import _binio
from .groups import (
    C4,
    PermutationRep,
    RegularRep,
    Representation,
    RotationImageRep,
    Sn,
    TrivialRep,
)
from .tensor import ShapeError, Tensor, conv2d, matmul, no_grad, reshape, roll, rot90, stack

__all__ = [
    "EquivariantLayer",
    "C4LiftingConv",
    "C4GroupConv",
    "DeepSetsLinear",
    "NonEquivariantLayer",
    "HomotopicLayer",
    "HomotopicModel",
    "SpaceMismatchError",
    "lipschitz_bound",
    "spectral_normalize",
    "project_equivariant",
    "model_manifest",
    "model_from_manifest",
    "save_model",
    "load_model",
    "build_c4_model",
    "build_set_model",
    "build_scalar_toy_model",
    "sample_random_model",
]


class SpaceMismatchError(ValueError):
    """Consecutive layers disagree about the space they share."""


def _sigma_max(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite weights, no certificate possible")
    return float(np.linalg.norm(mat, 2))


def _conv_offset_bound(kernels: np.ndarray) -> float:
    """Certified operator bound for same-padded stride-1 correlation."""
    k = kernels.shape[-1]
    total = 0.0
    for di in range(k):
        for dj in range(k):
            total += _sigma_max(kernels[:, :, di, dj])
    return total


# ---------------------------------------------------------------- equivariant kinds


class EquivariantLayer:
    """Shared surface: kind, weights, in/out representations, forward."""

    kind = ""

    def __init__(self):
        self.in_rep: Representation = None
        self.out_rep: Representation = None

    def forward(self, z: Tensor, batched: bool) -> Tensor:
        raise NotImplementedError

    def weight_tensors(self):
        raise NotImplementedError

    def fast_lipschitz(self) -> float:
        raise NotImplementedError


class C4LiftingConv(EquivariantLayer):
    """(C, H, W) -> (4, C', H, W): correlate with the 4 rotated kernel copies.

    Output block r holds the correlation with the kernel rotated by r, so
    rotating the input permutes and rotates the blocks: the regular action.
    Runs as one conv over the (4*C', C, k, k) bank of the rotated copies.
    """

    kind = "c4_lifting_conv"

    def __init__(self, kernels: Tensor, image_size: int):
        super().__init__()
        if kernels.ndim != 4:
            raise ShapeError(f"lifting kernels must be (C_out, C_in, k, k), got {kernels.shape}")
        self.kernels = kernels
        c_out, c_in = kernels.shape[0], kernels.shape[1]
        self.in_rep = RotationImageRep(c_in, image_size, image_size)
        self.out_rep = RegularRep(c_out, image_size, image_size)

    def forward(self, z, batched):
        c_out, c_in, k, _ = self.kernels.shape
        bank = stack([rot90(self.kernels, r) for r in range(4)])
        out = conv2d(z, reshape(bank, (4 * c_out, c_in, k, k)))
        return reshape(out, out.shape[:-3] + (4, c_out) + out.shape[-2:])

    def weight_tensors(self):
        return [("kernels", self.kernels)]

    def fast_lipschitz(self):
        # the 4 rotated copies share one operator norm; stacking gives sqrt(4)
        return 2.0 * _conv_offset_bound(self.kernels.data)


class C4GroupConv(EquivariantLayer):
    """(4, C, H, W) -> (4, C', H, W) group correlation over C4.

    Output block r sums, over input blocks s, the correlation of block s
    with the kernel slice (s - r) mod 4 rotated by r. With ``pool=True``
    the group axis is averaged away, leaving a (C', H, W) map that
    transforms by plain spatial rotation. The sixteen block correlations
    run as one conv over the p4 filter bank (Cohen & Welling 2016): row r
    is the kernel rolled by r along its group axis and rotated by r, and
    the rows stack to (4*C', 4*C, k, k) against 4*C merged input channels.
    """

    kind = "c4_group_conv"

    def __init__(self, kernels: Tensor, image_size: int, pool: bool = False):
        super().__init__()
        if kernels.ndim != 5 or kernels.shape[1] != 4:
            raise ShapeError(f"group-conv kernels must be (C_out, 4, C_in, k, k), got {kernels.shape}")
        self.kernels = kernels
        self.pool = bool(pool)
        c_out, _, c_in = kernels.shape[:3]
        self.in_rep = RegularRep(c_in, image_size, image_size)
        if self.pool:
            self.out_rep = RotationImageRep(c_out, image_size, image_size)
        else:
            self.out_rep = RegularRep(c_out, image_size, image_size)

    def forward(self, z, batched):
        c_out, _, c_in, k, _ = self.kernels.shape
        bank = stack([rot90(roll(self.kernels, r, axis=1), r) for r in range(4)])
        lead = z.shape[:-4]
        out = conv2d(reshape(z, lead + (4 * c_in,) + z.shape[-2:]),
                     reshape(bank, (4 * c_out, 4 * c_in, k, k)))
        out = reshape(out, lead + (4, c_out) + out.shape[-2:])
        if self.pool:
            out = out.mean(axes=len(lead))
        return out

    def weight_tensors(self):
        return [("kernels", self.kernels)]

    def fast_lipschitz(self):
        # block-circulant over the group: row sum of per-slice conv bounds
        total = sum(_conv_offset_bound(self.kernels.data[:, s]) for s in range(4))
        if self.pool:
            total *= 0.5  # group mean has operator norm exactly 1/2
        return total


class DeepSetsLinear(EquivariantLayer):
    """(n, d) -> (n, d'): z A + (1/n) 1 1^T z B, permutation equivariant."""

    kind = "deepsets_linear"

    def __init__(self, a: Tensor, b: Tensor, n_points: int):
        super().__init__()
        if a.shape != b.shape or a.ndim != 2:
            raise ShapeError(f"deepsets weights must be equal-shape matrices, got {a.shape}, {b.shape}")
        self.a = a
        self.b = b
        self.n_points = n_points
        self._ones = Tensor(np.full((n_points, n_points), 1.0 / n_points))
        self.in_rep = PermutationRep(n_points, a.shape[0])
        self.out_rep = PermutationRep(n_points, a.shape[1])

    def forward(self, z, batched):
        return matmul(z, self.a) + matmul(matmul(self._ones, z), self.b)

    def weight_tensors(self):
        return [("a", self.a), ("b", self.b)]

    def fast_lipschitz(self):
        # exact: mean rows map through A+B, mean-free rows through A
        return max(_sigma_max(self.a.data + self.b.data), _sigma_max(self.a.data))


# ---------------------------------------------------------------- non-equivariant branch


class NonEquivariantLayer:
    """Dense bias-free map on the flattened layer space.

    One matrix is an affine (linear) map, two matrices form a 2-layer
    MLP with ReLU in between. Holds persisted power-iteration vectors
    for spectral normalization.
    """

    def __init__(self, matrices, in_shape, out_shape):
        self.matrices = list(matrices)
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        flat_in = int(np.prod(self.in_shape))
        flat_out = int(np.prod(self.out_shape))
        dims = [m.shape for m in self.matrices]
        if dims[0][0] != flat_in or dims[-1][1] != flat_out:
            raise ShapeError(f"neq matrices {dims} do not map {self.in_shape} to {self.out_shape}")
        for left, right in zip(dims, dims[1:]):
            if left[1] != right[0]:
                raise ShapeError(f"neq chain mismatch: {left} then {right}")
        self._sn_vectors = [self._init_vector(m.shape) for m in self.matrices]

    @staticmethod
    def _init_vector(shape):
        rng = np.random.default_rng(0xACE + shape[0] * 131 + shape[1])
        v = rng.normal(size=shape[1])
        return v / np.linalg.norm(v)

    def forward(self, z, batched):
        n_lead = z.shape[0] if batched else 1
        flat = reshape(z, (n_lead, int(np.prod(self.in_shape))))
        out = flat
        for i, m in enumerate(self.matrices):
            if i > 0:
                out = out.relu()
            out = matmul(out, m)
        shape = (n_lead,) + self.out_shape if batched else self.out_shape
        return reshape(out, shape)

    def weight_tensors(self):
        return [(f"w{i}", m) for i, m in enumerate(self.matrices)]


# ---------------------------------------------------------------- homotopic structure


class HomotopicLayer:
    """eq(z) + gamma * neq(z); gamma is a trainable scalar."""

    def __init__(self, eq: EquivariantLayer, neq: NonEquivariantLayer, gamma: float = 1.0,
                 gamma_trainable: bool = True):
        if neq.in_shape != eq.in_rep.space_shape or neq.out_shape != eq.out_rep.space_shape:
            raise SpaceMismatchError(
                f"neq branch maps {neq.in_shape}->{neq.out_shape} but eq layer "
                f"({eq.kind}) maps {eq.in_rep.space_shape}->{eq.out_rep.space_shape}"
            )
        self.eq = eq
        self.neq = neq
        self.gamma = Tensor(float(gamma), requires_grad=gamma_trainable)

    def forward(self, z, batched):
        return self.eq.forward(z, batched) + self.gamma * self.neq.forward(z, batched)


class HomotopicModel:
    """Chain of homotopic layers with ReLU between them (none after last)."""

    def __init__(self, layers, activation: str = "relu"):
        if not layers:
            raise SpaceMismatchError("a model needs at least one layer")
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        for i, (prev, nxt) in enumerate(zip(layers, layers[1:]), start=1):
            out_rep, in_rep = prev.eq.out_rep, nxt.eq.in_rep
            if out_rep.space_shape != in_rep.space_shape or out_rep.kind != in_rep.kind:
                raise SpaceMismatchError(
                    f"layer {i} output {out_rep.kind}{out_rep.space_shape} does not match "
                    f"layer {i + 1} input {in_rep.kind}{in_rep.space_shape}"
                )
        self.layers = list(layers)
        self.activation = activation
        self.in_rep = layers[0].eq.in_rep
        self.out_rep = layers[-1].eq.out_rep

    # -- evaluation ----------------------------------------------------------

    def _is_batched(self, x: Tensor) -> bool:
        space = self.in_rep.space_shape
        if x.shape == space:
            return False
        if x.ndim == len(space) + 1 and x.shape[1:] == space:
            return True
        raise ShapeError(f"model input shape {x.shape} does not match space {space}")

    def forward(self, x: Tensor) -> Tensor:
        z = x
        batched = self._is_batched(x)
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            z = layer.forward(z, batched)
            if self.activation == "relu" and i != last:
                z = z.relu()
        return z

    def forward_with_intermediates(self, x: Tensor):
        """Returns [z0 = x, z1, ..., zL] as each layer sees them."""
        z = x
        batched = self._is_batched(x)
        zs = [z]
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            z = layer.forward(z, batched)
            if self.activation == "relu" and i != last:
                z = z.relu()
            zs.append(z)
        return zs

    # -- parameter access ------------------------------------------------------

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def gammas(self):
        return [layer.gamma for layer in self.layers]

    def gamma_values(self) -> np.ndarray:
        return np.array([layer.gamma.item() for layer in self.layers])

    def set_gamma_values(self, values) -> None:
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size != len(self.layers):
            raise ShapeError(f"expected {len(self.layers)} gammas, got {values.size}")
        for layer, v in zip(self.layers, values):
            layer.gamma.data = np.asarray(float(v))

    def theta_parameters(self):
        """Branch weights (eq then neq per layer), trainable ones only."""
        params = []
        for layer in self.layers:
            for _, w in layer.eq.weight_tensors():
                if w.requires_grad:
                    params.append(w)
            for _, w in layer.neq.weight_tensors():
                if w.requires_grad:
                    params.append(w)
        return params

    def eq_parameters(self):
        params = []
        for layer in self.layers:
            for _, w in layer.eq.weight_tensors():
                if w.requires_grad:
                    params.append(w)
        return params

    def parameters(self):
        return self.theta_parameters() + [g for g in self.gammas() if g.requires_grad]


def project_equivariant(model: HomotopicModel) -> HomotopicModel:
    """The equivariant skeleton: same weights, every gamma pinned to 0.

    Shares weight tensors with the original (cheap view); the original
    model and its gammas are untouched.
    """
    cloned = []
    for layer in model.layers:
        cloned.append(HomotopicLayer(layer.eq, layer.neq, gamma=0.0, gamma_trainable=False))
    return HomotopicModel(cloned, activation=model.activation)


# ---------------------------------------------------------------- certified constants


def _materialize_operator(forward, in_shape, out_dim_probe=None) -> np.ndarray:
    flat_in = int(np.prod(in_shape))
    columns = []
    for j in range(flat_in):
        e = np.zeros(flat_in)
        e[j] = 1.0
        out = forward(Tensor(e.reshape(in_shape)), False)
        columns.append(out.data.reshape(-1))
    return np.stack(columns, axis=1)


EXACT_DIM_LIMIT = 4096


def lipschitz_bound(layer, method: str = "fast") -> float:
    """Certified upper bound on the Lipschitz constant of one branch.

    ``fast`` uses closed-form certificates (exact for dense chains,
    conservative for convolutions); ``exact`` materializes the operator
    matrix and returns its true largest singular value (the shipped
    equivariant kinds and neq branches without ReLU are linear).
    """
    if isinstance(layer, NonEquivariantLayer):
        bound = 1.0
        for m in layer.matrices:
            bound *= _sigma_max(m.data)
        return bound
    if not isinstance(layer, EquivariantLayer):
        raise TypeError(f"no Lipschitz certificate for {type(layer).__name__}")
    for _, w in layer.weight_tensors():
        if not np.all(np.isfinite(w.data)):
            raise ValueError("non-finite weights, no certificate possible")
    if method == "fast":
        return layer.fast_lipschitz()
    if method == "exact":
        flat_in = int(np.prod(layer.in_rep.space_shape))
        if flat_in > EXACT_DIM_LIMIT:
            raise ValueError(f"exact certificate limited to dim {EXACT_DIM_LIMIT}, got {flat_in}")
        with no_grad():
            matrix = _materialize_operator(layer.forward, layer.in_rep.space_shape)
        return _sigma_max(matrix)
    raise ValueError(f"unknown method {method!r}")


def spectral_normalize(layer: NonEquivariantLayer, n_iters: int = 1) -> NonEquivariantLayer:
    """Divide each matrix by its power-iteration sigma_max estimate.

    The iteration vectors persist on the layer, so repeated calls during
    training track the slowly moving weights and the estimate tightens
    over steps.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    for m, u in zip(layer.matrices, layer._sn_vectors):
        mat = m.data
        v = None
        for _ in range(n_iters):
            v = mat @ u
            nv = np.linalg.norm(v)
            if nv == 0.0:
                break
            v /= nv
            u[:] = mat.T @ v
            nu = np.linalg.norm(u)
            if nu == 0.0:
                break
            u /= nu
        if v is None:
            continue
        sigma = float(v @ mat @ u)
        if sigma > 0.0:
            m.data = mat / sigma
    return layer


# ---------------------------------------------------------------- serialization

MODEL_FORMAT_VERSION = 1


def _layer_manifest(layer: HomotopicLayer) -> dict:
    eq = layer.eq
    entry = {"kind": eq.kind, "gamma_trainable": layer.gamma.requires_grad,
             "neq_depth": len(layer.neq.matrices),
             "neq_trainable": layer.neq.matrices[0].requires_grad,
             "eq_trainable": eq.weight_tensors()[0][1].requires_grad}
    if isinstance(eq, (C4LiftingConv, C4GroupConv)):
        entry["image_size"] = eq.in_rep.space_shape[-1]
    if isinstance(eq, C4GroupConv):
        entry["pool"] = eq.pool
    if isinstance(eq, DeepSetsLinear):
        entry["n_points"] = eq.n_points
    return entry


def model_manifest(model: HomotopicModel):
    """(meta, arrays) fully describing the model; basis of all model io."""
    meta = {
        "format": "ace-model",
        "version": MODEL_FORMAT_VERSION,
        "activation": model.activation,
        "layers": [_layer_manifest(layer) for layer in model.layers],
    }
    arrays = {}
    for i, layer in enumerate(model.layers):
        for name, w in layer.eq.weight_tensors():
            arrays[f"layer{i}/eq/{name}"] = w.data.copy()
        for name, w in layer.neq.weight_tensors():
            arrays[f"layer{i}/neq/{name}"] = w.data.copy()
        for j, u in enumerate(layer.neq._sn_vectors):
            arrays[f"layer{i}/neq/sn{j}"] = u.copy()
        arrays[f"layer{i}/gamma"] = np.asarray(layer.gamma.data).copy()
    return meta, arrays


def save_model(model: HomotopicModel, path) -> None:
    meta, arrays = model_manifest(model)
    _binio.write_container(path, meta, arrays)


def _rebuild_layer(entry: dict, i: int, arrays: dict) -> HomotopicLayer:
    eq_train = entry["eq_trainable"]
    if entry["kind"] == "c4_lifting_conv":
        eq = C4LiftingConv(Tensor(arrays[f"layer{i}/eq/kernels"], requires_grad=eq_train),
                           image_size=entry["image_size"])
    elif entry["kind"] == "c4_group_conv":
        eq = C4GroupConv(Tensor(arrays[f"layer{i}/eq/kernels"], requires_grad=eq_train),
                         image_size=entry["image_size"], pool=entry["pool"])
    elif entry["kind"] == "deepsets_linear":
        eq = DeepSetsLinear(Tensor(arrays[f"layer{i}/eq/a"], requires_grad=eq_train),
                            Tensor(arrays[f"layer{i}/eq/b"], requires_grad=eq_train),
                            n_points=entry["n_points"])
    else:
        raise _binio.ContainerError(f"unknown layer kind {entry['kind']!r}")
    mats = [Tensor(arrays[f"layer{i}/neq/w{j}"], requires_grad=entry["neq_trainable"])
            for j in range(entry["neq_depth"])]
    neq = NonEquivariantLayer(mats, eq.in_rep.space_shape, eq.out_rep.space_shape)
    for j in range(entry["neq_depth"]):
        neq._sn_vectors[j] = arrays[f"layer{i}/neq/sn{j}"].copy()
    gamma = float(arrays[f"layer{i}/gamma"])
    return HomotopicLayer(eq, neq, gamma=gamma, gamma_trainable=entry["gamma_trainable"])


def model_from_manifest(meta: dict, arrays: dict) -> HomotopicModel:
    if meta.get("format") != "ace-model":
        raise _binio.ContainerError("not a model manifest")
    if meta.get("version") != MODEL_FORMAT_VERSION:
        raise _binio.ContainerError(
            f"model format version {meta.get('version')} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    layers = [_rebuild_layer(entry, i, arrays) for i, entry in enumerate(meta["layers"])]
    return HomotopicModel(layers, activation=meta["activation"])


def load_model(path) -> HomotopicModel:
    meta, arrays = _binio.read_container(path)
    try:
        return model_from_manifest(meta, arrays)
    except _binio.ContainerError as exc:
        raise _binio.ContainerError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- factories


def _neq_for(in_shape, out_shape, rng, kind: str = "dense", hidden: int = 16,
             trainable: bool = True, scale: float = 1.0):
    flat_in = int(np.prod(in_shape))
    flat_out = int(np.prod(out_shape))
    if kind == "dense":
        dims = [(flat_in, flat_out)]
    elif kind == "mlp":
        dims = [(flat_in, hidden), (hidden, flat_out)]
    else:
        raise ValueError(f"unknown neq kind {kind!r}")
    mats = [Tensor(rng.normal(size=d) * (scale / np.sqrt(d[0])), requires_grad=trainable)
            for d in dims]
    return NonEquivariantLayer(mats, in_shape, out_shape)


def build_c4_model(image_size: int = 8, in_channels: int = 1, hidden: int = 4,
                   out_channels: int = 1, n_layers: int = 2, kernel_size: int = 3,
                   neq_kind: str = "dense", neq_hidden: int = 16, rng=None,
                   gamma_init: float = 1.0, weight_scale: float = 1.0,
                   neq_scale: float = 1.0, activation: str = "relu") -> HomotopicModel:
    """Lifting conv, optional middle group convs, pooled group conv head."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    k = kernel_size
    layers = []

    def kern(*shape):
        fan = int(np.prod(shape[1:]))
        return Tensor(rng.normal(size=shape) * (weight_scale / np.sqrt(fan)), requires_grad=True)

    eq = C4LiftingConv(kern(hidden if n_layers > 1 else out_channels, in_channels, k, k),
                       image_size=image_size)
    layers.append(eq)
    for _ in range(max(0, n_layers - 2)):
        layers.append(C4GroupConv(kern(hidden, 4, hidden, k, k), image_size=image_size))
    if n_layers > 1:
        layers.append(C4GroupConv(kern(out_channels, 4, hidden, k, k),
                                  image_size=image_size, pool=True))

    homotopic = []
    for eq_layer in layers:
        neq = _neq_for(eq_layer.in_rep.space_shape, eq_layer.out_rep.space_shape, rng,
                       kind=neq_kind, hidden=neq_hidden, scale=weight_scale * neq_scale)
        homotopic.append(HomotopicLayer(eq_layer, neq, gamma=gamma_init))
    return HomotopicModel(homotopic, activation=activation)


def build_set_model(n_points: int = 4, d: int = 2, hidden: int = 8, d_out: int = None,
                    n_layers: int = 2, neq_kind: str = "dense", neq_hidden: int = 16,
                    rng=None, gamma_init: float = 1.0, weight_scale: float = 1.0,
                    neq_scale: float = 1.0, activation: str = "relu") -> HomotopicModel:
    """Chain of permutation-equivariant linear layers on (n_points, d) sets."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    d_out = d if d_out is None else d_out
    widths = [d] + [hidden] * (n_layers - 1) + [d_out]
    homotopic = []
    for i in range(n_layers):
        din, dout = widths[i], widths[i + 1]
        a = Tensor(rng.normal(size=(din, dout)) * (weight_scale / np.sqrt(din)), requires_grad=True)
        b = Tensor(rng.normal(size=(din, dout)) * (weight_scale / np.sqrt(din)), requires_grad=True)
        eq = DeepSetsLinear(a, b, n_points)
        neq = _neq_for((n_points, din), (n_points, dout), rng,
                       kind=neq_kind, hidden=neq_hidden, scale=weight_scale * neq_scale)
        homotopic.append(HomotopicLayer(eq, neq, gamma=gamma_init))
    return HomotopicModel(homotopic, activation=activation)


def build_scalar_toy_model(gamma_init: float = 1.0) -> HomotopicModel:
    """One trainable parameter (gamma): eq is the zero map, neq the identity.

    With the single input x = [[1]] the model output is exactly gamma, so
    an MSE against [[a]] is the scalar objective (gamma - a)^2.
    """
    eq = DeepSetsLinear(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))), n_points=1)
    neq = NonEquivariantLayer([Tensor(np.eye(1))], (1, 1), (1, 1))
    layer = HomotopicLayer(eq, neq, gamma=gamma_init)
    return HomotopicModel([layer], activation="none")


def sample_random_model(rng, family: str = None) -> HomotopicModel:
    """Small random model for bound-soundness sweeps: mixed kinds,
    gamma uniform in [-1, 1], weight scales spanning contractive and
    expansive layers."""
    family = family or ("c4" if rng.integers(2) == 0 else "set")
    n_layers = int(rng.integers(1, 5))
    neq_kind = "dense" if rng.integers(2) == 0 else "mlp"
    scale = float(rng.uniform(0.4, 1.6))
    activation = "relu" if rng.integers(2) == 0 else "none"
    if family == "c4":
        model = build_c4_model(image_size=6, in_channels=1,
                               hidden=int(rng.integers(1, 3)), out_channels=1,
                               n_layers=n_layers, kernel_size=3, neq_kind=neq_kind,
                               neq_hidden=8, rng=rng, weight_scale=scale,
                               activation=activation)
    else:
        model = build_set_model(n_points=int(rng.integers(3, 6)), d=int(rng.integers(2, 5)),
                                hidden=int(rng.integers(2, 6)), n_layers=n_layers,
                                neq_kind=neq_kind, neq_hidden=8, rng=rng,
                                weight_scale=scale, activation=activation)
    model.set_gamma_values(rng.uniform(-1.0, 1.0, size=model.n_layers))
    return model
