"""Measured symmetry errors and certified upper bounds on them.

Two measured quantities:

* approximation error  ||f(x) - f_0(x)||  against the gamma = 0 model,
* equivariance error   max_g ||rho_out(g) f(x) - f(rho_in(g) x)||.

Four closed-form certificates bound them from per-layer constants
(Meq_i from the equivariant branch, B_i from the non-equivariant one),
plus two per-input recursions that reuse the actual intermediate norms
of a forward pass and sit between the measured value and the closed
forms. The guaranteed chain, tested on random models, is

    measured <= recursion <= refined <= coarse.

Constant folding: the closed forms take single constants, so
M = max_i max(Meq_i, B_i) and B = max_i B_i. Folding B into M keeps
M a bound on every whole-layer Lipschitz factor (Meq_i + |g|B_i <=
M(1+|g|)), which the coarse forms silently assume. The equivariance
forms square a constant that must also dominate the representation
operator norm (1 for the isometric actions here), so they use
B2 = max(B, 1); with B2 < 1 the squared term would undercount one
factor and the certificate would be wrong for contractive branches.
The growth constant is C = max(B2/M, 1) in the refined form and
M*C = max(B2, M) in the coarse one, which keeps refined <= coarse an
algebraic identity instead of a hope.

The equivariance defect has one implementation, ``equivariance_gaps``:
the per-element, per-sample norms ||rho_out(g) f(x_n) - f(rho_in(g) x_n)||
from one forward over the whole orbit, every rho_in(g) x stacked along
the batch axis (f(x) is the identity's block); it builds no autodiff
graph. ``equivariance_error`` reduces those gaps. A branch whose weights
are no longer finite gets the constant inf, so its certificates
saturate to inf instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import Group
from .layers import HomotopicModel, lipschitz_bound, project_equivariant
from .tensor import Tensor, no_grad

__all__ = [
    "BoundCertificate",
    "EquivarianceReport",
    "layer_constants",
    "approximation_error",
    "equivariance_gaps",
    "equivariance_error",
    "thm1_bounds",
    "thm2_bounds",
    "recursion_bounds",
    "bound_report",
]


@dataclass(frozen=True)
class BoundCertificate:
    """A certified non-negative bound plus the constants it used."""

    kind: str
    value: float
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValueError(f"{self.kind} certificate is negative: {self.value}")


@dataclass(frozen=True)
class EquivarianceReport:
    """Worst-case and average symmetry violation of a model at one input.

    ``exact_error`` is the maximum over every enumerated group element
    (None when only sampling was requested); ``mc_error`` is the mean
    over the elements actually evaluated.
    """

    exact_error: float | None
    mc_error: float
    n_samples: int
    per_element: dict


# ---------------------------------------------------------------- constants


def _branch_bound(branch, method: str = "fast") -> float:
    if not all(np.all(np.isfinite(w.data)) for _, w in branch.weight_tensors()):
        return float("inf")
    return lipschitz_bound(branch, method=method)


def layer_constants(model: HomotopicModel, method: str = "fast"):
    """Certified (Meq_i, B_i, Brho_i) triples for every layer (inf for a
    branch with non-finite weights)."""
    meq = [_branch_bound(layer.eq, method=method) for layer in model.layers]
    b = [_branch_bound(layer.neq) for layer in model.layers]
    brho = [max(layer.eq.in_rep.operator_norm_bound(), layer.eq.out_rep.operator_norm_bound())
            for layer in model.layers]
    return meq, b, brho


def _fold(model: HomotopicModel, constants):
    meq, b, brho = constants
    gammas = np.abs(model.gamma_values())
    m = max(max(meq), max(b))
    return meq, b, gammas, m, max(b), max(max(b), max(brho))


# ---------------------------------------------------------------- measurements


def approximation_error(model: HomotopicModel, x: Tensor) -> float:
    """||f(x) - f_0(x)|| where f_0 is the projected (gamma = 0) model."""
    full = model.forward(x).data
    base = project_equivariant(model).forward(x).data
    return float(np.linalg.norm(full - base))


@no_grad()
def equivariance_gaps(model: HomotopicModel, x: Tensor, gs=None) -> np.ndarray:
    """(len(gs), N) defects ||rho_out(g) f(x_n) - f(rho_in(g) x_n)||.

    ``gs`` defaults to every group element; an unbatched x counts as
    N = 1. One forward covers the orbit stacked along the batch axis,
    with the identity image prepended when ``gs`` lacks it; f(x) is read
    from that block, so the identity's row is exactly 0.
    """
    gs = model.in_rep.group.elements() if gs is None else list(gs)
    identity = model.in_rep.group.identity()
    orbit = gs if identity in gs else [identity] + gs
    xb = Tensor(x.data[None]) if x.shape == model.in_rep.space_shape else x
    out = model.forward(Tensor(np.concatenate([model.in_rep.apply(g, xb).data for g in orbit])))
    blocks = out.data.reshape((len(orbit), xb.shape[0]) + out.shape[1:])
    base = Tensor(blocks[orbit.index(identity)])
    fixed = np.stack([model.out_rep.apply(g, base).data for g in gs])
    gaps = fixed - blocks[len(orbit) - len(gs):]
    return np.linalg.norm(gaps.reshape(len(gs), xb.shape[0], -1), axis=2)


def equivariance_error(model: HomotopicModel, x: Tensor, group: Group = None,
                       mode: str = "exact", n_samples: int = 5, rng=None,
                       replace: bool = True) -> EquivarianceReport:
    """Symmetry violation of the model at x, exact or sampled.

    Exact mode enumerates the whole group (refused for groups too large
    to enumerate) and reports the maximum; mc mode draws ``n_samples``
    elements uniformly, with or without replacement, and reports their
    mean. Both record every per-element error (the worst sample of a
    batched x).
    """
    group = group if group is not None else model.in_rep.group
    if mode == "exact":
        gs = group.elements()
    elif mode == "mc":
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        if replace:
            gs = [group.sample(rng) for _ in range(n_samples)]
        else:
            pool = group.elements()
            if n_samples > len(pool):
                raise ValueError(f"cannot draw {n_samples} distinct elements from {len(pool)}")
            idx = rng.choice(len(pool), size=n_samples, replace=False)
            gs = [pool[i] for i in idx]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    errors = dict(zip(gs, equivariance_gaps(model, x, gs).max(axis=1).tolist()))
    values = list(errors.values())
    return EquivarianceReport(
        exact_error=max(values) if mode == "exact" else None,
        mc_error=float(np.mean(values)),
        n_samples=len(gs),
        per_element=errors,
    )


# ---------------------------------------------------------------- closed forms


def _power(base, exp) -> float:
    """``base ** exp`` in float64: inf on overflow instead of OverflowError."""
    with np.errstate(over="ignore"):
        return float(np.float64(base) ** exp)


def _product(*factors) -> float:
    """Product of non-negative factors, inf on overflow; an exact zero
    factor gives 0 even beside an overflowed one (not 0 * inf = NaN)."""
    if any(f == 0.0 for f in factors):
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.prod(np.asarray(factors, dtype=np.float64)))


def thm1_bounds(model: HomotopicModel, x_norm: float, method: str = "fast"):
    """Coarse and refined certificates for ||f(x) - f_0(x)||.

    coarse  = [sum_k (1+gbar)^k] * gbar * B * M^(L-1) * ||x||
    refined = [sum_k |g_{k+1}| (1 + mean_{j<=k}|g_j|)^k] * B * M^(L-1) * ||x||
    """
    return _thm1(model, layer_constants(model, method=method), x_norm)


def _thm1(model: HomotopicModel, constants, x_norm: float):
    meq, b, gammas, m, b1, _ = _fold(model, constants)
    big_l = len(gammas)
    gbar = float(np.max(gammas))
    scale = (b1, _power(m, big_l - 1), x_norm)

    coarse = _product(sum(_power(1.0 + gbar, k) for k in range(big_l)), gbar, *scale)

    refined_sum = 0.0
    for k in range(big_l):
        if k == 0:
            refined_sum += gammas[0]
        else:
            refined_sum += _product(gammas[k], _power(1.0 + np.sum(gammas[:k]) / k, k))
    refined = _product(refined_sum, *scale)

    constants = {"M": m, "B": b1, "gamma_bar": gbar, "L": big_l, "x_norm": x_norm,
                 "M_layers": meq, "B_layers": b}
    return {
        "coarse": BoundCertificate("thm1_coarse", float(coarse), constants),
        "refined": BoundCertificate("thm1_refined", float(refined), constants),
    }


def thm2_bounds(model: HomotopicModel, x_norm: float, method: str = "fast"):
    """Coarse and refined certificates for the equivariance error.

    refined = 2 sum_k |g_k| (1 + (C/(L-1)) sum_{j!=k}|g_j|)^(L-1) * B2^2 * M^(L-1) * ||x||
    coarse  = 2 gbar (M + M*C*gbar)^(L-1) * L * B2^2 * ||x||

    with C = max(B2/M, 1); for L = 1 the growth factor is the empty
    product, 1.
    """
    return _thm2(model, layer_constants(model, method=method), x_norm)


def _thm2(model: HomotopicModel, constants, x_norm: float):
    meq, b, gammas, m, _, b2 = _fold(model, constants)
    big_l = len(gammas)
    gbar = float(np.max(gammas))
    # an inf M (non-finite weights) leaves B2/M undefined; the forms saturate anyway
    c = max(b2 / m, 1.0) if 0.0 < m < np.inf else 1.0

    refined_sum = 0.0
    for k in range(big_l):
        others = float(np.sum(gammas)) - float(gammas[k])
        if big_l == 1:
            growth = 1.0
        else:
            growth = _power(1.0 + c * others / (big_l - 1), big_l - 1)
        refined_sum += _product(gammas[k], growth)
    refined = _product(2.0, refined_sum, _power(b2, 2), _power(m, big_l - 1), x_norm)

    coarse = _product(2.0, gbar, _power(m + m * c * gbar, big_l - 1), big_l, _power(b2, 2),
                      x_norm)

    constants = {"M": m, "B": b2, "C": c, "gamma_bar": gbar, "L": big_l, "x_norm": x_norm,
                 "M_layers": meq, "B_layers": b}
    return {
        "coarse": BoundCertificate("thm2_coarse", float(coarse), constants),
        "refined": BoundCertificate("thm2_refined", float(refined), constants),
    }


# ---------------------------------------------------------------- recursions


def recursion_bounds(model: HomotopicModel, x: Tensor, method: str = "fast"):
    """Per-input certificates from unrolling the layer recursions.

    delta_i   = Meq_i delta_{i-1} + |g_i| B_i ||z_{i-1}||
    epsilon_i = (Meq_i + |g_i| B_i) epsilon_{i-1} + 2 |g_i| B_i Brho ||z_{i-1}||

    using the actual activation norms ||z_{i-1}|| of the forward pass on
    x. Tighter than the closed forms, looser than measurement.
    """
    return _recursions(model, x, layer_constants(model, method=method))


def _recursions(model: HomotopicModel, x: Tensor, constants):
    meq, b, brho = constants
    gammas = np.abs(model.gamma_values())
    zs = model.forward_with_intermediates(x)
    norms = [float(np.linalg.norm(z.data)) for z in zs[:-1]]

    delta = 0.0
    eps = 0.0
    for i in range(len(gammas)):
        delta = meq[i] * delta + gammas[i] * b[i] * norms[i]
        eps = (meq[i] + gammas[i] * b[i]) * eps + 2.0 * gammas[i] * b[i] * brho[i] * norms[i]

    constants = {"M_layers": meq, "B_layers": b, "L": len(gammas),
                 "x_norm": norms[0], "z_norms": norms}
    return {
        "delta": BoundCertificate("delta_recursion", float(delta), constants),
        "epsilon": BoundCertificate("epsilon_recursion", float(eps), constants),
    }


@no_grad()
def bound_report(model: HomotopicModel, x: Tensor, method: str = "fast") -> dict:
    """Measured errors and all six certificates for one input.

    Keys: approximation_error, equivariance_error, delta_recursion,
    epsilon_recursion, thm1_refined, thm1_coarse, thm2_refined,
    thm2_coarse. Values are plain floats, ordered within each family.
    The layer constants are computed once and shared by all six.
    """
    x_norm = float(np.linalg.norm(x.data))
    constants = layer_constants(model, method=method)
    t1 = _thm1(model, constants, x_norm)
    t2 = _thm2(model, constants, x_norm)
    rec = _recursions(model, x, constants)
    return {
        "approximation_error": approximation_error(model, x),
        "equivariance_error": equivariance_error(model, x, mode="exact").exact_error,
        "delta_recursion": rec["delta"].value,
        "epsilon_recursion": rec["epsilon"].value,
        "thm1_refined": t1["refined"].value,
        "thm1_coarse": t1["coarse"].value,
        "thm2_refined": t2["refined"].value,
        "thm2_coarse": t2["coarse"].value,
    }
