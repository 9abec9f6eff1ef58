"""Dense float64 tensors with reverse-mode automatic differentiation.

Every quantity in this library flows through :class:`Tensor`: a numpy
float64 buffer, an optional gradient buffer, and a backward rule linking
the value to its parents. Graphs are built eagerly during the forward
pass and walked once, in reverse topological order, by ``backward()``.

Conventions fixed here and relied on elsewhere:

* all arithmetic is float64; integer input is promoted, nothing is ever
  demoted,
* broadcasting is restricted to scalar-with-tensor (one operand of size
  one), which keeps every backward rule a plain sum,
* ``relu`` has derivative 0 at exactly 0, ``abs`` uses ``sign`` with
  ``sign(0) = 0``,
* repeated ``backward()`` calls accumulate into ``grad``; ``zero_grad``
  resets,
* inside ``no_grad()`` no graph is built: every op result has
  ``requires_grad=False`` and no backward rule, whatever its parents.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "stack",
    "conv2d",
    "rot90",
    "roll",
    "take",
    "reshape",
    "l2_norm",
    "matmul",
    "finite_difference_gradients",
    "gradcheck",
    "zero_grad",
    "no_grad",
    "op_gradcheck_cases",
]

_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """A float64 array that remembers how it was computed.

    Attributes:
        data: the numpy float64 value buffer.
        grad: accumulated gradient buffer (same shape) or None.
        requires_grad: whether backward() should deposit a gradient here.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple, op: str, backward_fn) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward_fn
        else:
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    # -- basic protocol -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise binary ops -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    @staticmethod
    def _check_binary(a: "Tensor", b: "Tensor", op: str) -> None:
        if a.shape == b.shape or a.size == 1 or b.size == 1:
            return
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar-with-tensor")

    @staticmethod
    def _sum_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
        """Reduce a broadcast gradient back to a size-1 operand's shape."""
        if grad.shape == shape:
            return grad
        return np.sum(grad).reshape(shape)

    def __add__(self, other):
        other = Tensor._coerce(other)
        Tensor._check_binary(self, other, "add")
        a, b = self, other

        def backward_fn(g):
            return ((a, Tensor._sum_to(g, a.shape)), (b, Tensor._sum_to(g, b.shape)))

        return Tensor._result(a.data + b.data, (a, b), "add", backward_fn)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)
        Tensor._check_binary(self, other, "sub")
        a, b = self, other

        def backward_fn(g):
            return ((a, Tensor._sum_to(g, a.shape)), (b, Tensor._sum_to(-g, b.shape)))

        return Tensor._result(a.data - b.data, (a, b), "sub", backward_fn)

    def __rsub__(self, other):
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        Tensor._check_binary(self, other, "mul")
        a, b = self, other

        def backward_fn(g):
            return (
                (a, Tensor._sum_to(g * b.data, a.shape)),
                (b, Tensor._sum_to(g * a.data, b.shape)),
            )

        return Tensor._result(a.data * b.data, (a, b), "mul", backward_fn)

    __rmul__ = __mul__

    def __neg__(self):
        a = self

        def backward_fn(g):
            return ((a, -g),)

        return Tensor._result(-a.data, (a,), "neg", backward_fn)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise unary ops ------------------------------------------------

    def relu(self):
        a = self
        mask = a.data > 0  # derivative at exactly 0 is 0

        def backward_fn(g):
            return ((a, g * mask),)

        return Tensor._result(np.where(mask, a.data, 0.0), (a,), "relu", backward_fn)

    def abs(self):
        a = self
        sign = np.sign(a.data)  # sign(0) = 0

        def backward_fn(g):
            return ((a, g * sign),)

        return Tensor._result(np.abs(a.data), (a,), "abs", backward_fn)

    def square(self):
        a = self

        def backward_fn(g):
            return ((a, g * (2.0 * a.data)),)

        return Tensor._result(a.data * a.data, (a,), "square", backward_fn)

    # -- reductions -------------------------------------------------------------

    @staticmethod
    def _norm_axes(axes, ndim: int):
        if axes is None:
            return None
        if isinstance(axes, int):
            axes = (axes,)
        axes = tuple(int(ax) for ax in axes)
        for ax in axes:
            if not -ndim <= ax < ndim:
                raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
        return tuple(sorted(ax % ndim for ax in axes))

    def _expand_reduced(self, g: np.ndarray, axes) -> np.ndarray:
        """Broadcast a reduced gradient back over the reduced axes."""
        if axes is None:
            return np.broadcast_to(g.reshape(()), self.shape).copy() if g.size == 1 else g
        shape = list(self.shape)
        for ax in axes:
            shape[ax] = 1
        return np.broadcast_to(g.reshape(shape), self.shape).copy()

    def sum(self, axes=None):
        a = self
        axes = Tensor._norm_axes(axes, a.ndim)

        def backward_fn(g):
            return ((a, a._expand_reduced(np.asarray(g), axes)),)

        out = np.sum(a.data, axis=axes)
        return Tensor._result(np.asarray(out, dtype=np.float64), (a,), "sum", backward_fn)

    def mean(self, axes=None):
        a = self
        axes = Tensor._norm_axes(axes, a.ndim)
        if axes is None:
            count = a.size
        else:
            count = 1
            for ax in axes:
                count *= a.shape[ax]
        if count == 0:
            raise ShapeError("mean over zero elements")

        def backward_fn(g):
            return ((a, a._expand_reduced(np.asarray(g) / count, axes)),)

        out = np.mean(a.data, axis=axes)
        return Tensor._result(np.asarray(out, dtype=np.float64), (a,), "mean", backward_fn)

    # -- backward pass ----------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar; accumulates into ``grad``.

        Each call is an independent pass: gradients of this pass are
        added onto whatever ``grad`` already holds, so two calls without
        ``zero_grad`` give exactly twice the one-call gradients.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        local = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = local.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                pg = np.asarray(pg, dtype=np.float64)
                if pg.shape != parent.data.shape:
                    pg = pg.reshape(parent.data.shape)
                held = local.get(id(parent))
                local[id(parent)] = pg if held is None else held + pg


# -- free functions -------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product where at least one operand is a plain matrix.

    Supported: (m,k)@(k,n); batched-left (...,m,k)@(k,n); 2-D-left
    (m,k)@(...,k,n). That covers every weight application in the layer
    zoo while keeping the backward rules explicit.
    """
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.ndim > 2 and b.ndim > 2:
        raise ShapeError(f"matmul: one operand must be 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

    def backward_fn(g):
        if b.ndim == 2:
            da = np.matmul(g, b.data.T)
            a2 = a.data.reshape(-1, a.shape[-1])
            g2 = g.reshape(-1, g.shape[-1])
            db = a2.T @ g2
        else:
            g3 = g.reshape(-1, g.shape[-2], g.shape[-1])
            b3 = b.data.reshape(-1, b.shape[-2], b.shape[-1])
            da = np.einsum("nik,njk->ij", g3, b3)
            db = np.matmul(a.data.T, g)
        return ((a, da), (b, db))

    return Tensor._result(np.matmul(a.data, b.data), (a, b), "matmul", backward_fn)


def _correlate(xd: np.ndarray, kd: np.ndarray):
    """Same-padded correlation of (N, C_in, H, W) with (C_out, C_in, k, k) as one
    GEMM; returns the result and its (C_in*k*k, N*H*W) im2col patch matrix."""
    n, c, h, w = xd.shape
    k = kd.shape[-1]
    p = k // 2
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    xp[:, :, p : p + h, p : p + w] = xd
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * h * w)
    out = (kd.reshape(kd.shape[0], -1) @ cols).reshape(kd.shape[0], n, h, w)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), cols


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """Stride-1 cross-correlation with same zero padding.

    ``x`` is (C_in, H, W) or batched (N, C_in, H, W); ``kernels`` is
    (C_out, C_in, k, k) with odd k. Output has the same spatial extent.
    Each pass is one GEMM over an im2col patch matrix (Chellapilla et al.
    2006); the input gradient correlates the output gradient with the
    flipped, channel-transposed kernels.
    """
    x = Tensor._coerce(x)
    kernels = Tensor._coerce(kernels)
    if kernels.ndim != 4 or kernels.shape[2] != kernels.shape[3]:
        raise ShapeError(f"conv2d kernels must be (C_out, C_in, k, k), got {kernels.shape}")
    k = kernels.shape[2]
    if k % 2 == 0:
        raise ShapeError(f"conv2d kernel size must be odd, got {k}")
    batched = x.ndim == 4
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be (C,H,W) or (N,C,H,W), got {x.shape}")
    c_in = x.shape[-3]
    if c_in != kernels.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {c_in} vs kernels {kernels.shape[1]}")

    xd = x.data if batched else x.data[None]
    kd = kernels.data
    out, cols = _correlate(xd, kd)

    def backward_fn(g):
        gd = g if batched else g[None]
        dk = (gd.transpose(1, 0, 2, 3).reshape(kd.shape[0], -1) @ cols.T).reshape(kd.shape)
        if not x.requires_grad:
            return ((kernels, dk),)
        dx, _ = _correlate(gd, kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return ((x, dx if batched else dx[0]), (kernels, dk))

    return Tensor._result(out if batched else out[0], (x, kernels), "conv2d", backward_fn)


def rot90(x: Tensor, times: int) -> Tensor:
    """Rotate the last two axes counterclockwise by 90 degrees ``times`` times.

    An exact index permutation, so the backward rule is the inverse
    rotation and no rounding is introduced.
    """
    x = Tensor._coerce(x)
    if x.ndim < 2:
        raise ShapeError(f"rot90 needs at least 2 axes, got shape {x.shape}")
    if x.shape[-1] != x.shape[-2]:
        raise ShapeError(f"rot90 needs square trailing axes, got shape {x.shape}")
    r = int(times) % 4

    def backward_fn(g):
        return ((x, np.rot90(g, -r, axes=(-2, -1)).copy()),)

    return Tensor._result(np.rot90(x.data, r, axes=(-2, -1)).copy(), (x,), "rot90", backward_fn)


def roll(x: Tensor, shift: int, axis: int) -> Tensor:
    """Cyclic shift along one axis (index permutation)."""
    x = Tensor._coerce(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"roll axis {axis} out of range for shape {x.shape}")

    def backward_fn(g):
        return ((x, np.roll(g, -shift, axis=axis)),)

    return Tensor._result(np.roll(x.data, shift, axis=axis), (x,), "roll", backward_fn)


def take(x: Tensor, indices, axis: int) -> Tensor:
    """Gather along one axis by an int (axis dropped) or an index array.

    Index arrays used in this library are permutations; the backward
    rule scatter-adds so it stays correct even with repeats.
    """
    x = Tensor._coerce(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"take axis {axis} out of range for shape {x.shape}")
    ax = axis % x.ndim
    scalar_index = np.isscalar(indices) or (isinstance(indices, np.ndarray) and indices.ndim == 0)
    idx = int(indices) if scalar_index else np.asarray(indices, dtype=np.int64)

    def backward_fn(g):
        dx = np.zeros_like(x.data)
        sel = [slice(None)] * x.ndim
        sel[ax] = idx
        np.add.at(dx, tuple(sel), g)
        return ((x, dx),)

    return Tensor._result(np.take(x.data, idx, axis=ax), (x,), "take", backward_fn)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors of equal shape along a new axis."""
    parts = [Tensor._coerce(t) for t in tensors]
    if not parts:
        raise ShapeError("stack needs at least one tensor")
    shape = parts[0].shape
    for t in parts:
        if t.shape != shape:
            raise ShapeError(f"stack shape mismatch: {t.shape} vs {shape}")
    out = np.stack([t.data for t in parts], axis=axis)
    ax = axis % out.ndim

    def backward_fn(g):
        pieces = np.moveaxis(g, ax, 0)
        return tuple((t, pieces[i].copy()) for i, t in enumerate(parts))

    return Tensor._result(out, tuple(parts), "stack", backward_fn)


def reshape(x: Tensor, shape) -> Tensor:
    x = Tensor._coerce(x)
    new_shape = tuple(int(s) for s in shape)

    def backward_fn(g):
        return ((x, np.asarray(g).reshape(x.data.shape)),)

    return Tensor._result(x.data.reshape(new_shape), (x,), "reshape", backward_fn)


def l2_norm(x: Tensor, axes=None) -> Tensor:
    """Euclidean norm over all elements (default) or the given axes.

    Gradient at an exact zero vector is defined as 0 (subgradient
    choice, mirrors the relu/abs conventions).
    """
    x = Tensor._coerce(x)
    axes = Tensor._norm_axes(axes, x.ndim)
    sq = np.sum(x.data * x.data, axis=axes)
    out = np.sqrt(sq)

    def backward_fn(g):
        safe = np.where(out == 0.0, 1.0, out)
        scaled = np.asarray(g) / safe
        scaled = np.where(out == 0.0, 0.0, scaled)
        return ((x, x._expand_reduced(scaled, axes) * x.data),)

    return Tensor._result(np.asarray(out, dtype=np.float64), (x,), "l2_norm", backward_fn)


def zero_grad(params) -> None:
    for p in params:
        p.zero_grad()


@contextmanager
def no_grad():
    """Evaluate without building a graph (also usable as a decorator)."""
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# -- gradient checking ------------------------------------------------------------


def finite_difference_gradients(f, params, h: float = 1e-5):
    """Central-difference gradients of the scalar ``f()`` w.r.t. each param.

    ``f`` must be a closure over ``params`` that rebuilds the forward
    pass from their current ``data`` buffers.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = f()
            up = up.item() if isinstance(up, Tensor) else float(up)
            flat[i] = saved - h
            down = f()
            down = down.item() if isinstance(down, Tensor) else float(down)
            flat[i] = saved
            gf[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def gradcheck(f, params, h: float = 1e-5):
    """Worst relative error between reverse-mode and finite differences.

    Relative error uses max(|analytic|, |numeric|, 1) as denominator so
    near-zero entries are compared absolutely.
    """
    zero_grad(params)
    loss = f()
    loss.backward()
    numeric = finite_difference_gradients(f, params, h=h)
    worst = 0.0
    for p, num in zip(params, numeric):
        ana = p.grad if p.grad is not None else np.zeros_like(p.data)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1.0)
        err = np.max(np.abs(ana - num) / denom) if p.data.size else 0.0
        worst = max(worst, float(err))
    zero_grad(params)
    return worst


def op_gradcheck_cases(rng):
    """One finite-difference case per op in the table.

    Returns (name, loss_closure, params) triples. Inputs are drawn away
    from kink points (relu/abs at 0) so central differences are valid.
    """

    def away_from_zero(*shape):
        vals = rng.normal(size=shape)
        return np.where(np.abs(vals) < 0.2, np.sign(vals) * 0.2 + vals, vals)

    cases = []

    def case(name, build):
        cases.append((name,) + build())

    a = Tensor(away_from_zero(3, 4), requires_grad=True)
    b = Tensor(away_from_zero(3, 4), requires_grad=True)
    s = Tensor([0.7], requires_grad=True)
    case("add", lambda: (lambda: (a + b).square().sum(), [a, b]))
    case("add_scalar", lambda: (lambda: (a + s).square().sum(), [a, s]))
    case("sub", lambda: (lambda: (a - b).square().sum(), [a, b]))
    case("mul", lambda: (lambda: (a * b).sum(), [a, b]))
    case("mul_scalar", lambda: (lambda: (s * a).square().sum(), [s, a]))
    case("neg", lambda: (lambda: (-a).square().sum(), [a]))
    case("relu", lambda: (lambda: a.relu().square().sum(), [a]))
    case("abs", lambda: (lambda: a.abs().square().sum(), [a]))
    case("square", lambda: (lambda: a.square().sum(), [a]))

    m1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    m2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    case("matmul", lambda: (lambda: matmul(m1, m2).square().sum(), [m1, m2]))
    mb = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    case("matmul_batched_left", lambda: (lambda: matmul(mb, m2).square().sum(), [mb, m2]))
    ml = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    case("matmul_batched_right", lambda: (lambda: matmul(ml, mb).square().sum(), [ml, mb]))

    img = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
    ker = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    case("conv2d", lambda: (lambda: conv2d(img, ker).square().sum(), [img, ker]))
    imgs = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    case("conv2d_batched", lambda: (lambda: conv2d(imgs, ker).square().sum(), [imgs, ker]))
    ker5 = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    case("conv2d_k5", lambda: (lambda: conv2d(img, ker5).square().sum(), [img, ker5]))
    ker1 = Tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True)
    case("conv2d_batched_k1", lambda: (lambda: conv2d(imgs, ker1).square().sum(), [imgs, ker1]))

    r = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    case("rot90", lambda: (lambda: rot90(r, 1).square().sum(), [r]))
    case("roll", lambda: (lambda: roll(r, 1, axis=0).square().sum(), [r]))
    case("take_int", lambda: (lambda: take(r, 1, axis=0).square().sum(), [r]))
    perm = rng.permutation(4)
    case("take_perm", lambda: (lambda: take(r, perm, axis=1).square().sum(), [r]))
    case("stack", lambda: (lambda: stack([a, b], axis=1).square().sum(), [a, b]))
    case("reshape", lambda: (lambda: reshape(r, (8, 4)).square().sum(), [r]))

    case("sum", lambda: (lambda: a.square().sum(), [a]))
    case("sum_axis", lambda: (lambda: a.sum(axes=0).square().sum(), [a]))
    case("mean", lambda: (lambda: a.square().mean(), [a]))
    case("mean_axis", lambda: (lambda: a.mean(axes=(1,)).square().sum(), [a]))
    case("l2_norm", lambda: (lambda: l2_norm(a), [a]))
    case("l2_norm_axis", lambda: (lambda: l2_norm(a, axes=1).sum(), [a]))
    return cases
