"""Autodiff core: forward semantics against numpy, gradients against
central finite differences, and the bookkeeping contracts (accumulation,
zero_grad, broadcast rules, error messages)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate2d

from ace.tensor import (
    ShapeError,
    Tensor,
    conv2d,
    finite_difference_gradients,
    gradcheck,
    l2_norm,
    matmul,
    no_grad,
    reshape,
    roll,
    rot90,
    stack,
    take,
    zero_grad,
)

TOL = 1e-5


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------- forward values


def test_elementwise_values():
    assert (Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]
    assert Tensor([-1.0, 0.0, 2.0]).relu().data.tolist() == [0.0, 0.0, 2.0]
    assert Tensor([-0.3]).abs().data.tolist() == [0.3]
    assert (Tensor([3.0]) - 1.0).data.tolist() == [2.0]
    assert (2.0 * Tensor([3.0])).data.tolist() == [6.0]
    assert (-Tensor([3.0])).data.tolist() == [-3.0]


def test_reduce_values():
    assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0
    assert l2_norm(Tensor([3.0, 4.0])).item() == 5.0
    assert Tensor([[1.0, 3.0], [3.0, 5.0]]).mean(axes=0).data.tolist() == [2.0, 4.0]
    assert Tensor([[1.0, 3.0], [3.0, 5.0]]).mean().item() == 3.0


def test_matmul_values(rng):
    assert (Tensor(np.eye(2)) @ Tensor([[1.0, 2.0], [3.0, 4.0]])).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert (Tensor([[1.0, 0.0]]) @ Tensor([[2.0], [5.0]])).data.tolist() == [[2.0]]
    a = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=(2, 5))
    np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, np.einsum("nik,kj->nij", a, b))
    c = rng.normal(size=(5, 4))
    d = rng.normal(size=(3, 4, 2))
    np.testing.assert_allclose(matmul(Tensor(c), Tensor(d)).data, np.einsum("ik,nkj->nij", c, d))


@settings(max_examples=40, deadline=None)
@given(c_in=st.integers(1, 3), c_out=st.integers(1, 3), k=st.sampled_from([1, 3, 5]),
       h=st.integers(1, 7), w=st.integers(1, 7), n=st.sampled_from([None, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_conv2d_against_scipy(c_in, c_out, k, h, w, n, seed):
    """Random channels, odd kernel sizes, non-square images, with and without a batch."""
    if h == w:
        w += 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n or 1, c_in, h, w))
    ker = rng.normal(size=(c_out, c_in, k, k))
    got = conv2d(Tensor(x if n else x[0]), Tensor(ker)).data
    want = np.zeros((n or 1, c_out, h, w))
    for i in range(n or 1):
        for o in range(c_out):
            for c in range(c_in):
                want[i, o] += correlate2d(x[i, c], ker[o, c], mode="same", boundary="fill")
    np.testing.assert_allclose(got, want if n else want[0], rtol=0, atol=1e-12)


def test_conv2d_special_cases(rng):
    x = rng.normal(size=(1, 3, 3))
    doubled = conv2d(Tensor(x), Tensor([[[[2.0]]]]))
    np.testing.assert_allclose(doubled.data, 2.0 * x)

    delta = np.zeros((1, 7, 7))
    delta[0, 3, 3] = 1.0
    k = rng.normal(size=(1, 1, 3, 3))
    out = conv2d(Tensor(delta), Tensor(k)).data
    # correlation with an impulse centers the flipped kernel at the impulse
    np.testing.assert_allclose(out[0, 2:5, 2:5], k[0, 0, ::-1, ::-1], atol=1e-14)

    batched = conv2d(Tensor(rng.normal(size=(4, 1, 5, 5))), Tensor(k))
    assert batched.shape == (4, 1, 5, 5)


def test_index_ops_values(rng):
    x = rng.normal(size=(4, 2, 3, 3))
    np.testing.assert_array_equal(rot90(Tensor(x), 1).data, np.rot90(x, 1, axes=(-2, -1)))
    np.testing.assert_array_equal(rot90(Tensor(x), 5).data, np.rot90(x, 1, axes=(-2, -1)))
    np.testing.assert_array_equal(roll(Tensor(x), 3, axis=0).data, np.roll(x, 3, axis=0))
    np.testing.assert_array_equal(take(Tensor(x), 2, axis=0).data, x[2])
    perm = np.array([2, 0, 1])
    np.testing.assert_array_equal(take(Tensor(x[:3]), perm, axis=0).data, x[:3][perm])
    np.testing.assert_array_equal(
        stack([Tensor(x[0]), Tensor(x[1])], axis=1).data, np.stack([x[0], x[1]], axis=1)
    )
    np.testing.assert_array_equal(reshape(Tensor(x), (4, 18)).data, x.reshape(4, 18))


def test_forward_is_float64_and_pure():
    t = Tensor(np.array([1, 2, 3], dtype=np.int32))
    assert t.data.dtype == np.float64
    a = Tensor([1.5, -2.0], requires_grad=True)
    out1 = (a.relu() + a.square()).sum().item()
    out2 = (a.relu() + a.square()).sum().item()
    assert out1 == out2  # bitwise deterministic


def test_tape_free_forward_matches_taped(rng):
    x = rng.normal(size=(3, 3))
    frozen = Tensor(x)
    tracked = Tensor(x, requires_grad=True)
    out_frozen = l2_norm(matmul(frozen, frozen).relu())
    out_tracked = l2_norm(matmul(tracked, tracked).relu())
    assert out_frozen.item() == out_tracked.item()
    assert out_frozen._backward is None and not out_frozen.requires_grad


# ---------------------------------------------------------------- gradients


def test_backward_examples():
    x = Tensor([3.0], requires_grad=True)
    x.square().sum().backward()
    assert x.grad.tolist() == [6.0]

    y = Tensor([-1.0, 2.0], requires_grad=True)
    y.relu().sum().backward()
    assert y.grad.tolist() == [0.0, 1.0]


def test_relu_and_abs_subgradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    x.relu().sum().backward()
    assert x.grad.tolist() == [0.0]
    x.zero_grad()
    x.abs().sum().backward()
    assert x.grad.tolist() == [0.0]


def test_gradcheck_every_op(rng):
    """Finite-difference check per op, the same cases the CLI harness runs."""
    from ace.tensor import op_gradcheck_cases

    names = set()
    for name, fn, params in op_gradcheck_cases(rng):
        names.add(name.split("_")[0])
        err = gradcheck(fn, params)
        assert err <= TOL, f"op {name}: rel err {err}"
    # every op family in the table is exercised
    assert {"add", "sub", "mul", "neg", "relu", "abs", "square", "matmul",
            "conv2d", "rot90", "roll", "take", "stack", "reshape", "sum",
            "mean", "l2"}.issubset(names)


def test_gradcheck_two_layer_mlp(rng):
    w1 = leaf(rng, 4, 6)
    w2 = leaf(rng, 6, 2)
    x = Tensor(rng.normal(size=(3, 4)) + 0.1)
    target = Tensor(rng.normal(size=(3, 2)))

    def loss():
        return (matmul(matmul(x, w1).relu(), w2) - target).square().mean()

    assert gradcheck(loss, [w1, w2]) <= TOL


def test_gradient_accumulation_and_zero_grad():
    a = Tensor([2.0], requires_grad=True)

    def run():
        c = (a * a) + (a * a)
        c.sum().backward()

    run()
    assert a.grad.tolist() == [8.0]
    run()
    assert a.grad.tolist() == [16.0]  # accumulate without reset
    zero_grad([a])
    assert a.grad is None
    run()
    assert a.grad.tolist() == [8.0]


def test_scalar_broadcast_gradients(rng):
    s = Tensor([0.7], requires_grad=True)
    m = leaf(rng, 3, 4)

    def loss():
        return (s * m + s).square().sum()

    assert gradcheck(loss, [s, m]) <= TOL
    assert s.grad is None  # gradcheck resets what it touched


def test_l2_norm_gradient_at_zero_is_zero():
    x = Tensor([0.0, 0.0], requires_grad=True)
    l2_norm(x).backward()
    assert x.grad.tolist() == [0.0, 0.0]


def test_finite_difference_helper_direct():
    x = Tensor([1.0, -2.0], requires_grad=True)
    (g,) = finite_difference_gradients(lambda: x.square().sum(), [x])
    np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-8)


# ---------------------------------------------------------------- errors


def test_shape_errors_name_shapes():
    with pytest.raises(ShapeError) as e:
        Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))
    assert "(2, 3)" in str(e.value) and "(3, 2)" in str(e.value)
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 2, 2))))  # even k
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((2, 5, 5))), Tensor(np.ones((1, 1, 3, 3))))  # channels
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2))).backward()  # non-scalar loss
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)).sum(axes=5)
    with pytest.raises(ShapeError):
        rot90(Tensor(np.ones((2, 3))), 1)


# ---------------------------------------------------------------- no_grad


def test_no_grad_results_have_no_graph(rng):
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    m = leaf(rng, 4, 2)
    img, ker = leaf(rng, 2, 5, 5), leaf(rng, 3, 2, 3, 3)
    with no_grad():
        results = [a + b, a - b, a * b, -a, a @ m, a.relu(), a.abs(), a.square(), a.sum(),
                   a.mean(axes=0), l2_norm(a), conv2d(img, ker), rot90(img, 1),
                   roll(img, 1, axis=0), take(img, 1, axis=0), stack([a, b]),
                   reshape(a, (4, 3))]
    for out in results:
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
    assert (a * b).requires_grad


def test_no_grad_restores_the_flag_after_an_exception(rng):
    a = leaf(rng, 2)
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    assert (a + a).requires_grad
    with no_grad():
        with no_grad():
            pass
        assert not (a + a).requires_grad
    assert (a + a).requires_grad
