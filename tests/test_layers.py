import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace import _binio
from ace.groups import C4, Sn, apply
from ace.layers import (
    C4GroupConv,
    C4LiftingConv,
    DeepSetsLinear,
    HomotopicLayer,
    HomotopicModel,
    NonEquivariantLayer,
    SpaceMismatchError,
    build_c4_model,
    build_scalar_toy_model,
    build_set_model,
    lipschitz_bound,
    project_equivariant,
    sample_random_model,
    save_model,
    load_model,
    spectral_normalize,
)
from ace.tensor import Tensor, conv2d, gradcheck, rot90, stack, take


def _layer_equivariance_gap(layer, z, group):
    gaps = []
    for g in group.elements():
        lhs = layer.forward(apply(g, layer.in_rep, z), batched=False)
        rhs = apply(g, layer.out_rep, layer.forward(z, batched=False))
        gaps.append(np.max(np.abs(lhs.data - rhs.data)))
    return max(gaps)


def test_lifting_conv_equivariant(rng):
    layer = C4LiftingConv(Tensor(rng.normal(size=(3, 2, 3, 3))), image_size=7)
    z = Tensor(rng.normal(size=(2, 7, 7)))
    assert _layer_equivariance_gap(layer, z, C4()) <= 1e-10


def test_group_conv_equivariant(rng):
    layer = C4GroupConv(Tensor(rng.normal(size=(3, 4, 2, 3, 3))), image_size=6)
    z = Tensor(rng.normal(size=(4, 2, 6, 6)))
    assert _layer_equivariance_gap(layer, z, C4()) <= 1e-10


def test_pooled_group_conv_equivariant(rng):
    layer = C4GroupConv(Tensor(rng.normal(size=(2, 4, 3, 3, 3))), image_size=6, pool=True)
    z = Tensor(rng.normal(size=(4, 3, 6, 6)))
    assert _layer_equivariance_gap(layer, z, C4()) <= 1e-10


def _four_conv_lifting(kernels, z, batched):
    """The lifting conv as four separate convs, one per kernel rotation."""
    return stack([conv2d(z, rot90(kernels, r)) for r in range(4)], axis=1 if batched else 0)


def _sixteen_conv_group(kernels, z, batched, pool):
    """The group conv as sixteen block convs: out_r = sum_s conv(z_s, rot_r K[:, s - r])."""
    axis = 1 if batched else 0
    blocks = []
    for r in range(4):
        terms = [conv2d(take(z, s, axis=axis), rot90(take(kernels, (s - r) % 4, axis=1), r))
                 for s in range(4)]
        blocks.append(terms[0] + terms[1] + terms[2] + terms[3])
    out = stack(blocks, axis=axis)
    return out.mean(axes=axis) if pool else out


def _value_and_grads(forward, kernels, z):
    kernels.zero_grad()
    z.zero_grad()
    out = forward()
    out.square().sum().backward()
    return out.data, kernels.grad, z.grad


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["lifting", "group", "group_pooled"]),
       c_in=st.integers(1, 3), c_out=st.integers(1, 3), k=st.sampled_from([1, 3, 5]),
       size=st.integers(2, 6), n=st.sampled_from([None, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_filter_bank_matches_sixteen_conv_formulation(kind, c_in, c_out, k, size, n, seed):
    """One conv over the expanded filter bank equals the per-block convs, values and grads."""
    rng = np.random.default_rng(seed)
    lead = (n,) if n else ()
    batched = n is not None
    if kind == "lifting":
        kernels = Tensor(rng.normal(size=(c_out, c_in, k, k)), requires_grad=True)
        layer = C4LiftingConv(kernels, image_size=size)
        z = Tensor(rng.normal(size=lead + (c_in, size, size)), requires_grad=True)
        old = lambda: _four_conv_lifting(kernels, z, batched)  # noqa: E731
    else:
        pool = kind == "group_pooled"
        kernels = Tensor(rng.normal(size=(c_out, 4, c_in, k, k)), requires_grad=True)
        layer = C4GroupConv(kernels, image_size=size, pool=pool)
        z = Tensor(rng.normal(size=lead + (4, c_in, size, size)), requires_grad=True)
        old = lambda: _sixteen_conv_group(kernels, z, batched, pool)  # noqa: E731
    got = _value_and_grads(lambda: layer.forward(z, batched), kernels, z)
    want = _value_and_grads(old, kernels, z)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(w))))


def test_deepsets_equivariant(rng):
    layer = DeepSetsLinear(Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(3, 5))),
                           n_points=4)
    z = Tensor(rng.normal(size=(4, 3)))
    assert _layer_equivariance_gap(layer, z, Sn(4)) <= 1e-10


def test_gamma_zero_model_equivariant_end_to_end(rng):
    model = build_c4_model(image_size=6, hidden=2, n_layers=3, rng=rng)
    model.set_gamma_values([0.0, 0.0, 0.0])
    x = Tensor(rng.normal(size=(1, 6, 6)))
    for g in C4().elements():
        lhs = model.forward(apply(g, model.in_rep, x))
        rhs = apply(g, model.out_rep, model.forward(x))
        assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-10

    set_model = build_set_model(n_points=4, d=3, hidden=5, n_layers=2, rng=rng)
    set_model.set_gamma_values([0.0, 0.0])
    xs = Tensor(rng.normal(size=(4, 3)))
    for g in Sn(4).elements():
        lhs = set_model.forward(apply(g, set_model.in_rep, xs))
        rhs = apply(g, set_model.out_rep, set_model.forward(xs))
        assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-10


def test_identity_kernel_group_conv_is_identity(rng):
    kern = np.zeros((2, 4, 2, 3, 3))
    for c in range(2):
        kern[c, 0, c, 1, 1] = 1.0
    layer = C4GroupConv(Tensor(kern), image_size=5)
    z = rng.normal(size=(4, 2, 5, 5))
    out = layer.forward(Tensor(z), batched=False)
    np.testing.assert_allclose(out.data, z, atol=1e-14)


def test_zero_eq_with_gamma_one_equals_neq(rng):
    a = Tensor(np.zeros((3, 3)))
    b = Tensor(np.zeros((3, 3)))
    eq = DeepSetsLinear(a, b, n_points=4)
    neq = NonEquivariantLayer([Tensor(rng.normal(size=(12, 12)))], (4, 3), (4, 3))
    layer = HomotopicLayer(eq, neq, gamma=1.0)
    z = Tensor(rng.normal(size=(4, 3)))
    out = layer.forward(z, batched=False)
    np.testing.assert_allclose(out.data, neq.forward(z, batched=False).data, atol=1e-14)


def test_forward_matches_straight_line_recomputation(rng):
    model = build_set_model(n_points=3, d=2, hidden=4, d_out=2, n_layers=2, rng=rng,
                            gamma_init=0.7)
    x = rng.normal(size=(3, 2))

    def plain_layer(z, layer):
        a = layer.eq.a.data
        b = layer.eq.b.data
        pooled = np.full((3, 3), 1.0 / 3) @ z
        eq = z @ a + pooled @ b
        w = layer.neq.matrices[0].data
        neq = (z.reshape(1, -1) @ w).reshape(layer.neq.out_shape)
        return eq + layer.gamma.item() * neq

    z = plain_layer(x, model.layers[0])
    z = np.maximum(z, 0.0)
    z = plain_layer(z, model.layers[1])
    out = model.forward(Tensor(x))
    np.testing.assert_allclose(out.data, z, atol=1e-12)


def test_batched_forward_matches_per_sample(rng):
    for model in (build_c4_model(image_size=6, hidden=2, n_layers=2, rng=rng),
                  build_set_model(n_points=4, d=3, n_layers=2, rng=rng)):
        xs = rng.normal(size=(3,) + model.in_rep.space_shape)
        batched = model.forward(Tensor(xs)).data
        for i in range(3):
            single = model.forward(Tensor(xs[i])).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_project_equivariant_zeroes_gamma_and_shares_weights(rng):
    model = build_set_model(n_points=3, d=2, n_layers=2, rng=rng, gamma_init=0.5)
    proj = project_equivariant(model)
    assert np.max(np.abs(proj.gamma_values())) == 0.0
    assert np.allclose(model.gamma_values(), [0.5, 0.5])
    x = Tensor(rng.normal(size=(3, 2)))
    for g in Sn(3).elements():
        lhs = proj.forward(apply(g, proj.in_rep, x))
        rhs = apply(g, proj.out_rep, proj.forward(x))
        assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-10
    # same weight tensors, not copies
    model.layers[0].eq.a.data[0, 0] += 1.0
    assert proj.layers[0].eq.a.data[0, 0] == model.layers[0].eq.a.data[0, 0]


def test_single_layer_residual_is_gamma_times_neq(rng):
    model = build_set_model(n_points=3, d=2, n_layers=1, rng=rng, gamma_init=0.37)
    proj = project_equivariant(model)
    x = Tensor(rng.normal(size=(3, 2)))
    residual = model.forward(x).data - proj.forward(x).data
    neq_out = model.layers[0].neq.forward(x, batched=False).data
    np.testing.assert_allclose(residual, 0.37 * neq_out, atol=1e-12)


def test_lipschitz_bound_simple_cases():
    layer = NonEquivariantLayer([Tensor(2.0 * np.eye(4))], (2, 2), (2, 2))
    assert lipschitz_bound(layer) == pytest.approx(2.0, abs=1e-12)
    zero = NonEquivariantLayer([Tensor(np.zeros((4, 4)))], (2, 2), (2, 2))
    assert lipschitz_bound(zero) == 0.0


def _probe_ratio(forward, in_shape, rng, n=1000):
    worst = 0.0
    for _ in range(n):
        x = rng.normal(size=in_shape)
        x /= np.linalg.norm(x)
        out = forward(Tensor(x), False)
        worst = max(worst, np.linalg.norm(out.data))
    return worst


def test_certified_bounds_dominate_probes(rng):
    dense = NonEquivariantLayer([Tensor(rng.normal(size=(4, 4)))], (4,), (4,))
    bound = lipschitz_bound(dense)
    assert _probe_ratio(dense.forward, (4,), rng) <= bound + 1e-12

    mlp = NonEquivariantLayer([Tensor(rng.normal(size=(6, 5))), Tensor(rng.normal(size=(5, 6)))],
                              (3, 2), (3, 2))
    assert _probe_ratio(mlp.forward, (3, 2), rng) <= lipschitz_bound(mlp) + 1e-12

    conv = C4LiftingConv(Tensor(rng.normal(size=(2, 1, 3, 3))), image_size=5)
    fast = lipschitz_bound(conv, method="fast")
    exact = lipschitz_bound(conv, method="exact")
    assert exact <= fast + 1e-12
    assert _probe_ratio(conv.forward, (1, 5, 5), rng, n=300) <= exact + 1e-10

    gconv = C4GroupConv(Tensor(rng.normal(size=(2, 4, 2, 3, 3))), image_size=5, pool=True)
    fast = lipschitz_bound(gconv, method="fast")
    exact = lipschitz_bound(gconv, method="exact")
    assert exact <= fast + 1e-12
    assert _probe_ratio(gconv.forward, (4, 2, 5, 5), rng, n=300) <= exact + 1e-10

    ds = DeepSetsLinear(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4))),
                        n_points=5)
    fast = lipschitz_bound(ds, method="fast")
    exact = lipschitz_bound(ds, method="exact")
    # the mean/deviation split is exact for this family
    assert fast == pytest.approx(exact, rel=1e-10)
    assert _probe_ratio(ds.forward, (5, 3), rng) <= fast + 1e-12


def test_spectral_normalize_against_svd_oracle():
    layer = NonEquivariantLayer([Tensor(np.diag([3.0, 1.0]))], (2,), (2,))
    spectral_normalize(layer, n_iters=50)
    sigma = np.linalg.svd(layer.matrices[0].data, compute_uv=False)[0]
    assert 0.999 <= sigma <= 1.001
    # idempotence at the fixed point
    before = layer.matrices[0].data.copy()
    spectral_normalize(layer, n_iters=50)
    assert np.max(np.abs(layer.matrices[0].data - before)) <= 1e-6


def test_spectral_normalize_rank_one_single_iteration(rng):
    u = rng.normal(size=(4, 1))
    v = rng.normal(size=(1, 4))
    layer = NonEquivariantLayer([Tensor(u @ v)], (4,), (4,))
    spectral_normalize(layer, n_iters=1)
    sigma = np.linalg.svd(layer.matrices[0].data, compute_uv=False)[0]
    assert sigma == pytest.approx(1.0, abs=1e-10)


def test_spectral_normalize_bounds_whole_branch(rng):
    layer = NonEquivariantLayer([Tensor(rng.normal(size=(6, 5)) * 3),
                                 Tensor(rng.normal(size=(5, 6)) * 3)], (6,), (6,))
    spectral_normalize(layer, n_iters=50)
    for m in layer.matrices:
        assert np.linalg.svd(m.data, compute_uv=False)[0] <= 1.0 + 1e-3
    assert lipschitz_bound(layer) <= (1.0 + 1e-3) ** 2


def test_zero_matrix_spectral_normalize_is_noop():
    layer = NonEquivariantLayer([Tensor(np.zeros((3, 3)))], (3,), (3,))
    spectral_normalize(layer, n_iters=5)
    assert np.all(layer.matrices[0].data == 0.0)


def test_save_load_round_trip_bit_exact(rng, tmp_path):
    model = build_c4_model(image_size=6, hidden=2, n_layers=2, neq_kind="mlp", rng=rng,
                           gamma_init=0.3)
    spectral_normalize(model.layers[0].neq, n_iters=3)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    x = Tensor(rng.normal(size=(1, 6, 6)))
    np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)
    for orig, back in zip(model.layers, loaded.layers):
        assert back.gamma.item() == orig.gamma.item()
        for (_, a), (_, b) in zip(orig.eq.weight_tensors(), back.eq.weight_tensors()):
            np.testing.assert_array_equal(a.data, b.data)
        for ua, ub in zip(orig.neq._sn_vectors, back.neq._sn_vectors):
            np.testing.assert_array_equal(ua, ub)
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.bin"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_wrong_manifest(tmp_path, rng):
    path = tmp_path / "bad.bin"
    _binio.write_container(path, {"format": "something-else"}, {})
    with pytest.raises(_binio.ContainerError):
        load_model(path)


def test_construction_rejects_space_mismatch(rng):
    eq = DeepSetsLinear(Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3))),
                        n_points=4)
    wrong = NonEquivariantLayer([Tensor(rng.normal(size=(6, 6)))], (3, 2), (3, 2))
    with pytest.raises(SpaceMismatchError):
        HomotopicLayer(eq, wrong, gamma=0.1)

    good = HomotopicLayer(
        eq, NonEquivariantLayer([Tensor(rng.normal(size=(12, 12)))], (4, 3), (4, 3)))
    other = DeepSetsLinear(Tensor(rng.normal(size=(5, 5))), Tensor(rng.normal(size=(5, 5))),
                           n_points=4)
    second = HomotopicLayer(
        other, NonEquivariantLayer([Tensor(rng.normal(size=(20, 20)))], (4, 5), (4, 5)))
    with pytest.raises(SpaceMismatchError, match="layer 1"):
        HomotopicModel([good, second])


def test_model_rejects_wrong_input_shape(rng):
    model = build_set_model(n_points=4, d=3, n_layers=1, rng=rng)
    with pytest.raises(Exception, match="shape"):
        model.forward(Tensor(rng.normal(size=(5, 3))))


def test_gradcheck_through_small_model(rng):
    model = build_set_model(n_points=3, d=2, hidden=3, n_layers=2, rng=rng, gamma_init=0.4)
    x = Tensor(rng.normal(size=(3, 2)))
    y = rng.normal(size=(3, 2))

    def loss():
        return (model.forward(x) - Tensor(y)).square().mean()

    err = gradcheck(loss, model.parameters())
    assert err <= 1e-5


def test_scalar_toy_model_is_single_gamma():
    model = build_scalar_toy_model(gamma_init=0.25)
    assert model.parameters() == [model.layers[0].gamma]
    out = model.forward(Tensor(np.ones((1, 1))))
    assert out.item() == pytest.approx(0.25, abs=1e-15)


def test_sample_random_model_families(rng):
    kinds = set()
    for _ in range(12):
        model = sample_random_model(rng)
        kinds.add(model.layers[0].eq.kind)
        x = Tensor(rng.normal(size=model.in_rep.space_shape))
        out = model.forward(x)
        assert np.all(np.isfinite(out.data))
    assert len(kinds) >= 2


def test_neq_scale_multiplies_only_neq_matrices():
    a = build_set_model(n_points=3, d=2, hidden=3, n_layers=2,
                        rng=np.random.default_rng(7))
    b = build_set_model(n_points=3, d=2, hidden=3, n_layers=2,
                        rng=np.random.default_rng(7), neq_scale=5.0)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(lb.eq.a.data, la.eq.a.data)
        assert np.array_equal(lb.eq.b.data, la.eq.b.data)
        for ma, mb in zip(la.neq.matrices, lb.neq.matrices):
            assert np.allclose(mb.data, 5.0 * ma.data, rtol=1e-12, atol=0.0)
