import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace.groups import C4, Sn
from ace.layers import (
    C4GroupConv,
    C4LiftingConv,
    DeepSetsLinear,
    HomotopicLayer,
    HomotopicModel,
    NonEquivariantLayer,
    build_c4_model,
    build_set_model,
    sample_random_model,
)
from ace.metrics import (
    approximation_error,
    bound_report,
    equivariance_error,
    equivariance_gaps,
    layer_constants,
    recursion_bounds,
    thm1_bounds,
    thm2_bounds,
)
from ace.tensor import Tensor


def unit_constants_model(gammas):
    """Chain with Meq_i = B_i = 1 so the closed forms are pure gamma algebra."""
    layers = []
    for g in gammas:
        eq = DeepSetsLinear(Tensor(np.eye(1)), Tensor(np.zeros((1, 1))), n_points=1)
        neq = NonEquivariantLayer([Tensor(np.eye(1))], (1, 1), (1, 1))
        layers.append(HomotopicLayer(eq, neq, gamma=g))
    return HomotopicModel(layers, activation="relu")


def test_anchor_values_match_hand_computation():
    model = unit_constants_model([0.1, 0.2])
    t1 = thm1_bounds(model, x_norm=1.0)
    t2 = thm2_bounds(model, x_norm=1.0)
    assert t1["refined"].value == pytest.approx(0.32, abs=1e-12)
    assert t1["coarse"].value == pytest.approx(0.44, abs=1e-12)
    assert t2["refined"].value == pytest.approx(0.68, abs=1e-12)
    assert t2["coarse"].value == pytest.approx(0.96, abs=1e-12)
    assert t2["coarse"].constants["C"] == 1.0


def test_zero_gamma_zeroes_every_bound_and_error(rng):
    model = build_set_model(n_points=3, d=2, n_layers=3, rng=rng)
    model.set_gamma_values([0.0, 0.0, 0.0])
    x = Tensor(rng.normal(size=(3, 2)))
    assert approximation_error(model, x) <= 1e-14
    assert equivariance_error(model, x).exact_error <= 1e-10
    assert thm1_bounds(model, 1.0)["coarse"].value == 0.0
    assert thm1_bounds(model, 1.0)["refined"].value == 0.0
    rec = recursion_bounds(model, x)
    assert rec["delta"].value == 0.0
    assert rec["epsilon"].value == 0.0
    # thm2 coarse also vanishes with gamma_bar = 0
    assert thm2_bounds(model, 1.0)["coarse"].value == 0.0


def test_single_layer_identities(rng):
    model = build_set_model(n_points=3, d=2, n_layers=1, rng=rng, gamma_init=0.4)
    x = Tensor(rng.normal(size=(3, 2)))
    neq_norm = float(np.linalg.norm(model.layers[0].neq.forward(x, batched=False).data))
    assert approximation_error(model, x) == pytest.approx(0.4 * neq_norm, rel=1e-12)
    rec = recursion_bounds(model, x)
    meq, b, _ = layer_constants(model)
    x_norm = float(np.linalg.norm(x.data))
    assert rec["delta"].value == pytest.approx(0.4 * b[0] * x_norm, rel=1e-12)
    # L = 1 closed forms collapse to the k = 0 terms
    t1 = thm1_bounds(model, x_norm)
    assert t1["refined"].value == pytest.approx(0.4 * max(b) * x_norm, rel=1e-12)
    assert t1["coarse"].value == pytest.approx(t1["refined"].value, rel=1e-12)
    t2 = thm2_bounds(model, x_norm)
    assert t2["refined"].value == pytest.approx(t2["coarse"].value, rel=1e-12)


def test_identity_element_contributes_zero(rng):
    model = build_set_model(n_points=3, d=2, n_layers=2, rng=rng)
    x = Tensor(rng.normal(size=(3, 2)))
    report = equivariance_error(model, x)
    identity = Sn(3).identity()
    assert report.per_element[identity] <= 1e-14
    assert report.mc_error <= report.exact_error


def _one_layer_c4_model(kind, rng, size):
    if kind == "lifting":
        eq = C4LiftingConv(Tensor(rng.normal(size=(2, 1, 3, 3))), image_size=size)
    else:
        eq = C4GroupConv(Tensor(rng.normal(size=(2, 4, 2, 3, 3))), image_size=size,
                         pool=kind == "group_pooled")
    fan_in = int(np.prod(eq.in_rep.space_shape))
    neq = NonEquivariantLayer(
        [Tensor(rng.normal(size=(fan_in, int(np.prod(eq.out_rep.space_shape)))) / np.sqrt(fan_in))],
        eq.in_rep.space_shape, eq.out_rep.space_shape)
    return HomotopicModel([HomotopicLayer(eq, neq, gamma=0.7)])


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["lifting", "group", "group_pooled", "c4_chain", "set"]),
       n=st.sampled_from([None, 1, 3]), size=st.integers(3, 5),
       without_identity=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_equivariance_gaps_match_the_per_element_loop(kind, n, size, without_identity, seed):
    """One orbit forward gives the per-element, per-sample defects of one forward each."""
    rng = np.random.default_rng(seed)
    if kind == "set":
        model = build_set_model(n_points=size - 1, d=2, hidden=3, n_layers=2, rng=rng,
                                gamma_init=0.7)
    elif kind == "c4_chain":
        model = build_c4_model(image_size=size, hidden=2, n_layers=3, rng=rng, gamma_init=0.7)
    else:
        model = _one_layer_c4_model(kind, rng, size)
    space = model.in_rep.space_shape
    x = Tensor(rng.normal(size=space if n is None else (n,) + space))
    group = model.in_rep.group
    identity = group.identity()
    gs = group.elements()
    if without_identity:
        gs = [gs[i] for i in rng.permutation(len(gs)) if gs[i] != identity]

    gaps = equivariance_gaps(model, x, gs)

    samples = 1 if n is None else n
    base = model.forward(x)
    want = np.array([
        np.linalg.norm((model.out_rep.apply(g, base).data
                        - model.forward(model.in_rep.apply(g, x)).data).reshape(samples, -1), axis=1)
        for g in gs
    ])
    assert gaps.shape == (len(gs), samples)
    scale = max(np.max(want), np.max(np.abs(base.data)), 1e-300)
    assert np.max(np.abs(gaps - want)) <= 1e-12 * scale
    if not without_identity:
        assert np.all(gaps[gs.index(identity)] == 0.0)


def test_equivariance_error_exact_refuses_huge_group(rng):
    model = build_set_model(n_points=8, d=2, n_layers=1, rng=rng)
    x = Tensor(rng.normal(size=(8, 2)))
    with pytest.raises(ValueError, match="enumerat"):
        equivariance_error(model, x, mode="exact")


def test_mc_without_replacement_on_c4_equals_exact_mean(rng):
    model = build_c4_model(image_size=6, hidden=2, n_layers=2, rng=rng, gamma_init=0.3)
    x = Tensor(rng.normal(size=(1, 6, 6)))
    exact = equivariance_error(model, x, mode="exact")
    mc = equivariance_error(model, x, mode="mc", n_samples=4, rng=rng, replace=False)
    assert mc.mc_error == pytest.approx(exact.mc_error, rel=1e-12)
    assert mc.exact_error is None
    assert mc.n_samples == 4


def test_mc_with_replacement_samples_within_range(rng):
    model = build_c4_model(image_size=6, hidden=2, n_layers=2, rng=rng, gamma_init=0.3)
    x = Tensor(rng.normal(size=(1, 6, 6)))
    exact = equivariance_error(model, x, mode="exact")
    mc = equivariance_error(model, x, mode="mc", n_samples=5, rng=rng)
    assert 0.0 <= mc.mc_error <= exact.exact_error + 1e-12


def test_refined_never_exceeds_coarse_on_random_gamma_configurations(rng):
    for _ in range(100):
        big_l = int(rng.integers(1, 5))
        gammas = rng.uniform(-1.0, 1.0, size=big_l)
        model = unit_constants_model(gammas)
        t1 = thm1_bounds(model, x_norm=1.0)
        t2 = thm2_bounds(model, x_norm=1.0)
        assert t1["refined"].value <= t1["coarse"].value + 1e-12
        assert t2["refined"].value <= t2["coarse"].value + 1e-12


def test_soundness_chain_on_random_models(rng):
    for _ in range(40):
        model = sample_random_model(rng)
        x = Tensor(rng.normal(size=model.in_rep.space_shape))
        report = bound_report(model, x)
        slack = 1e-9
        assert report["approximation_error"] <= report["delta_recursion"] + slack
        assert report["delta_recursion"] <= report["thm1_refined"] + slack
        assert report["thm1_refined"] <= report["thm1_coarse"] + slack
        assert report["equivariance_error"] <= report["epsilon_recursion"] + slack
        assert report["epsilon_recursion"] <= report["thm2_refined"] + slack
        assert report["thm2_refined"] <= report["thm2_coarse"] + slack


def test_bounds_monotone_in_gamma_scale(rng):
    model = build_set_model(n_points=3, d=2, n_layers=3, rng=rng)
    base = np.array([0.3, -0.5, 0.2])
    previous = -1.0
    for t in np.linspace(0.0, 1.0, 11):
        model.set_gamma_values(t * base)
        value = thm1_bounds(model, x_norm=1.0)["refined"].value
        assert value >= previous - 1e-15
        previous = value
    model.set_gamma_values(0.0 * base)
    x = Tensor(rng.normal(size=(3, 2)))
    assert approximation_error(model, x) <= 1e-14
    assert equivariance_error(model, x).exact_error <= 1e-10


def test_exact_method_tightens_or_matches_fast(rng):
    model = build_c4_model(image_size=6, hidden=2, n_layers=2, rng=rng, gamma_init=0.3)
    fast = thm1_bounds(model, 1.0, method="fast")["refined"].value
    exact = thm1_bounds(model, 1.0, method="exact")["refined"].value
    assert exact <= fast + 1e-12
    x = Tensor(rng.normal(size=(1, 6, 6)))
    assert approximation_error(model, x) <= recursion_bounds(model, x, method="exact")["delta"].value + 1e-9


def test_certificates_reject_negative_and_record_constants():
    model = unit_constants_model([0.25])
    cert = thm1_bounds(model, 2.0)["refined"]
    assert cert.constants["L"] == 1
    assert cert.constants["x_norm"] == 2.0
    assert cert.value == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        from ace.metrics import BoundCertificate

        BoundCertificate("thm1_coarse", -1.0)
