"""Group axioms by enumeration, homomorphism and isometry of every
action, and the sampling contracts."""

import numpy as np
import pytest

from ace.groups import (
    C4,
    GroupElement,
    PermutationRep,
    RegularRep,
    RotationImageRep,
    Sn,
    TrivialRep,
    apply,
)
from ace.tensor import ShapeError, Tensor, l2_norm


def check_axioms(group):
    els = group.elements()
    ids = group.identity()
    keyed = {e.data for e in els}
    for a in els:
        # closure and identity
        assert group.compose(a, ids).data == a.data
        assert group.compose(ids, a).data == a.data
        assert group.compose(a, group.inverse(a)).data == ids.data
        for b in els:
            assert group.compose(a, b).data in keyed
    # associativity on all triples (small groups, exhaustive)
    for a in els:
        for b in els:
            for c in els:
                lhs = group.compose(group.compose(a, b), c)
                rhs = group.compose(a, group.compose(b, c))
                assert lhs.data == rhs.data


def test_c4_axioms():
    g = C4()
    assert len(g.elements()) == 4
    check_axioms(g)


def test_sn_axioms():
    assert len(Sn(3).elements()) == 6
    check_axioms(Sn(3))
    check_axioms(Sn(4))


def test_sn_enumeration_refused_beyond_limit():
    with pytest.raises(ValueError, match="sample"):
        Sn(7).elements()
    # sampling still fine
    assert len(Sn(7).sample(np.random.default_rng(0)).data) == 7


def test_spec_row_permutation_example():
    rep = PermutationRep(3, 1)
    z = Tensor([[1.0], [2.0], [3.0]])  # rows a, b, c
    out = apply(GroupElement("sn", (1, 2, 0)), rep, z)
    assert out.data.tolist() == [[2.0], [3.0], [1.0]]  # b, c, a


def test_c4_rotation_order_four(rng):
    rep = RotationImageRep(2, 5, 5)
    z = Tensor(rng.normal(size=(2, 5, 5)))
    g1 = GroupElement("c4", 1)
    out = z
    for _ in range(4):
        out = apply(g1, rep, out)
    np.testing.assert_array_equal(out.data, z.data)
    np.testing.assert_array_equal(apply(GroupElement("c4", 0), rep, z).data, z.data)


def reps_with_samples(rng):
    return [
        (RotationImageRep(2, 4, 4), rng.normal(size=(2, 4, 4))),
        (RegularRep(3, 4, 4), rng.normal(size=(4, 3, 4, 4))),
        (PermutationRep(4, 3), rng.normal(size=(4, 3))),
        (TrivialRep(C4(), (5,)), rng.normal(size=(5,))),
    ]


def test_homomorphism_all_pairs(rng):
    """rho(g1 g2) z = rho(g1) rho(g2) z, enumerated over all pairs."""
    for rep, arr in reps_with_samples(rng):
        z = Tensor(arr)
        for g1 in rep.group.elements():
            for g2 in rep.group.elements():
                combined = apply(rep.group.compose(g1, g2), rep, z)
                sequential = apply(g1, rep, apply(g2, rep, z))
                np.testing.assert_array_equal(combined.data, sequential.data)


def test_identity_and_inverse(rng):
    for rep, arr in reps_with_samples(rng):
        z = Tensor(arr)
        e = rep.group.identity()
        np.testing.assert_array_equal(apply(e, rep, z).data, z.data)
        for g in rep.group.elements():
            back = apply(rep.group.inverse(g), rep, apply(g, rep, z))
            np.testing.assert_array_equal(back.data, z.data)


def test_linearity_and_isometry(rng):
    for rep, arr in reps_with_samples(rng):
        z1 = Tensor(arr)
        z2 = Tensor(rng.normal(size=arr.shape))
        for g in rep.group.elements():
            lin = apply(g, rep, Tensor(0.37 * z1.data + z2.data))
            combo = 0.37 * apply(g, rep, z1).data + apply(g, rep, z2).data
            np.testing.assert_allclose(lin.data, combo, atol=1e-12)
            assert abs(l2_norm(apply(g, rep, z1)).item() - l2_norm(z1).item()) <= 1e-12
        assert rep.operator_norm_bound() == 1.0


def test_regular_action_composition_16_pairs(rng):
    z = Tensor(rng.normal(size=(4, 2, 6, 6)))
    rep = RegularRep(2, 6, 6)
    c4 = rep.group
    for g1 in c4.elements():
        for g2 in c4.elements():
            combined = rep.apply(c4.compose(g1, g2), z)
            sequential = rep.apply(g1, rep.apply(g2, z))
            np.testing.assert_array_equal(combined.data, sequential.data)


def test_batched_apply_matches_per_sample(rng):
    rep = PermutationRep(4, 3)
    batch = rng.normal(size=(5, 4, 3))
    g = GroupElement("sn", (2, 0, 3, 1))
    whole = apply(g, rep, Tensor(batch)).data
    for i in range(5):
        np.testing.assert_array_equal(whole[i], apply(g, rep, Tensor(batch[i])).data)


def test_sample_uniformity():
    """Multinomial concentration: each of the 4 rotations within 3 sigma."""
    rng = np.random.default_rng(7)
    draws = 10_000
    counts = np.zeros(4)
    c4 = C4()
    for _ in range(draws):
        counts[c4.sample(rng).data] += 1
    p = 0.25
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


def test_action_shape_errors(rng):
    with pytest.raises(ShapeError):
        RotationImageRep(1, 4, 5)
    rep = RotationImageRep(1, 4, 4)
    with pytest.raises(ShapeError):
        apply(GroupElement("c4", 1), rep, Tensor(rng.normal(size=(2, 4, 4))))
    with pytest.raises(ShapeError):
        RegularRep(1, 4, 4).apply(GroupElement("c4", 1), Tensor(rng.normal(size=(3, 1, 4, 4))))
