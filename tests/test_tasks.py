import numpy as np
import pytest

from ace import _binio
from ace.groups import C4, GroupElement, Sn
from ace.tasks import (
    Dataset,
    SymmetryBreakSpec,
    c4_toy,
    dataset_to_csv,
    load_dataset,
    save_dataset,
    scalar_toys,
    set_regression,
    set_target_map,
)


def _rot(image: np.ndarray, times: int) -> np.ndarray:
    return np.rot90(image, k=times, axes=(-2, -1))


# ---------------------------------------------------------------- c4 toy


def test_square_targets_are_c4_fixed_points():
    ds = c4_toy(target="square", n=50, image_size=8, seed=3)
    for i in range(ds.n_samples):
        for g in range(4):
            np.testing.assert_array_equal(_rot(ds.targets[i], g), ds.targets[i])
            np.testing.assert_array_equal(_rot(ds.inputs[i], g), ds.inputs[i])


def test_rectangle_targets_keep_only_c2():
    ds = c4_toy(target="rectangle", n=50, image_size=8, seed=4)
    for i in range(ds.n_samples):
        np.testing.assert_array_equal(_rot(ds.targets[i], 2), ds.targets[i])
        assert np.max(np.abs(_rot(ds.targets[i], 1) - ds.targets[i])) > 0.0


def test_nonsymmetric_targets_have_no_rotation_symmetry():
    ds = c4_toy(target="nonsymmetric", n=50, image_size=8, seed=5)
    for i in range(ds.n_samples):
        for g in (1, 2, 3):
            assert np.linalg.norm(_rot(ds.targets[i], g) - ds.targets[i]) > 0.0


def test_c4_toy_intensity_and_bounds():
    ds = c4_toy(target="square", n=100, image_size=10, seed=6)
    assert ds.inputs.shape == (100, 1, 10, 10)
    on = ds.inputs[ds.inputs > 0.0]
    assert np.all((on >= 0.5) & (on <= 1.0))
    # borders stay empty so the target ring fits
    assert np.all(ds.inputs[:, :, 0, :] == 0.0)
    assert np.all(ds.targets[:, :, :, 0] == 0.0)


def test_c4_toy_rejects_bad_image_size():
    with pytest.raises(ValueError, match="even"):
        c4_toy(image_size=9)
    with pytest.raises(ValueError, match="even"):
        c4_toy(image_size=6)
    with pytest.raises(ValueError, match="target"):
        c4_toy(target="circle")


# ---------------------------------------------------------------- set regression


def test_set_regression_epsilon_zero_is_permutation_equivariant(rng):
    ds = set_regression(n_points=4, d=3, epsilon=0.0, n_samples=30, seed=7)
    for i in range(ds.n_samples):
        x, y = ds.inputs[i], ds.targets[i]
        for _ in range(20):
            perm = np.asarray(Sn(4).sample(rng).data)
            target_map = set_target_map(ds)
            np.testing.assert_allclose(target_map(x[perm]), y[perm], atol=1e-12)


def test_set_regression_defect_monotone_in_epsilon(rng):
    datasets = {eps: set_regression(n_points=4, d=3, epsilon=eps, n_samples=50, seed=8)
                for eps in (0.0, 0.25, 0.5)}
    # identical inputs across epsilon values
    np.testing.assert_array_equal(datasets[0.0].inputs, datasets[0.5].inputs)
    perms = [np.asarray(Sn(4).sample(rng).data) for _ in range(10)]
    defects = []
    for eps, ds in datasets.items():
        target_map = set_target_map(ds)
        worst = 0.0
        for i in range(50):
            x = ds.inputs[i]
            for perm in perms:
                gap = np.linalg.norm(target_map(x[perm]) - target_map(x)[perm])
                worst = max(worst, gap)
        defects.append(worst)
    assert defects[0] <= 1e-12
    assert defects[0] < defects[1] < defects[2]


def test_set_regression_validation():
    with pytest.raises(ValueError, match="n_points"):
        set_regression(n_points=1)
    with pytest.raises(ValueError, match="epsilon"):
        set_regression(epsilon=-0.1)


def test_noise_option_changes_targets_only():
    clean = set_regression(n_samples=20, seed=9)
    noisy = set_regression(n_samples=20, seed=9, noise=0.1)
    np.testing.assert_array_equal(clean.inputs, noisy.inputs)
    assert np.max(np.abs(clean.targets - noisy.targets)) > 0.0


# ---------------------------------------------------------------- datasets, splits, io


def test_splits_disjoint_cover_and_sized():
    ds = set_regression(n_samples=103, seed=10)
    sizes = {k: ds.split_size(k) for k in ("train", "val", "test")}
    assert sizes == {"train": 83, "val": 10, "test": 10}
    all_idx = np.concatenate([ds.splits[k] for k in ("train", "val", "test")])
    assert sorted(all_idx.tolist()) == list(range(103))


def test_dataset_rejects_overlapping_splits():
    with pytest.raises(ValueError, match="disjoint"):
        Dataset(np.zeros((4, 1)), np.zeros((4, 1)),
                {"train": np.array([0, 1]), "val": np.array([1]), "test": np.array([3])},
                seed=0)


def test_same_seed_regenerates_bit_identical(tmp_path):
    a = c4_toy(target="rectangle", n=40, seed=11)
    b = c4_toy(target="rectangle", n=40, seed=11)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
    for k in ("train", "val", "test"):
        np.testing.assert_array_equal(a.splits[k], b.splits[k])
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(a, pa)
    save_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_dataset_container_round_trip(tmp_path):
    ds = set_regression(n_samples=25, epsilon=0.3, seed=12)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.targets, ds.targets)
    assert back.descriptor == ds.descriptor
    assert back.seed == ds.seed
    for k in ds.splits:
        np.testing.assert_array_equal(back.splits[k], ds.splits[k])


def test_load_dataset_rejects_foreign_container(tmp_path):
    path = tmp_path / "foreign.bin"
    _binio.write_container(path, {"format": "ace-model"}, {})
    with pytest.raises(_binio.ContainerError):
        load_dataset(path)


def test_csv_dump_round_trips_values(tmp_path):
    ds = set_regression(n_points=3, d=2, n_samples=12, seed=13)
    path = tmp_path / "ds.csv"
    dataset_to_csv(ds, path)
    import csv as csv_mod

    with open(path) as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0][:2] == ["sample", "split"]
    assert len(rows) == 13
    first = np.array([float(v) for v in rows[1][2 : 2 + 6]]).reshape(3, 2)
    np.testing.assert_array_equal(first, ds.inputs[0])


def test_stacked_split_tensors():
    ds = set_regression(n_points=3, d=2, n_samples=20, seed=14)
    x, y = ds.stacked("val")
    assert x.shape == (2, 3, 2)
    assert y.shape == (2, 3, 2)
    np.testing.assert_array_equal(x.data, ds.inputs[ds.splits["val"]])


# ---------------------------------------------------------------- scalar toys


def test_scalar_toy_strict_optimum():
    toy = scalar_toys("strict_kkt", a=1.0)
    assert toy.optimum == {"gamma": 0.0, "lambda": 2.0, "u": None}
    assert toy.objective(0.0) == 1.0


def test_scalar_toy_resilient_optimum_matches_solver():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    toy = scalar_toys("resilient_kkt", a=0.8, rho=1.7)

    res = scipy_optimize.minimize(
        lambda z: (z[0] - 0.8) ** 2 + 0.5 * 1.7 * z[1] ** 2,
        x0=np.array([0.5, 0.5]),
        method="SLSQP",
        constraints=[
            {"type": "ineq", "fun": lambda z: z[1] - z[0]},
            {"type": "ineq", "fun": lambda z: z[1] + z[0]},
        ],
        bounds=[(None, None), (0.0, None)],
    )
    assert res.success
    assert toy.optimum["gamma"] == pytest.approx(res.x[0], abs=1e-6)
    assert toy.optimum["u"] == pytest.approx(res.x[1], abs=1e-6)
    assert toy.optimum["lambda"] == pytest.approx(1.7 * toy.optimum["u"], abs=1e-12)


def test_scalar_toy_resilient_zero_a():
    toy = scalar_toys("resilient_kkt", a=0.0)
    assert toy.optimum == {"gamma": 0.0, "lambda": 0.0, "u": 0.0}


def test_scalar_toy_dataset_embedding():
    toy = scalar_toys("strict_kkt", a=1.0)
    ds = toy.dataset()
    assert ds.n_samples == 10
    assert all(ds.split_size(k) >= 1 for k in ("train", "val", "test"))
    np.testing.assert_array_equal(ds.inputs, np.ones((10, 1, 1)))
    np.testing.assert_array_equal(ds.targets, np.ones((10, 1, 1)))


def test_scalar_toy_validation():
    with pytest.raises(ValueError, match="finite"):
        scalar_toys("strict_kkt", a=float("nan"))
    with pytest.raises(ValueError, match="kind"):
        scalar_toys("other", a=1.0)
    with pytest.raises(ValueError, match="rho"):
        scalar_toys("resilient_kkt", a=1.0, rho=0.0)


def test_symmetry_break_spec_validation():
    spec = SymmetryBreakSpec(0.5, "arbitrary")
    assert spec.epsilon == 0.5
    with pytest.raises(ValueError):
        SymmetryBreakSpec(-0.1, "none")
    with pytest.raises(ValueError):
        SymmetryBreakSpec(0.1, "sideways")
