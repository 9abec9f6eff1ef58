"""Tests of the benchmark itself: python3 -m pytest -q perfbench

The reference forward and group actions must agree with ace, every output
check must reject a deliberately broken case, and the span arithmetic
must hold on hand-built span trees.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import CheckError  # noqa: E402


def _sampled(seed):
    from ace.layers import model_manifest, sample_random_model

    rng = np.random.default_rng(seed)
    model = sample_random_model(rng, family=None)
    x = rng.normal(size=model.in_rep.space_shape)
    return model, ref.model_from_manifest(*model_manifest(model)), x


@pytest.mark.parametrize("seed", range(24))
def test_reference_forward_matches_ace(seed):
    from ace.tensor import Tensor

    model, own, x = _sampled(seed)
    want = model.forward(Tensor(x)).data
    got = ref.forward(own, x[None])[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    batch = np.stack([x, 2.0 * x, -x])
    np.testing.assert_allclose(ref.forward(own, batch), model.forward(Tensor(batch)).data,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_reference_group_actions_match_ace(seed):
    from ace.tensor import Tensor

    model, own, x = _sampled(seed)
    y = model.forward(Tensor(x)).data
    for rep, own_rep, z in ((model.in_rep, ref.in_rep(own), x),
                            (model.out_rep, ref.out_rep(own), y)):
        elements = rep.group.elements()
        own_elements = ref.group_elements(own_rep, z.shape)
        assert len(elements) == len(own_elements)
        for g, own_g in zip(elements, own_elements):
            assert g.data == own_g
            np.testing.assert_array_equal(ref.act(own_rep, own_g, z[None])[0],
                                          rep.apply(g, Tensor(z)).data)


@pytest.mark.parametrize("seed", range(8))
def test_reference_errors_match_ace(seed):
    from ace.metrics import approximation_error, equivariance_error
    from ace.tensor import Tensor

    model, own, x = _sampled(seed)
    checks.close("approximation", ref.approximation_error(own, x),
                 approximation_error(model, Tensor(x)))
    checks.close("equivariance", ref.equivariance_error(own, x),
                 equivariance_error(model, Tensor(x)).exact_error)


# ---------------------------------------------------------------- one real run


@pytest.fixture(scope="module")
def strict_run(tmp_path_factory):
    """A short strict set run through ace.cli.main, plus its validation split."""
    out = tmp_path_factory.mktemp("strict_run")
    wl = workloads.Training("t", "configs/broken_set_resilient.json",
                            ["train.mode=strict", "train.eval_every=1", "train.epochs=6"], seed=3)
    result = workloads.invoke(wl.main_argv(0, out), out)
    assert result.ok, result.error or result.stderr
    dataset = wl.prepare()[1]
    idx = dataset.splits["val"]
    return result, dataset.inputs[idx], dataset.targets[idx]


def test_training_checks_accept_a_real_run(strict_run):
    result, x_val, y_val = strict_run
    checks.check_training_run(result.out_dir, x_val, y_val, steps=result.steps)


def test_flipped_checkpoint_byte_is_rejected(strict_run, tmp_path):
    raw = (strict_run[0].out_dir / "checkpoint.bin").read_bytes()
    for pos in (0, 20, 45, 60, len(raw) // 2, len(raw) - 1):
        broken = bytearray(raw)
        broken[pos] ^= 0x01
        path = tmp_path / f"flip{pos}.bin"
        path.write_bytes(bytes(broken))
        with pytest.raises(CheckError):
            ref.read_checkpoint(path)


def test_projection_with_nonzero_gamma_is_rejected(strict_run):
    result, x_val, _ = strict_run
    _, model, _ = ref.read_checkpoint(result.out_dir / "checkpoint.bin")
    assert checks.check_projection_equivariant(model.projected(), x_val) <= 1e-10
    assert any(abs(layer.gamma) > 1e-3 for layer in model.layers)
    with pytest.raises(CheckError, match="not equivariant"):
        checks.check_projection_equivariant(model, x_val)


def test_c4_projection_with_nonzero_gamma_is_rejected():
    own, x = next((own, x) for _, own, x in map(_sampled, range(50))
                  if own.layers[0].kind == "c4_lifting_conv")
    checks.check_projection_equivariant(own.projected(), x[None])
    with pytest.raises(CheckError):
        checks.check_projection_equivariant(own, x[None])


@pytest.mark.parametrize("column", ["loss_val_raw", "loss_val_proj", "eq_error_exact"])
def test_perturbed_trace_value_is_rejected(strict_run, column):
    result, x_val, y_val = strict_run
    _, model, cols = ref.read_checkpoint(result.out_dir / "checkpoint.bin")
    checks.check_last_row(cols, model, x_val, y_val)
    cols = {k: np.array(v) for k, v in cols.items()}
    cols[column][-1] *= 1.0 + 1e-7
    with pytest.raises(CheckError, match=column):
        checks.check_last_row(cols, model, x_val, y_val)


def test_trace_property_violations_are_rejected(strict_run):
    _, _, cols = ref.read_checkpoint(strict_run[0].out_dir / "checkpoint.bin")
    checks.check_trace_properties(cols, "strict", 0.02)
    cases = [("lams", lambda c: c.__setitem__(-1, c[-1] + 1e-8), "strict"),
             ("eq_error_exact", lambda c: c.__setitem__(1, 1e9), "strict"),
             ("loss_train", lambda c: c.__setitem__(-1, c[0]), "strict"),
             ("lams", lambda c: c.__setitem__(0, -1.0), "resilient")]
    for column, spoil, mode in cases:
        broken = {k: np.array(v) for k, v in cols.items()}
        spoil(broken[column])
        with pytest.raises(CheckError):
            checks.check_trace_properties(broken, mode, 0.02)


def test_csv_that_disagrees_with_checkpoint_is_rejected(strict_run):
    out = strict_run[0].out_dir
    meta, model, cols = ref.read_checkpoint(out / "checkpoint.bin")
    csv_cols = checks.read_trace_csv(out / "trace.csv")
    checks.check_csv_matches_checkpoint(csv_cols, cols, model.n_layers)
    csv_cols["gamma_2"] = csv_cols["gamma_2"] + 1e-15
    with pytest.raises(CheckError, match="gamma_2"):
        checks.check_csv_matches_checkpoint(csv_cols, cols, model.n_layers)


def test_lipschitz_value_below_operator_norm_is_rejected():
    from ace.layers import lipschitz_bound, model_manifest, sample_random_model

    for seed in range(6):
        rng = np.random.default_rng(seed)
        model = sample_random_model(rng, family=None)
        x = rng.normal(size=model.in_rep.space_shape)
        own = ref.model_from_manifest(*model_manifest(model))
        shapes = ref.layer_input_shapes(own, x.shape)
        for layer, own_layer, shape in zip(model.layers, own.layers, shapes):
            op = ref.eq_operator(own_layer, shape)
            checks.check_lipschitz("fast", lipschitz_bound(layer.eq, method="fast"), op)
            sigma = float(np.linalg.svd(op, compute_uv=False)[0])
            with pytest.raises(CheckError, match="below the operator norm"):
                checks.check_lipschitz("scaled", sigma * 0.999, op)


def test_divergence_outcome_check(tmp_path):
    with pytest.raises(CheckError, match="exited"):
        checks.check_divergence_reported(0, "", tmp_path)
    with pytest.raises(CheckError, match="diverged"):
        checks.check_divergence_reported(1, "Traceback", tmp_path)
    with pytest.raises(CheckError, match="missing"):
        checks.check_divergence_reported(1, "training diverged at step 4", tmp_path)
    for name in checks.ARTIFACTS:
        (tmp_path / name).write_text("x")
    checks.check_divergence_reported(1, "training diverged at step 4\n", tmp_path)


def test_chain_out_of_order_is_rejected():
    checks.check_chain(1, "approx", [0.1, 0.2, 0.3, 0.3], "1")
    with pytest.raises(CheckError, match="out of order"):
        checks.check_chain(1, "approx", [0.1, 0.3, 0.2, 0.4], "1")
    with pytest.raises(CheckError, match="ok column"):
        checks.check_chain(1, "equiv", [0.1, 0.2, 0.3, 0.4], "0")


# ---------------------------------------------------------------- spans


def _tree(rows):
    """Spans from (name, start, end, parent, nodes0, nodes1) rows."""
    return [spans.Span(n, s, e, p, nodes0=a, nodes1=b) for n, s, e, p, a, b in rows]


def test_self_time_subtracts_covered_child_time():
    tree = _tree([("root", 0.0, 10.0, -1, 0, 0),
                  ("a", 1.0, 4.0, 0, 0, 0),
                  ("a1", 2.0, 3.0, 1, 0, 0),
                  ("b", 5.0, 6.0, 0, 0, 0),
                  ("b_overlap", 5.5, 7.0, 0, 0, 0),  # overlaps b: its union counts once
                  ("c", 9.5, 12.0, 0, 0, 0)])  # runs past root: only the part inside counts
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 2 - 0.5, 2.0, 1.0, 1.0, 1.5, 2.5])


def test_split_train_finds_steps_and_rows():
    fwd, back = spans.MODEL_FORWARD[0], spans.BACKWARD
    tree = _tree([
        ("trainer.train", 0, 100, -1, 0, 90),
        ("trainer.project_equivariant", 1, 2, 0, 0, 0),  # initial row
        (fwd, 2, 8, 0, 0, 20),
        ("tensor.zero_grad", 9, 9.5, 0, 20, 20),
        (fwd, 10, 12, 0, 20, 30),  # step 1
        (back, 12, 14, 0, 30, 30),
        ("constraints.primal_step", 14, 15, 0, 30, 30),
        ("layers.spectral_normalize", 15, 16, 0, 30, 31),
        ("tensor.zero_grad", 17, 17.5, 0, 31, 31),  # loop overhead, no row
        (fwd, 18, 20, 0, 31, 41),  # step 2
        (back, 20, 22, 0, 41, 41),
        ("constraints.primal_step", 22, 23, 0, 41, 41),
        (fwd, 30, 40, 0, 41, 60),  # final row
        ("layers.model_manifest", 41, 42, 0, 60, 60),
    ])
    steps, rows = spans.split_train(tree)
    assert [(p.t0, p.t1, p.nodes) for p in steps] == [(10, 16, 11), (18, 23, 10)]
    assert [p.backward for p in steps] == [(12, 14), (20, 22)]
    assert [(p.t0, p.t1, p.nodes) for p in rows] == [(0, 10, 20), (23, 100, 49)]


def test_split_train_rejects_backward_without_forward():
    tree = _tree([("trainer.train", 0, 10, -1, 0, 0), (spans.BACKWARD, 1, 2, 0, 0, 0)])
    with pytest.raises(ValueError):
        spans.split_train(tree)


def test_instrumentation_restores_every_attribute():
    import ace.cli
    import ace.tensor
    import ace.trainer

    before = (ace.trainer.primal_step, ace.cli.main, vars(ace.tensor.Tensor)["_result"],
              ace.tensor.Tensor.backward)
    tracer = spans.Tracer()
    wrapper = spans.Instrumentation(tracer, ["ace.tensor", "ace.constraints", "ace.trainer",
                                             "ace.cli"])
    wrapper.install()
    try:
        assert ace.trainer.primal_step is not before[0]
        t = ace.tensor.Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
    finally:
        wrapper.remove()
    assert before == (ace.trainer.primal_step, ace.cli.main, vars(ace.tensor.Tensor)["_result"],
                      ace.tensor.Tensor.backward)
    assert [s.name for s in tracer.spans] == ["tensor.Tensor.sum", "tensor.Tensor.backward"]
    assert tracer.nodes == 2 and tracer.grad_nodes == 2
