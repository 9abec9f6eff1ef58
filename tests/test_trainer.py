"""Training-loop behavior: modes, checkpoints, dual bookkeeping, guards."""

import numpy as np
import pytest

from ace import _binio
from ace.constraints import DualState
from ace.layers import (
    build_c4_model,
    build_scalar_toy_model,
    build_set_model,
    model_manifest,
    project_equivariant,
)
from ace.metrics import thm1_bounds, thm2_bounds
from ace.tasks import c4_toy, scalar_toys, set_regression
from ace.trainer import (
    TrainConfig,
    TrainRun,
    _log_row,
    _maybe_select_checkpoint,
    load_checkpoint,
    resume,
    save_checkpoint,
    train_penalty,
    train_plain_equivariant,
    train_resilient,
    train_strict,
)


def small_set_task(epsilon=0.0, seed=1):
    return set_regression(n_points=3, d=2, epsilon=epsilon, n_samples=60, seed=seed)


def small_set_model(seed=0, **kwargs):
    defaults = dict(n_points=3, d=2, hidden=4, n_layers=2, gamma_init=0.3)
    defaults.update(kwargs)
    return build_set_model(rng=np.random.default_rng(seed), **defaults)


def trace_matrix(run):
    return np.array([
        [row.step, row.loss_train, row.loss_val_raw, row.loss_val_proj,
         row.eq_error_exact, row.thm1_refined, row.thm2_refined,
         *row.gammas, *row.lams, *row.us]
        for row in run.trace
    ])


def manifests_equal(model_a, model_b):
    meta_a, arrays_a = model_manifest(model_a)
    meta_b, arrays_b = model_manifest(model_b)
    return meta_a == meta_b and set(arrays_a) == set(arrays_b) and all(
        np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a
    )


def test_zero_epochs_logs_one_row_and_takes_no_steps():
    run = train_strict(small_set_model(), small_set_task(), epochs=0, seed=0)
    assert run.step == 0
    assert run.epochs_done == 0
    assert len(run.trace) == 1
    assert run.trace[0].step == 0
    assert run.best_step == 0


def test_trace_steps_strictly_increase():
    run = train_strict(small_set_model(), small_set_task(), epochs=4, batch_size=16, seed=0)
    steps = [row.step for row in run.trace]
    assert steps == sorted(set(steps))
    assert steps[0] == 0 and steps[-1] == run.step


def test_same_seed_runs_are_identical():
    run_a = train_resilient(small_set_model(), small_set_task(), epochs=3,
                            batch_size=16, seed=7)
    run_b = train_resilient(small_set_model(), small_set_task(), epochs=3,
                            batch_size=16, seed=7)
    assert np.array_equal(trace_matrix(run_a), trace_matrix(run_b))
    assert manifests_equal(run_a.model, run_b.model)


def test_strict_toy_reaches_kkt_point():
    toy = scalar_toys("strict_kkt", a=1.0)
    run = train_strict(build_scalar_toy_model(gamma_init=1.0), toy.dataset(),
                       epochs=1200, batch_size=16, eta_p=1e-2, seed=0, eval_every=300)
    row = run.trace[-1]
    assert abs(row.gammas[0] - toy.optimum["gamma"]) < 1e-2
    assert abs(row.lams[0] - toy.optimum["lambda"]) < 5e-2


def test_resilient_toy_reaches_kkt_point():
    toy = scalar_toys("resilient_kkt", a=1.0, rho=1.0)
    run = train_resilient(build_scalar_toy_model(gamma_init=1.0), toy.dataset(),
                          epochs=2500, batch_size=16, eta_p=1e-2, seed=0,
                          eval_every=500, rho=1.0, spectral_norm=False)
    row = run.trace[-1]
    assert abs(row.gammas[0] - toy.optimum["gamma"]) < 1e-2
    assert abs(row.lams[0] - toy.optimum["lambda"]) < 1e-2
    assert abs(row.us[0] - toy.optimum["u"]) < 1e-2
    assert abs(row.us[0] - row.lams[0] / 1.0) < 1e-2


def test_multiplier_equals_rate_times_gamma_sum_on_every_logged_row():
    run = train_strict(small_set_model(), small_set_task(), epochs=5,
                       batch_size=16, eta_p=5e-2, seed=0)
    for row in run.trace:
        gap = np.max(np.abs(row.lams - run.config.eta_d * row.gamma_sums))
        assert gap < 1e-10


def test_strict_state_has_no_slack_variables():
    run = train_strict(small_set_model(), small_set_task(), epochs=2, seed=0)
    assert run.state.u is None
    assert np.all(run.trace[-1].us == 0.0)


def test_plain_mode_stays_equivariant_and_freezes_gamma():
    run = train_plain_equivariant(small_set_model(), small_set_task(), epochs=4,
                                  batch_size=16, eta_p=5e-2, seed=0)
    assert run.state is None
    for row in run.trace:
        assert np.all(row.gammas == 0.0)
        assert row.eq_error_exact <= 1e-10
        assert np.all(row.lams == 0.0) and np.all(row.us == 0.0)
    first, last = run.trace[0], run.trace[-1]
    assert last.loss_train < first.loss_train


def test_penalty_mode_keeps_gamma_fixed_at_one():
    run = train_penalty(small_set_model(), small_set_task(), epochs=2,
                        batch_size=16, eta_p=5e-2, seed=0, beta=0.5, n_g_samples=2)
    assert run.state is None
    for row in run.trace:
        assert np.all(row.gammas == 1.0)


def test_penalty_weight_trades_fit_for_symmetry():
    task = small_set_task(epsilon=0.5)
    run_free = train_penalty(small_set_model(), task, epochs=10, batch_size=16,
                             eta_p=1e-2, seed=0, beta=0.0)
    run_tied = train_penalty(small_set_model(), task, epochs=10, batch_size=16,
                             eta_p=1e-2, seed=0, beta=2.0, n_g_samples=3)
    assert not run_tied.diverged and not run_free.diverged
    assert run_tied.trace[-1].eq_error_exact < run_free.trace[-1].eq_error_exact


def test_strict_scores_projected_and_resilient_scores_raw():
    run_s = train_strict(small_set_model(), small_set_task(), epochs=4,
                         batch_size=16, seed=0)
    assert run_s.best_score == min(row.loss_val_proj for row in run_s.trace)
    run_r = train_resilient(small_set_model(), small_set_task(), epochs=4,
                            batch_size=16, seed=0)
    assert run_r.best_score == min(row.loss_val_raw for row in run_r.trace)


def test_spectral_norm_defaults_off_strict_on_resilient():
    model = small_set_model(weight_scale=3.0)
    before = [m.data.copy() for layer in model.layers for m in layer.neq.matrices]
    run = train_strict(model, small_set_task(), epochs=1, batch_size=64,
                       eta_p=1e-12, seed=0)
    after = [m.data for layer in run.model.layers for m in layer.neq.matrices]
    for b, a in zip(before, after):
        assert np.max(np.abs(np.linalg.svd(a, compute_uv=False)[0]
                             - np.linalg.svd(b, compute_uv=False)[0])) < 1e-6

    model2 = small_set_model(weight_scale=3.0)
    run2 = train_resilient(model2, small_set_task(), epochs=5, batch_size=16,
                           eta_p=1e-12, seed=0)
    for layer in run2.model.layers:
        for m in layer.neq.matrices:
            sigma = np.linalg.svd(m.data, compute_uv=False)[0]
            assert 0.98 <= sigma <= 1.02


def test_checkpoint_round_trip_preserves_everything():
    run = train_resilient(small_set_model(), small_set_task(), epochs=3,
                          batch_size=16, seed=5)
    save_checkpoint(run, "/tmp/ace_trainer_ck.bin")
    back = load_checkpoint("/tmp/ace_trainer_ck.bin")
    assert np.array_equal(trace_matrix(run), trace_matrix(back))
    assert manifests_equal(run.model, back.model)
    assert manifests_equal(run.best_model(), back.best_model())
    assert back.config.to_dict() == run.config.to_dict()
    assert back.step == run.step and back.epochs_done == run.epochs_done
    assert np.array_equal(back.state.lam, run.state.lam)
    assert np.array_equal(back.state.u, run.state.u)
    assert back.rng.bit_generator.state == run.rng.bit_generator.state


def test_checkpoint_rejects_foreign_and_wrong_version_files():
    _binio.write_container("/tmp/ace_not_ck.bin", {"format": "other"}, {"x": np.ones(2)})
    with pytest.raises(_binio.ContainerError, match="not a training checkpoint"):
        load_checkpoint("/tmp/ace_not_ck.bin")
    run = train_strict(small_set_model(), small_set_task(), epochs=1, seed=0)
    save_checkpoint(run, "/tmp/ace_ck_v.bin")
    meta, arrays = _binio.read_container("/tmp/ace_ck_v.bin")
    meta["version"] = 99
    _binio.write_container("/tmp/ace_ck_v.bin", meta, arrays)
    with pytest.raises(_binio.ContainerError, match="version"):
        load_checkpoint("/tmp/ace_ck_v.bin")


def test_resumed_run_matches_uninterrupted_run():
    task = small_set_task()
    full = train_strict(small_set_model(), task, epochs=8, batch_size=16,
                        eta_p=5e-2, seed=0)
    half = train_strict(small_set_model(), task, epochs=4, batch_size=16,
                        eta_p=5e-2, seed=0)
    save_checkpoint(half, "/tmp/ace_ck_half.bin")
    rest = resume("/tmp/ace_ck_half.bin", task, epochs=8)
    assert np.array_equal(trace_matrix(full), trace_matrix(rest))
    assert manifests_equal(full.model, rest.model)
    assert manifests_equal(full.best_model(), rest.best_model())
    assert full.best_step == rest.best_step


def test_resume_past_target_raises_and_short_target_rejected():
    run = train_strict(small_set_model(), small_set_task(), epochs=3, seed=0)
    save_checkpoint(run, "/tmp/ace_ck_done.bin")
    with pytest.raises(ValueError, match="already has"):
        resume("/tmp/ace_ck_done.bin", small_set_task(), epochs=2)


def test_divergence_guard_stops_and_flags():
    model = small_set_model(weight_scale=30.0)
    run = train_strict(model, small_set_task(), epochs=50, batch_size=16,
                       eta_p=5.0, seed=0)
    assert run.diverged
    assert run.divergence_step is not None
    assert run.epochs_done < 50


def test_huge_primal_step_diverges_without_raising():
    """A blown-up model's bound certificates saturate to inf instead of overflowing."""
    task = small_set_task()
    run = train_strict(small_set_model(), task, epochs=3, batch_size=len(task.splits["train"]),
                       eta_p=1e300, seed=0)
    assert run.diverged
    assert run.divergence_step == 1
    assert run.trace[-1].thm2_refined == np.inf


def test_penalty_step_to_non_finite_weights_diverges_without_raising():
    """The row logged after the blow-up certifies inf instead of raising on the weights."""
    task = small_set_task()
    run = train_penalty(small_set_model(), task, epochs=3, batch_size=len(task.splits["train"]),
                        eta_p=1e308, seed=0)
    assert run.diverged
    assert run.divergence_step == 1
    assert run.trace[-1].step == 1
    assert run.trace[-1].thm1_refined == np.inf


def _per_element_row(model, dataset):
    """A trace row's measured values, one forward per group element."""
    x_train, y_train = dataset.stacked("train")
    x_val, y_val = dataset.stacked("val")
    n = x_val.shape[0]
    base = model.forward(x_val)
    worst = 0.0
    for g in model.in_rep.group.elements():
        moved = model.forward(model.in_rep.apply(g, x_val)).data
        fixed = model.out_rep.apply(g, base).data
        worst = max(worst, float(np.max(np.linalg.norm((fixed - moved).reshape(n, -1), axis=1))))
    x_norm = float(np.max(np.linalg.norm(x_val.data.reshape(n, -1), axis=1)))
    return {
        "loss_train": float(np.mean((model.forward(x_train).data - y_train.data) ** 2)),
        "loss_val_raw": float(np.mean((base.data - y_val.data) ** 2)),
        "loss_val_proj": float(np.mean((project_equivariant(model).forward(x_val).data
                                        - y_val.data) ** 2)),
        "eq_error_exact": worst,
        "thm1_refined": thm1_bounds(model, x_norm)["refined"].value,
        "thm2_refined": thm2_bounds(model, x_norm)["refined"].value,
    }


@pytest.mark.parametrize("family", ["set", "c4"])
def test_logged_row_matches_per_element_formulation(family):
    if family == "set":
        task, model = small_set_task(epsilon=0.5), small_set_model()
    else:
        task = c4_toy(target="rectangle", n=40, image_size=8, seed=0)
        model = build_c4_model(image_size=8, hidden=2, n_layers=2,
                               rng=np.random.default_rng(0), gamma_init=0.3)
    run = train_resilient(model, task, epochs=2, batch_size=16, seed=0)
    row = run.trace[-1]
    for name, want in _per_element_row(run.model, task).items():
        assert getattr(row, name) == pytest.approx(want, rel=1e-12), name


def test_trace_row_leaves_the_next_step_gradients_unchanged():
    task = small_set_task(epsilon=0.5)
    x, y = task.stacked("train")
    grads = []
    for log_first in (False, True):
        model = small_set_model()
        if log_first:
            run = TrainRun(model=model, state=DualState.fresh(model.n_layers, "strict"),
                           config=TrainConfig())
            _log_row(run, task)
            _maybe_select_checkpoint(run, task)
            assert all(p.grad is None for p in model.parameters())
        (model.forward(x) - y).square().mean().backward()
        grads.append([p.grad for p in model.parameters()])
    for without, with_row in zip(*grads):
        np.testing.assert_array_equal(without, with_row)


def test_interrupted_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.bin"
    first = train_strict(small_set_model(), small_set_task(), epochs=1, seed=0)
    save_checkpoint(first, path)
    before = path.read_bytes()

    class FailsHalfway:
        """A file whose write stores half of the bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(_binio, "open", lambda *a, **k: FailsHalfway(open(*a, **k)),
                        raising=False)
    second = train_strict(small_set_model(), small_set_task(), epochs=2, seed=0)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(second, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert np.array_equal(trace_matrix(load_checkpoint(path)), trace_matrix(first))
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_evaluate_uses_best_snapshot_and_projection():
    task = small_set_task()
    run = train_strict(small_set_model(), task, epochs=4, batch_size=16,
                       eta_p=5e-2, seed=0)
    best = run.best_model()
    x, y = task.stacked("test")
    want = float(np.mean((best.forward(x).data - y.data) ** 2))
    assert run.evaluate(task, "test") == pytest.approx(want, rel=1e-12)
    proj = run.evaluate(task, "test", projected=True)
    assert proj != run.evaluate(task, "test") or np.all(run.trace[-1].gammas == 0)


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="mode"):
        TrainConfig(mode="softly")
    with pytest.raises(ValueError, match="eta_p"):
        TrainConfig(eta_p=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="rho"):
        TrainConfig(rho=0.0)
    with pytest.raises(ValueError, match="does not match"):
        train_resilient(small_set_model(), small_set_task(),
                        config=TrainConfig(mode="strict", epochs=0))


def test_mode_default_spectral_norm_resolution():
    assert TrainConfig(mode="strict", epochs=0).spectral_norm is False
    assert TrainConfig(mode="resilient", epochs=0).spectral_norm is True
    assert TrainConfig(mode="resilient", epochs=0, spectral_norm=False).spectral_norm is False
