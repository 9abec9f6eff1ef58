"""Command-line behavior: schema, overrides, artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

import ace.tensor as tensor_mod
from ace.cli import (
    ConfigError,
    apply_overrides,
    main,
    read_trace_csv,
    validate_experiment_config,
    write_plots,
)
from ace.tensor import Tensor


def write_config(tmp_path, name="cfg.json", **changes):
    cfg = {
        "task": {"name": "set_regression", "n_points": 3, "d": 2, "epsilon": 0.5,
                 "n_samples": 60, "seed": 1},
        "model": {"hidden": 4, "n_layers": 2},
        "train": {"mode": "resilient", "epochs": 3, "eta_p": 0.05, "batch_size": 16},
        "out_dir": str(tmp_path / "run"),
    }
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


ARTIFACTS = ("trace.csv", "checkpoint.bin", "summary.txt",
             "gamma.svg", "lambda.svg", "u.svg", "eq_error.svg")


def test_train_writes_all_artifacts_and_is_idempotent(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = tmp_path / "run"
    first = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert main(["train", "--config", str(cfg_path)]) == 0
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == first[name]


def test_zero_epoch_train_logs_exactly_one_row(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--set", "epochs=0"]) == 0
    header, rows = read_trace_csv(tmp_path / "run" / "trace.csv")
    assert len(rows) == 1
    assert rows[0][0] == 0.0
    assert header[:5] == ["step", "loss_train", "loss_val_raw", "loss_val_proj",
                          "eq_error_exact"]
    assert header[5:] == ["gamma_1", "gamma_2", "lambda_1", "lambda_2",
                          "u_1", "u_2", "thm1_refined", "thm2_refined"]


def test_trace_csv_round_trips_float64_exactly(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    from ace.trainer import load_checkpoint

    run = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    _, rows = read_trace_csv(tmp_path / "run" / "trace.csv")
    for row, got in zip(run.trace, rows):
        want = [row.step, row.loss_train, row.loss_val_raw, row.loss_val_proj,
                row.eq_error_exact, *row.gammas, *row.lams, *row.us,
                row.thm1_refined, row.thm2_refined]
        assert got == [float(v) for v in want]


def test_resumed_cli_run_writes_identical_trace(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path),
                 "--set", f"out_dir={tmp_path / 'full'}"]) == 0
    assert main(["train", "--config", str(cfg_path), "--set", "epochs=1",
                 "--set", f"out_dir={tmp_path / 'split'}"]) == 0
    assert main(["train", "--config", str(cfg_path), "--resume",
                 "--set", f"out_dir={tmp_path / 'split'}"]) == 0
    full = (tmp_path / "full" / "trace.csv").read_bytes()
    split = (tmp_path / "split" / "trace.csv").read_bytes()
    assert full == split


def test_plots_are_pure_functions_of_the_trace(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = tmp_path / "run"
    svgs = {n: (out / n).read_bytes() for n in ARTIFACTS if n.endswith(".svg")}
    for name in svgs:
        (out / name).unlink()
    write_plots(out, out / "trace.csv")
    for name, data in svgs.items():
        assert (out / name).read_bytes() == data


def test_unknown_keys_rejected_with_schema_pointer(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, train={"mode": "resilient", "wobble": 3})
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "wobble" in err and "train" in err and "allowed" in err


def test_config_error_cases(tmp_path):
    with pytest.raises(ConfigError, match="task.name"):
        validate_experiment_config({"out_dir": "x"})
    with pytest.raises(ConfigError, match="top-level"):
        validate_experiment_config({"task": {"name": "c4_toy"}, "out_dir": "x",
                                    "extra": 1})
    with pytest.raises(ConfigError, match="out_dir"):
        validate_experiment_config({"task": {"name": "c4_toy"}})
    with pytest.raises(ConfigError, match="must be an integer"):
        validate_experiment_config({"task": {"name": "c4_toy", "n": 1.5},
                                    "out_dir": "x"})
    with pytest.raises(ConfigError, match="must be one of"):
        validate_experiment_config({"task": {"name": "c4_toy", "target": "circle"},
                                    "out_dir": "x"})
    with pytest.raises(ConfigError, match="does not fit task"):
        validate_experiment_config({"task": {"name": "c4_toy"},
                                    "model": {"family": "set"}, "out_dir": "x"})


def test_invalid_json_and_missing_file_exit_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_override_precedence_env_below_set():
    raw = {"task": {"name": "c4_toy"}, "out_dir": "x", "train": {"seed": 5}}
    env_only = apply_overrides(raw, [], env={"ACE_SEED": "99"})
    assert env_only["train"]["seed"] == 99
    both = apply_overrides(raw, ["seed=3"], env={"ACE_SEED": "99"})
    assert both["train"]["seed"] == 3
    untouched = apply_overrides(raw, [], env={})
    assert untouched["train"]["seed"] == 5
    with pytest.raises(ConfigError, match="ACE_SEED"):
        apply_overrides(raw, [], env={"ACE_SEED": "lots"})


def test_override_paths_and_errors():
    raw = {"task": {"name": "set_regression"}, "out_dir": "x"}
    cfg = apply_overrides(raw, ["epsilon=0.25", "train.epochs=7", "hidden=6",
                                "out_dir=elsewhere"], env={})
    assert cfg["task"]["epsilon"] == 0.25
    assert cfg["train"]["epochs"] == 7
    assert cfg["model"]["hidden"] == 6
    assert cfg["out_dir"] == "elsewhere"
    with pytest.raises(ConfigError, match="matches no schema key"):
        apply_overrides(raw, ["nonsense=1"], env={})
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(raw, ["epochs"], env={})


def test_config_file_never_mutated(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    before = cfg_path.read_bytes()
    assert main(["train", "--config", str(cfg_path), "--set", "epochs=0"]) == 0
    assert cfg_path.read_bytes() == before


def test_divergent_run_exits_nonzero_with_step(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path,
                               model={"hidden": 4, "n_layers": 2, "weight_scale": 20.0},
                               train={"mode": "strict", "epochs": 5, "eta_p": 500.0,
                                      "batch_size": 16})
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "diverged at step" in capsys.readouterr().err
    summary = (tmp_path / "run" / "summary.txt").read_text()
    assert "diverged=true" in summary


@pytest.mark.parametrize("mode", ["strict", "resilient"])
def test_overflowing_run_exits_one_and_writes_every_artifact(tmp_path, capsys, mode):
    config = Path(__file__).resolve().parents[1] / "configs" / "broken_set_resilient.json"
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--set", f"train.mode={mode}",
                 "--set", "train.eta_p=1e300", "--set", "train.epochs=3",
                 "--set", f"out_dir={out}"])
    assert code == 1
    assert "training diverged at step 1" in capsys.readouterr().err
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert "thm2_coarse=inf" in (out / "summary.txt").read_text()


def test_penalty_run_with_non_finite_weights_exits_one_and_writes_every_artifact(tmp_path, capsys):
    """Blown-up weights give inf layer constants in the summary, not a ValueError."""
    config = Path(__file__).resolve().parents[1] / "configs" / "broken_set_resilient.json"
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--set", "train.mode=penalty",
                 "--set", "train.eta_p=1e308", "--set", "train.epochs=3",
                 "--set", f"out_dir={out}"])
    assert code == 1
    assert "training diverged at step 1" in capsys.readouterr().err
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert "thm2_refined=inf" in (out / "summary.txt").read_text()


def test_verify_bounds_passes_and_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"family": "mixed", "n_models": 6, "seed": 3,
                               "out_dir": str(tmp_path / "b")}))
    assert main(["verify-bounds", "--config", str(cfg)]) == 0
    report = (tmp_path / "b" / "bounds_report.csv").read_bytes()
    assert main(["verify-bounds", "--config", str(cfg)]) == 0
    assert (tmp_path / "b" / "bounds_report.csv").read_bytes() == report
    lines = report.decode().strip().split("\n")
    assert lines[0] == "sample,seed,family,measured,recursion,refined,coarse,ok"
    assert len(lines) == 1 + 2 * 6
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_bounds_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"family": "hexagonal", "out_dir": str(tmp_path)}))
    assert main(["verify-bounds", "--config", str(cfg)]) == 2
    assert "family" in capsys.readouterr().err


def test_gradcheck_passes_on_library_ops(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    def broken_cases(rng):
        x = Tensor(np.array([1.3, -0.7, 2.1]), requires_grad=True)

        def loss():
            # the scale factor depends on x but is detached from the
            # graph, so reverse mode misses it and central differences
            # see it
            return (x * float(np.sum(x.data))).sum()

        return [("broken_scale", loss, [x])]

    monkeypatch.setattr(tensor_mod, "op_gradcheck_cases", broken_cases)
    assert main(["gradcheck", "--seed", "0"]) == 1
    assert "gradcheck failed" in capsys.readouterr().err


def test_sweep_aggregates_and_continues_past_failures(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, out_dir=str(tmp_path / "sweep"))
    code = main(["sweep", "--config", str(cfg_path), "--param", "rho",
                 "--values", "-1.0", "1.0", "--set", "epochs=1"])
    assert code == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("param,value,status")
    assert len(lines) == 3
    assert ",error," in lines[1]
    assert ",ok," in lines[2]
    assert (tmp_path / "sweep" / "sweep.svg").exists()
    assert (tmp_path / "sweep" / "rho_1" / "trace.csv").exists()
    assert not (tmp_path / "sweep" / "rho_0" / "trace.csv").exists()


def test_sweep_epsilon_requires_set_task(tmp_path, capsys):
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps({
        "task": {"name": "scalar_toy"},
        "train": {"mode": "strict", "epochs": 1},
        "out_dir": str(tmp_path / "s"),
    }))
    code = main(["sweep", "--config", str(cfg_path), "--param", "epsilon",
                 "--values", "0.0"])
    assert code == 2
    assert "set_regression" in capsys.readouterr().err


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg_path), "--param", "epochs",
                 "--values", "1"]) == 2
    assert "sweep param" in capsys.readouterr().err


def test_scalar_toy_config_trains_gamma_to_zero(tmp_path):
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({
        "task": {"name": "scalar_toy", "kind": "strict_kkt", "a": 1.0},
        "train": {"mode": "strict", "epochs": 1200, "eta_p": 0.01, "eval_every": 300},
        "out_dir": str(tmp_path / "toy_run"),
    }))
    assert main(["train", "--config", str(cfg)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "toy_run" / "summary.txt").read_text().splitlines())
    assert float(summary["final_max_abs_gamma"]) <= 1e-2
    header, rows = read_trace_csv(tmp_path / "toy_run" / "trace.csv")
    lam = rows[-1][header.index("lambda_1")]
    assert abs(lam - 2.0) < 5e-2
