import os

import numpy as np
import pytest

from measim.cli import main, preset_config
from measim.data import gen_stroke_digits, write_idx_images
from measim.masks import load_missing_csv
from measim.training import JointConfig, load_config, write_config


def tiny_cfg(**overrides) -> JointConfig:
    base = dict(
        missing_rate=0.9,
        seed=3,
        beta=0.05,
        batch_size=8,
        iterations=2,
        early_stop_window=0,
        noise_dim=3,
        imputer_hidden=(16,),
        pretrain_epochs=2,
        pretrain_batch=8,
        actor_hidden=(16,),
        critic_hidden=(8,),
        finetune_iterations=1,
    )
    base.update(overrides)
    return JointConfig(**base)


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["gen-data", "--dataset", "sin-single", "--seed", "5",
                 "--out", str(out), "--n-train", "24", "--n-test", "8"])
    assert code == 0
    return out


@pytest.fixture
def run_dir(tmp_path, data_dir):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    out = tmp_path / "run"
    code = main(["train-joint", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path)])
    assert code == 0
    return out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    code = main(["gen-data", "--dataset", "sin-single", "--out", "x", "--bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_bad_choice_is_usage_error(capsys):
    assert main(["gen-data", "--dataset", "cifar", "--out", "x"]) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


def test_gen_data_writes_both_splits(data_dir):
    train = load_missing_csv(data_dir / "train.csv")
    test = load_missing_csv(data_dir / "test.csv")
    assert len(train) == 24 and train.ground_truth is None
    assert len(test) == 8 and test.ground_truth is not None
    assert train.dim == 100
    # 90% missing leaves 10 observed coordinates per row
    assert np.all(train.masks.sum(axis=1) == 10)


def test_gen_data_is_deterministic(tmp_path):
    args = ["gen-data", "--dataset", "sin-single", "--seed", "7",
            "--n-train", "6", "--n-test", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("train.csv", "test.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_data_mnist_requires_source(capsys, monkeypatch):
    monkeypatch.delenv("MEASIM_MNIST_DIR", raising=False)
    assert main(["gen-data", "--dataset", "mnist12", "--out", "x"]) == 1
    assert "mnist" in capsys.readouterr().err.lower()


def test_gen_data_mnist_from_idx_files(tmp_path):
    images = gen_stroke_digits(12, seed=1)
    src = tmp_path / "mnist"
    src.mkdir()
    write_idx_images(src / "train-images-idx3-ubyte", images[:8])
    write_idx_images(src / "t10k-images-idx3-ubyte", images[8:])
    out = tmp_path / "out"
    code = main(["gen-data", "--dataset", "mnist12", "--mnist-dir", str(src),
                 "--missing-rate", "0.85", "--out", str(out)])
    assert code == 0
    train = load_missing_csv(out / "train.csv")
    assert train.dim == 144 and len(train) == 8


def test_gen_data_mnist_names_missing_file(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    code = main(["gen-data", "--dataset", "mnist12", "--mnist-dir", str(src),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "train-images-idx3-ubyte" in capsys.readouterr().err


def test_pretrain_writes_artifacts(tmp_path, data_dir):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    out = tmp_path / "pre"
    code = main(["pretrain", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path)])
    assert code == 0
    assert (out / "imputer.ckpt").exists()
    lines = (out / "pretrain.csv").read_text().splitlines()
    assert lines[0] == "# measim-pretrain v1"
    assert lines[1] == "epoch,loss"
    assert len(lines) == 2 + 2  # two epochs


def test_pretrain_zero_epochs_writes_untrained_checkpoint(tmp_path, data_dir, capsys):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(pretrain_epochs=0), cfg_path)
    out = tmp_path / "pre"
    code = main(["pretrain", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path)])
    assert code == 0
    assert (out / "imputer.ckpt").exists()
    lines = (out / "pretrain.csv").read_text().splitlines()
    assert lines == ["# measim-pretrain v1", "epoch,loss"]
    printed = capsys.readouterr().out
    assert "pretrained 0 epochs" in printed and "final loss" not in printed


def test_train_joint_run_directory(run_dir):
    for name in ("config.txt", "run.csv", "actor.ckpt", "critic.ckpt", "imputer.ckpt"):
        assert (run_dir / name).exists(), name


def test_train_joint_accepts_pretrained_imputer(tmp_path, data_dir):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    pre = tmp_path / "pre"
    assert main(["pretrain", "--data", str(data_dir / "train.csv"),
                 "--out", str(pre), "--config", str(cfg_path)]) == 0
    out = tmp_path / "run2"
    code = main(["train-joint", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path),
                 "--imputer", str(pre / "imputer.ckpt")])
    assert code == 0


def test_ablation_flag_maps_to_config(tmp_path, data_dir):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    out = tmp_path / "run_nm"
    code = main(["train-joint", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path),
                 "--ablation", "no-meta"])
    assert code == 0
    saved = load_config(out / "config.txt")
    assert saved.ablation == "no_meta"
    assert saved.beta_prime == 0.0


def test_flag_overrides_config_file(tmp_path, data_dir):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(seed=3), cfg_path)
    out = tmp_path / "run_seed"
    code = main(["train-joint", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path), "--seed", "99"])
    assert code == 0
    assert load_config(out / "config.txt").seed == 99


@pytest.mark.parametrize("command", ["pretrain", "train-joint"])
def test_bad_config_value_is_usage_error(tmp_path, data_dir, capsys, command):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("dropout=1.5\n")
    out = tmp_path / "out"
    code = main([command, "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "dropout" in err and str(cfg_path) in err
    assert not out.exists()                 # rejected before any work ran


def test_eval_without_checkpoint_names_file(tmp_path, data_dir, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = main(["eval", "--run", str(empty), "--data", str(data_dir / "test.csv")])
    assert code == 1
    assert "config.txt" in capsys.readouterr().err


def test_eval_missing_actor_named(tmp_path, run_dir, data_dir, capsys):
    os.remove(run_dir / "actor.ckpt")
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "test.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "actor.ckpt" in err and "checkpoint" in err


def test_eval_writes_report(run_dir, data_dir, capsys):
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 "--k", "2", "--n-seeds", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "proposed" in out and "top1=" in out
    assert (run_dir / "eval.csv").exists()


def test_eval_rejects_data_without_ground_truth(run_dir, data_dir, capsys):
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "train.csv")])
    assert code == 1
    assert "ground-truth" in capsys.readouterr().err


def test_corrupt_checkpoint_is_runtime_failure(run_dir, data_dir, capsys):
    (run_dir / "actor.ckpt").write_bytes(b"not a checkpoint")
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "test.csv")])
    assert code == 2


def test_sweep_covers_methods_and_rates(run_dir, data_dir):
    out = run_dir / "sweep.csv"
    code = main(["sweep", "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 "--rates", "0.0,0.9", "--k", "1", "--n-seeds", "1",
                 "--explicit-k", "2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# measim-sweep v1"
    rows = [l.split(",") for l in lines[2:]]
    methods = {r[0] for r in rows}
    assert methods == {"proposed", "uninform", "explicit"}
    assert len(rows) == 3 * 2  # three methods, two rates, one seed
    zero_rate = [r for r in rows if float(r[2]) == 0.0]
    assert all(float(r[3]) == 0.0 for r in zero_rate)


def test_sweep_rejects_unknown_method(run_dir, data_dir, capsys):
    code = main(["sweep", "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 "--methods", "oracle", "--rates", "0.5"])
    assert code == 1
    assert "oracle" in capsys.readouterr().err


def test_baseline_uninform(run_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "base.csv"
    code = main(["baseline", "--method", "uninform", "--data", str(data_dir / "test.csv"),
                 "--imputer", str(run_dir / "imputer.ckpt"),
                 "--missing-rate", "0.9", "--k", "2", "--n-seeds", "1",
                 "--out", str(out)])
    assert code == 0
    assert "uninform" in capsys.readouterr().out
    assert out.exists()


def test_baseline_missing_imputer(data_dir, tmp_path, capsys):
    code = main(["baseline", "--method", "explicit", "--data", str(data_dir / "test.csv"),
                 "--imputer", str(tmp_path / "nope.ckpt")])
    assert code == 1
    assert "nope.ckpt" in capsys.readouterr().err


def test_grad_check_passes(capsys):
    code = main(["grad-check", "--nets", "1", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "passed" in out


def test_preset_config_variants():
    assert preset_config("mnist12").variant == "image"
    assert preset_config("mnist12").smoothness_weight == 0.0
    assert preset_config("sin-single").variant == "sinusoid"
    assert preset_config("sin-double").smoothness_weight > 0.0
