import os
import subprocess
import sys

import numpy as np
import pytest

from measim import cli, helper
from measim.cli import main, preset_config
from measim.data import gen_stroke_digits, write_idx_images
from measim.evaluate import eval_policy, write_sweep_csv
from measim.imputer import build_imputer, save_imputer
from measim.masks import MissingDataset, load_missing_csv, save_missing_csv
from measim.training import JointConfig, joint_train, load_config, write_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


@pytest.mark.parametrize("flag", ["--n-train", "--n-test"])
def test_gen_data_mnist_request_larger_than_file(tmp_path, capsys, flag):
    images = gen_stroke_digits(12, seed=1)
    src = tmp_path / "mnist"
    src.mkdir()
    write_idx_images(src / "train-images-idx3-ubyte", images[:8])
    write_idx_images(src / "t10k-images-idx3-ubyte", images[8:])
    out = tmp_path / "out"
    code = main(["gen-data", "--dataset", "mnist12", "--mnist-dir", str(src),
                 flag, "9", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    stem = "train-images" if flag == "--n-train" else "t10k-images"
    count = "8 images" if flag == "--n-train" else "4 images"
    assert stem in err and count in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mnist"]   # nothing written


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


def test_pretrain_refuses_data_with_no_row_observing_two_coordinates(tmp_path, capsys):
    # at 99% missing a row of 100 coordinates observes one
    data = tmp_path / "data"
    assert main(["gen-data", "--dataset", "sin-single", "--missing-rate", "0.99",
                 "--out", str(data), "--n-train", "16", "--n-test", "2"]) == 0
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(missing_rate=0.99), cfg_path)
    capsys.readouterr()
    # train-joint pretrains when given no imputer
    for command in ("pretrain", "train-joint"):
        out = tmp_path / command
        code = main([command, "--data", str(data / "train.csv"), "--config", str(cfg_path),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(data / "train.csv") in err and "two coordinates" in err
        assert not out.exists()


def test_gen_data_observes_what_train_joint_measures_at_any_rate(tmp_path, data_dir):
    # 0.996 of 100 coordinates leaves 0.4 observed; an episode measures one
    data = tmp_path / "sparse"
    assert main(["gen-data", "--dataset", "sin-single", "--missing-rate", "0.996",
                 "--out", str(data), "--n-train", "16", "--n-test", "2"]) == 0
    assert np.all(load_missing_csv(data / "train.csv").masks.sum(axis=1) == 1)
    # a run that leaves the imputer as it is needs no row observing two
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(finetune_iterations=0), cfg_path)
    pre = tmp_path / "pre"
    assert main(["pretrain", "--data", str(data_dir / "train.csv"), "--config",
                 str(cfg_path), "--out", str(pre)]) == 0
    assert main(["train-joint", "--data", str(data / "train.csv"), "--config",
                 str(cfg_path), "--imputer", str(pre / "imputer.ckpt"),
                 "--missing-rate", "0.996", "--ablation", "no-adaptation",
                 "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("ablation", ["full", "no-meta", "no-adaptation"])
def test_train_joint_refuses_to_adapt_on_data_with_no_row_observing_two(
        tmp_path, data_dir, capsys, ablation):
    # the imputer step's self-masking loss would skip every row
    data = tmp_path / "sparse"
    assert main(["gen-data", "--dataset", "sin-single", "--missing-rate", "0.996",
                 "--out", str(data), "--n-train", "16", "--n-test", "2"]) == 0
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    pre = tmp_path / "pre"
    assert main(["pretrain", "--data", str(data_dir / "train.csv"), "--config",
                 str(cfg_path), "--out", str(pre)]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train-joint", "--data", str(data / "train.csv"), "--config",
                 str(cfg_path), "--imputer", str(pre / "imputer.ckpt"),
                 "--missing-rate", "0.996", "--ablation", ablation, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"cannot adapt the imputer on {data / 'train.csv'}" in err
    assert "two coordinates" in err
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("pretrain", {}),
    ("pretrain", {"pretrain_epochs": 0}),
    ("train-joint", {"finetune_iterations": 0}),
    ("eval", {}),
    ("sweep", {}),
    ("baseline", {}),
], ids=["pretrain", "pretrain-no-epochs", "train-joint", "eval", "sweep", "baseline"])
def test_data_file_without_rows_is_usage_error_naming_it(tmp_path, run_dir, capsys,
                                                         command, overrides):
    # a header-only CSV: a training split, or a test split with its truth columns
    test = command in ("eval", "sweep", "baseline")
    empty = np.zeros((0, 100))
    data = tmp_path / "empty.csv"
    save_missing_csv(MissingDataset(empty, empty, empty if test else None), data,
                     include_ground_truth=test)
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(**overrides), cfg_path)
    out = tmp_path / "out"
    imputer = str(run_dir / "imputer.ckpt")
    argv = {
        "pretrain": ["--config", str(cfg_path)],
        "train-joint": ["--config", str(cfg_path), "--imputer", imputer,
                        "--ablation", "no-adaptation"],
        "eval": ["--run", str(run_dir)],
        "sweep": ["--run", str(run_dir), "--rates", "0.9"],
        "baseline": ["--method", "uninform", "--imputer", imputer],
    }[command]
    before = sorted(p.name for p in run_dir.iterdir())
    capsys.readouterr()
    assert main([command, "--data", str(data), "--out", str(out), *argv]) == 1
    assert f"data file has no rows: {data}" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in run_dir.iterdir()) == before


@pytest.mark.parametrize("command", ["pretrain", "eval"])
@pytest.mark.parametrize("content, reason", [
    ("v0,m0\n1.0,2\n", "mask 2.0 is not 0 or 1"),
    ("", "empty file: no header row"),
], ids=["bad-mask", "zero-bytes"])
def test_malformed_data_file_is_usage_error_naming_it(tmp_path, run_dir, capsys,
                                                      command, content, reason):
    data = tmp_path / "bad.csv"
    data.write_text(content)
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    out = tmp_path / "out"
    argv = {"pretrain": ["--config", str(cfg_path)], "eval": ["--run", str(run_dir)]}[command]
    before = sorted(p.name for p in run_dir.iterdir())
    capsys.readouterr()
    assert main([command, "--data", str(data), "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert f"malformed data file {data}" in err
    assert reason in err
    assert not out.exists()
    assert sorted(p.name for p in run_dir.iterdir()) == before


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


BAD_CONFIG_LINES = ("dropout=1.5", "self_mask_fraction=1.5", "gaussian_kernel_sigma=0",
                    "beta=nan", "critic_lr=inf", "iterations=abc", "normalize_advantages=True",
                    "actor_hidden=128,x", "batch_size=3.0")


@pytest.mark.parametrize("command, line", [
    pytest.param(command, line, id=command if line == "dropout=1.5" else f"{command}-{line}")
    for command in ("pretrain", "train-joint") for line in BAD_CONFIG_LINES])
def test_bad_config_value_is_usage_error(tmp_path, data_dir, capsys, command, line):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(line + "\n")
    out = tmp_path / "out"
    code = main([command, "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert line.partition("=")[0] in err and "bad config" in err and str(cfg_path) in err
    assert not out.exists()                 # rejected before any work ran


def test_repeated_config_key_is_usage_error(tmp_path, data_dir, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("iterations=3\niterations=5\n")
    out = tmp_path / "out"
    code = main(["train-joint", "--data", str(data_dir / "train.csv"),
                 "--out", str(out), "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"bad config {cfg_path}" in err and "'iterations' set twice" in err
    assert not out.exists()


def test_eval_of_a_run_with_a_bad_config_names_it(run_dir, data_dir, capsys):
    # the same usage error as a bad --config, naming the run's config file
    with open(run_dir / "config.txt", "a") as f:
        f.write("bogus=1\n")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "test.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"bad config {run_dir / 'config.txt'}" in err
    assert "unknown config key 'bogus'" in err


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


@pytest.mark.parametrize("mode", ["greedy", "stochastic"])
def test_eval_of_a_run_directory_equals_the_in_memory_policy(tmp_path, data_dir, mode,
                                                             monkeypatch):
    # the checkpoints reload to the very nets training ended with, in their
    # own float32 dtype and parameter bytes, so evaluating the run reproduces
    # every bit
    cfg = tiny_cfg()
    run = tmp_path / "run"
    policy, imputer, _ = joint_train(cfg, load_missing_csv(data_dir / "train.csv"),
                                     out_dir=run)
    report = eval_policy(policy, imputer, load_missing_csv(data_dir / "test.csv"),
                         cfg.missing_rate, k=2, n_seeds=2, eval_mode=mode,
                         trained_rate=cfg.missing_rate)
    write_sweep_csv(report, tmp_path / "in_memory.csv")
    loaded = []

    def spy(subject, imp, *args, **kwargs):
        loaded.append((subject, imp))
        return eval_policy(subject, imp, *args, **kwargs)

    monkeypatch.setattr(cli, "eval_policy", spy)
    assert main(["eval", "--run", str(run), "--data", str(data_dir / "test.csv"),
                 "--k", "2", "--n-seeds", "2", "--mode", mode]) == 0
    assert (run / "eval.csv").read_bytes() == (tmp_path / "in_memory.csv").read_bytes()
    [(back, back_imputer)] = loaded
    for mine, theirs in ((policy.actor, back.actor), (policy.critic, back.critic),
                         (imputer.net, back_imputer.net)):
        assert theirs.dtype == mine.dtype == np.float32
        assert [p.tobytes() for p in theirs.params()] == [p.tobytes() for p in mine.params()]


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_swapped_checkpoint_is_usage_error_naming_it(tmp_path, run_dir, data_dir, capsys,
                                                     command):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    pre = tmp_path / "pre"
    assert main(["pretrain", "--data", str(data_dir / "train.csv"),
                 "--out", str(pre), "--config", str(cfg_path)]) == 0
    (run_dir / "imputer.ckpt").write_bytes((pre / "imputer.ckpt").read_bytes())
    before = sorted(p.name for p in run_dir.iterdir())
    capsys.readouterr()
    out = tmp_path / "report.csv"
    rates = ["--rates", "0.9"] if command == "sweep" else []
    code = main([command, "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 *rates, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(run_dir / "imputer.ckpt") in err and "checksum" in err
    assert not out.exists()
    assert sorted(p.name for p in run_dir.iterdir()) == before


def test_eval_without_run_log_names_it(run_dir, data_dir, capsys):
    os.remove(run_dir / "run.csv")
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "test.csv")])
    assert code == 1
    assert "run.csv" in capsys.readouterr().err


def test_train_joint_rejects_data_of_another_missing_rate(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--dataset", "sin-single", "--seed", "5", "--missing-rate",
                 "0.8", "--out", str(data), "--n-train", "8", "--n-test", "2"]) == 0
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)                 # trains at 0.9
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train-joint", "--data", str(data / "train.csv"),
                 "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing-rate mismatch" in err and "0.8" in err and "0.9" in err
    assert str(data / "train.csv") in err
    assert not out.exists()
    # the same data at its own rate trains
    assert main(["train-joint", "--data", str(data / "train.csv"), "--config",
                 str(cfg_path), "--missing-rate", "0.8", "--out", str(out)]) == 0


def test_eval_rejects_data_without_ground_truth(run_dir, data_dir, capsys):
    code = main(["eval", "--run", str(run_dir), "--data", str(data_dir / "train.csv")])
    assert code == 1
    assert "ground-truth" in capsys.readouterr().err


# how a file goes bad: its bytes from its own, or from the run's other files
CORRUPT = {
    "truncated": lambda raw, run: raw[:-4],
    "garbage": lambda raw, run: b"not a checkpoint",
    "actor": lambda raw, run: (run / "actor.ckpt").read_bytes(),
    "critic": lambda raw, run: (run / "critic.ckpt").read_bytes(),
    "schema": lambda raw, run: b"iteration,reward\n0,1.0\n",
    "row": lambda raw, run: raw.replace(b"\n0,", b"\n0,x", 1),
}


MALFORMED = [
    ("eval", "actor.ckpt", "garbage", "bad checkpoint magic"),
    ("eval", "actor.ckpt", "truncated", "truncated checkpoint"),
    ("eval", "critic.ckpt", "garbage", "bad checkpoint magic"),
    ("eval", "actor.ckpt", "critic", "not an actor checkpoint"),
    ("eval", "imputer.ckpt", "actor", "not an imputer checkpoint"),
    ("sweep", "imputer.ckpt", "truncated", "truncated checkpoint"),
    ("train-joint", "imputer.ckpt", "garbage", "bad checkpoint magic"),
    ("train-joint", "imputer.ckpt", "actor", "not an imputer checkpoint"),
    ("baseline", "imputer.ckpt", "truncated", "truncated checkpoint"),
    ("baseline", "imputer.ckpt", "actor", "not an imputer checkpoint"),
    ("eval", "run.csv", "schema", "is not a run log"),
    ("sweep", "run.csv", "row", "could not convert"),
]


@pytest.mark.parametrize("command, name, how, reason", MALFORMED,
                         ids=[f"{c}-{n}-{h}" for c, n, h, _ in MALFORMED])
def test_malformed_model_or_run_log_is_usage_error_naming_it(tmp_path, run_dir, data_dir,
                                                            capsys, command, name, how,
                                                            reason):
    # a file passed as --imputer is a copy outside the run; the others sit in --run
    takes_imputer = command in ("train-joint", "baseline")
    bad = tmp_path / name if takes_imputer else run_dir / name
    bad.write_bytes(CORRUPT[how]((run_dir / name).read_bytes(), run_dir))
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    out = tmp_path / "out"
    split = "train.csv" if command == "train-joint" else "test.csv"
    argv = [command, "--data", str(data_dir / split), "--out", str(out), *{
        "eval": ["--run", str(run_dir)],
        "sweep": ["--run", str(run_dir), "--rates", "0.9"],
        "train-joint": ["--config", str(cfg_path), "--imputer", str(bad)],
        "baseline": ["--method", "uninform", "--imputer", str(bad)],
    }[command]]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and reason in err
    assert "ValueError" not in err
    if name in ("actor.ckpt", "critic.ckpt"):   # the policy's two files, named together
        assert str(run_dir / "actor.ckpt") in err and str(run_dir / "critic.ckpt") in err
    assert not out.exists()


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


def test_sweep_at_defaults_starts_one_helper(run_dir, data_dir, monkeypatch):
    # 5 rates x 3 methods evaluate on one helper, started on first use, sent
    # one request per method: its tasks over all five rates
    monkeypatch.setattr(helper, "core_for_helper", lambda: True)
    started, sent = [], []
    real = helper.Helper
    real_send = real.send
    monkeypatch.setattr(real, "send", lambda self, fn, *args: sent.append(fn.__name__)
                        or real_send(self, fn, *args))
    monkeypatch.setattr(helper, "Helper", lambda name: started.append(name) or real(name))
    helper.stop()   # the one run_dir's train-joint started
    assert main(["sweep", "--run", str(run_dir), "--data", str(data_dir / "test.csv")]) == 0
    assert len((run_dir / "sweep.csv").read_text().splitlines()) == 2 + 5 * 3 * 3
    assert started == [helper.NAME]
    assert sent == ["_run_tasks"] * 3


def running_with(text: str) -> list[int]:
    """Pids of the live processes whose command line holds text."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if text.encode() in f.read():
                    pids.append(int(pid))
        except OSError:
            pass
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.skipif(not helper.core_for_helper(), reason="no core for a forked helper")
def test_sweep_leaves_no_process_once_it_exits(run_dir, data_dir):
    # the helper, forked with the command's own command line, ends with it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "measim.cli", "sweep", "--run", str(run_dir),
                           "--data", str(data_dir / "test.csv"), "--rates", "0.8,0.9"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert running_with(str(run_dir)) == []


def test_sweep_rejects_unknown_method(run_dir, data_dir, capsys):
    code = main(["sweep", "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 "--methods", "oracle", "--rates", "0.5"])
    assert code == 1
    assert "oracle" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, named", [
    ("eval", ["--k", "0"], "--k"),
    ("eval", ["--n-seeds", "0"], "--n-seeds"),
    ("eval", ["--missing-rate", "1.0"], "--missing-rate"),
    ("eval", ["--missing-rate", "-0.1"], "--missing-rate"),
    ("sweep", ["--rates", "0.5,1.0"], "--rates"),
    ("sweep", ["--rates", "-0.2"], "--rates"),
    ("sweep", ["--rates", "0.5,x"], "--rates"),
    ("sweep", ["--k", "0"], "--k"),
    ("sweep", ["--explicit-k", "1"], "--explicit-k"),
    ("sweep", ["--methods", "proposed,bogus"], "bogus"),
    ("baseline", ["--method", "explicit", "--explicit-k", "1"], "--explicit-k"),
    ("baseline", ["--method", "uninform", "--missing-rate", "1.5"], "--missing-rate"),
    ("baseline", ["--method", "uninform", "--n-seeds", "0"], "--n-seeds"),
    ("eval", ["--seed", "-1"], "--seed"),
    ("sweep", ["--seed", "-1"], "--seed"),
    ("baseline", ["--method", "uninform", "--seed", "-1"], "--seed"),
    ("pretrain", ["--seed", "-1"], "--seed"),
    ("train-joint", ["--seed", "-1"], "--seed"),
    ("grad-check", ["--seed", "-1"], "--seed"),
    ("grad-check", ["--nets", "0"], "--nets"),
    ("eval", ["--explicit-k", "2"], "--explicit-k"),
])
def test_bad_eval_flags_are_usage_errors_before_any_work(tmp_path, capsys, command,
                                                         flags, named):
    # every input file is missing: the flag must be rejected before any is read,
    # and nothing is written, a run directory included
    data = ["--data", str(tmp_path / "test.csv")]
    paths = {"eval": ["--run", str(tmp_path / "run"), *data],
             "sweep": ["--run", str(tmp_path / "run"), *data],
             "baseline": ["--imputer", str(tmp_path / "imp.ckpt"), *data],
             "pretrain": ["--out", str(tmp_path / "run"), *data],
             "train-joint": ["--out", str(tmp_path / "run"), *data],
             "grad-check": []}[command]
    code = main([command, *paths, *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert named in err
    assert "missing file" not in err and "missing checkpoint" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [
    ["--missing-rate", "1.0"],
    ["--missing-rate", "nan"],
    ["--n-train", "-1"],
    ["--n-train", "0"],
    ["--n-test", "0"],
    ["--seed", "-1"],
])
def test_gen_data_rejects_bad_rate_size_or_seed(tmp_path, capsys, flags):
    code = main(["gen-data", "--dataset", "sin-single", "--out", str(tmp_path / "d"), *flags])
    assert code == 1
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_sweep_without_explicit_ignores_explicit_k(run_dir, data_dir):
    code = main(["sweep", "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 "--methods", "proposed", "--rates", "0.9", "--k", "1", "--n-seeds", "1",
                 "--explicit-k", "1"])
    assert code == 0
    rows = (run_dir / "sweep.csv").read_text().splitlines()[2:]
    assert {r.split(",")[0] for r in rows} == {"proposed"}


def test_sweep_rejects_unknown_method_before_evaluating(run_dir, data_dir, capsys,
                                                       monkeypatch):
    evaluated = []
    monkeypatch.setattr(cli, "sweep_missing_rates",
                        lambda subject, *a, **k: evaluated.append(k["method"]))
    code = main(["sweep", "--run", str(run_dir), "--data", str(data_dir / "test.csv"),
                 "--methods", "proposed,bogus", "--rates", "0.9"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err
    assert evaluated == []


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


@pytest.mark.parametrize("command", ["baseline", "train-joint", "eval"])
def test_directory_in_place_of_a_file_is_usage_error_naming_it(tmp_path, run_dir, data_dir,
                                                               capsys, command):
    adir = tmp_path / "adir"
    adir.mkdir()
    out = tmp_path / "out"
    argv = {
        "baseline": ["--method", "uninform", "--imputer", str(adir),
                     "--data", str(data_dir / "test.csv")],
        "train-joint": ["--config", str(adir), "--data", str(data_dir / "train.csv")],
        "eval": ["--run", str(run_dir), "--data", str(adir)],
    }[command]
    capsys.readouterr()
    assert main([command, "--out", str(out), *argv]) == 1
    assert f"is not a regular file: {adir}" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_ground_truth_is_usage_error_naming_it(tmp_path, run_dir, data_dir,
                                                          capsys):
    header, first, *rest = (data_dir / "test.csv").read_text().splitlines()
    data = tmp_path / "nan-truth.csv"
    data.write_text("\n".join([header, first.rpartition(",")[0] + ",nan", *rest]) + "\n")
    out = tmp_path / "base.csv"
    capsys.readouterr()
    assert main(["baseline", "--method", "uninform", "--data", str(data),
                 "--imputer", str(run_dir / "imputer.ckpt"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"malformed data file {data}: row 0, column 99: ground truth nan" in err
    assert not out.exists()


@pytest.fixture
def narrow_data(tmp_path, data_dir):
    """data_dir's splits cut to their first 50 of 100 coordinates."""
    out = tmp_path / "narrow"
    out.mkdir()
    for name, with_truth in (("train.csv", False), ("test.csv", True)):
        ds = load_missing_csv(data_dir / name)
        truth = ds.ground_truth[:, :50] if with_truth else None
        save_missing_csv(MissingDataset(ds.values[:, :50], ds.masks[:, :50], truth),
                         out / name, include_ground_truth=with_truth)
    return out


@pytest.mark.parametrize("command", ["eval", "sweep", "baseline", "train-joint"])
def test_width_mismatch_is_usage_error_naming_both_files(tmp_path, run_dir, narrow_data,
                                                         capsys, command):
    cfg_path = tmp_path / "config.txt"
    write_config(tiny_cfg(), cfg_path)
    out = tmp_path / "out"
    model = run_dir / ("imputer.ckpt" if command in ("baseline", "train-joint")
                       else "actor.ckpt")
    data = narrow_data / ("train.csv" if command == "train-joint" else "test.csv")
    argv = {
        "eval": ["eval", "--run", str(run_dir), "--data", str(data), "--out", str(out)],
        "sweep": ["sweep", "--run", str(run_dir), "--data", str(data),
                  "--rates", "0.9", "--out", str(out)],
        "baseline": ["baseline", "--method", "explicit", "--data", str(data),
                     "--imputer", str(model), "--out", str(out)],
        "train-joint": ["train-joint", "--data", str(data), "--imputer", str(model),
                        "--config", str(cfg_path), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "dimension mismatch" in err
    assert f"{model} is 100 coordinates wide" in err and f"{data} is 50" in err
    # nothing written, a half-made run directory included
    assert not out.exists()


def test_eval_rejects_run_whose_models_differ_in_width(tmp_path, run_dir, data_dir, capsys):
    save_imputer(build_imputer(50, "sinusoid", noise_dim=3, hidden=(16,),
                               rng=np.random.default_rng(0)), run_dir / "imputer.ckpt")
    assert main(["eval", "--run", str(run_dir), "--data", str(data_dir / "test.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{run_dir / 'actor.ckpt'} is 100 coordinates wide" in err
    assert f"{run_dir / 'imputer.ckpt'} is 50" in err


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
