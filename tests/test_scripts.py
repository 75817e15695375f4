"""scripts/run_experiment.py runs end to end, fails cleanly without data and
writes what the CLI pipeline writes."""

import importlib.util
import os

from measim.cli import main

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_experiment.py")


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiment_names_missing_mnist_file(tmp_path, capsys):
    code = load_script().main(["--dataset", "mnist12", "--mnist-dir", str(tmp_path),
                               "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"missing file: {tmp_path / 'train-images-idx3-ubyte'}" in err
    assert not (tmp_path / "out").exists()


def test_run_experiment_trains_ablations_and_sweeps(tmp_path):
    out = tmp_path / "out"
    code = load_script().main(["--dataset", "sin-single", "--rates", "0.9",
                               "--eval-rates", "0.8,0.9", "--ablations",
                               "--iterations", "2", "--n-train", "16", "--n-test", "6",
                               "--n-seeds", "2", "--out", str(out)])
    assert code == 0
    for ablation in ("full", "no_meta", "no_adaptation"):
        for name in ("config.txt", "run.csv", "actor.ckpt", "critic.ckpt", "imputer.ckpt"):
            assert (out / f"{ablation}-0.9" / name).exists()
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# measim-sweep v1"
    rows = [line.split(",") for line in lines[2:]]
    methods = ["proposed", "uninform", "explicit", "no_meta", "no_adaptation"]
    # per method, in this order: each evaluation rate, each seed
    assert [(r[0], r[1], r[2], r[6]) for r in rows] == [
        (m, "0.9", rate, seed) for m in methods for rate in ("0.8", "0.9")
        for seed in ("0", "1")]


def test_run_experiment_checks_every_rate_before_any_work(tmp_path, capsys):
    # at 99% missing a row of 100 coordinates observes one: nothing to pretrain
    # on, and 0.8's work must not start either
    out = tmp_path / "out"
    code = load_script().main(["--dataset", "sin-single", "--rates", "0.8,0.99",
                               "--iterations", "1", "--n-train", "16", "--n-test", "6",
                               "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot train at rate 0.99:")
    assert "two coordinates" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_run_experiment_writes_the_cli_pipelines_bytes(tmp_path):
    # gen-data, train-joint (pretraining at the preset's epochs) and a sweep of
    # the proposed policy give what the script gives for the same data and seed
    out = tmp_path / "exp"
    sizes = ["--n-train", "64", "--n-test", "16", "--seed", "4"]
    assert load_script().main(["--dataset", "sin-single", "--rates", "0.8", "--iterations",
                               "3", "--n-seeds", "2", *sizes, "--out", str(out)]) == 0
    data, run = tmp_path / "data", tmp_path / "run"
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("iterations=3\n")
    assert main(["gen-data", "--dataset", "sin-single", "--missing-rate", "0.8", *sizes,
                 "--out", str(data)]) == 0
    assert main(["train-joint", "--data", str(data / "train.csv"), "--config", str(cfg_path),
                 "--missing-rate", "0.8", "--seed", "4", "--out", str(run)]) == 0
    assert main(["sweep", "--run", str(run), "--data", str(data / "test.csv"), "--methods",
                 "proposed", "--rates", "0.8", "--n-seeds", "2", "--seed", "4"]) == 0
    for name in ("run.csv", "imputer.ckpt"):
        assert (out / "full-0.8" / name).read_bytes() == (run / name).read_bytes(), name
    script_rows = (out / "sweep.csv").read_text().splitlines()
    cli_rows = (run / "sweep.csv").read_text().splitlines()
    assert len(cli_rows) == 2 + 2
    assert [r for r in script_rows if not r.startswith(("uninform", "explicit"))] == cli_rows
