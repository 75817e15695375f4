"""scripts/run_experiment.py runs end to end and fails cleanly without data."""

import importlib.util
import os

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
