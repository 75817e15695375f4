"""The experiment scripts under scripts/ import and fail cleanly without data."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_sinusoid_imports():
    assert callable(load_script("run_sinusoid").main)


def test_run_mnist12_names_missing_file(tmp_path, capsys):
    code = load_script("run_mnist12").main(["--mnist-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"missing file: {tmp_path / 'train-images-idx3-ubyte'}" in err
