import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from measim import cli, helper

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
needs_openblas = pytest.mark.skipif(helper.blas_threads() is None,
                                    reason="NumPy's BLAS is not an OpenBLAS")


def core_free(monkeypatch, free: bool) -> None:
    """Make helper.start see a free CPU core for a helper process, or none."""
    monkeypatch.setattr(helper, "core_for_helper", lambda: free)


def test_start_without_a_core_computes_in_send_and_answers_in_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("helper process started")

    core_free(monkeypatch, False)
    monkeypatch.setattr(helper, "Helper", refuse)
    asked = []

    def handle(request):
        asked.append((request, os.getpid()))
        return 10 * request

    with helper.start("measim-test", handle) as side:
        side.send(1)
        side.send(2)
        # each reply is formed when its request is sent, in this process
        assert asked == [(1, os.getpid()), (2, os.getpid())]
        assert side.recv() == 10
        side.send(3)
        assert [side.recv(), side.recv()] == [20, 30]
        assert multiprocessing.active_children() == []


def test_start_without_a_core_raises_handler_errors_from_send(monkeypatch):
    core_free(monkeypatch, False)

    def handle(request):
        if request == "bad":
            raise ValueError("bad request on purpose")
        return request

    side = helper.start("measim-test", handle)
    side.send("good")
    with pytest.raises(ValueError) as caught:
        side.send("bad")
    assert type(caught.value) is ValueError
    assert str(caught.value) == "bad request on purpose"
    assert side.recv() == "good"


def test_start_without_a_core_closes_on_leaving_with(monkeypatch):
    core_free(monkeypatch, False)
    side = helper.start("measim-test", lambda request: request)
    closed = []
    monkeypatch.setattr(type(side), "close", lambda self: closed.append(self))
    with pytest.raises(KeyboardInterrupt):
        with side as entered:
            assert entered is side
            raise KeyboardInterrupt
    assert closed == [side]


def test_start_with_a_core_forks_a_named_helper(monkeypatch):
    core_free(monkeypatch, True)
    with helper.start("measim-test", lambda request: (request, os.getpid())) as side:
        assert isinstance(side, helper.Helper)
        assert [p.name for p in multiprocessing.active_children()] == ["measim-test"]
        side.send(1)
        side.send(2)
        first, second = side.recv(), side.recv()
        assert (first[0], second[0]) == (1, 2)
        assert first[1] == second[1] != os.getpid()
    assert multiprocessing.active_children() == []


def python_with_threads(threads, code: str, *args) -> str:
    """Run code in a new interpreter whose BLAS thread variables read
    threads (None: unset), with measim importable; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@needs_openblas
@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.parametrize("threads", [1, 2])
def test_importing_measim_leaves_the_blas_as_the_environment_set_it(threads):
    # measim.cli imports every module of the package
    code = "import measim.cli, measim.helper; print(measim.helper.blas_threads())"
    assert python_with_threads(threads, code).strip() == str(threads)


COMMAND = """import sys
from measim import cli, helper
code = cli.main(sys.argv[1:])
print(helper.core_for_helper())
sys.exit(code)
"""


@needs_openblas
def test_the_command_line_pins_the_blas_and_writes_the_same_bytes(tmp_path):
    # unset, OpenBLAS starts a thread per CPU; the command line pins it to one
    # whatever the variables say, so the helpers fork on two CPUs, and the
    # thread count the variables asked for changes no output byte
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--dataset", "sin-single", "--missing-rate", "0.8",
                     "--n-train", "64", "--n-test", "8", "--out", str(data)]) == 0
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("pretrain_epochs=2\niterations=3\n")
    files = ["pre/imputer.ckpt", "pre/pretrain.csv", "run/run.csv", "run/actor.ckpt",
             "run/critic.ckpt", "run/imputer.ckpt", "run/environment.json"]
    written = {}
    for threads in (None, 1, 2):
        out = tmp_path / f"threads-{threads}"
        forked = [python_with_threads(threads, COMMAND, "pretrain", "--data",
                                      data / "train.csv", "--config", cfg,
                                      "--out", out / "pre"),
                  python_with_threads(threads, COMMAND, "train-joint", "--data",
                                      data / "train.csv", "--config", cfg,
                                      "--imputer", out / "pre" / "imputer.ckpt",
                                      "--missing-rate", "0.8", "--out", out / "run")]
        assert [f.splitlines()[-1] for f in forked] == [str(CPUS >= 2)] * 2
        env = json.loads((out / "run" / "environment.json").read_text())
        assert env["blas_threads"] == 1
        written[threads] = {name: (out / name).read_bytes() for name in files}
    assert written[1] == written[None]
    assert written[2] == written[None]
