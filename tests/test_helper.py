import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from measim import cli, helper

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
needs_openblas = pytest.mark.skipif(helper.blas_threads() is None,
                                    reason="NumPy's BLAS is not an OpenBLAS")


def core_free(monkeypatch, free: bool) -> None:
    """Make the helper's first use see a free CPU core for a helper process,
    or none."""
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

    with helper.use() as side:
        side.send(handle, 1)
        side.send(handle, 2)
        # each reply is formed when its request is sent, in this process
        assert asked == [(1, os.getpid()), (2, os.getpid())]
        assert side.recv() == 10
        side.send(handle, 3)
        assert [side.recv(), side.recv()] == [20, 30]
        assert multiprocessing.active_children() == []
    # the first use chose the stand-in, and later uses keep it
    core_free(monkeypatch, True)
    with helper.use() as again:
        assert again is side


def test_start_without_a_core_raises_handler_errors_from_send(monkeypatch):
    core_free(monkeypatch, False)

    def handle(request):
        if request == "bad":
            raise ValueError("bad request on purpose")
        return request

    with helper.use() as side:
        side.send(handle, "good")
        with pytest.raises(ValueError) as caught:
            side.send(handle, "bad")
        assert type(caught.value) is ValueError
        assert str(caught.value) == "bad request on purpose"
        assert side.recv() == "good"


def interrupt_after(monkeypatch, pending: bool) -> list:
    """Interrupt a use() block after one request, with its reply pending or
    taken; return the stand-ins closed."""
    closed = []
    real = helper._InProcess.close
    monkeypatch.setattr(helper._InProcess, "close",
                        lambda self: closed.append(self) or real(self))
    with pytest.raises(KeyboardInterrupt):
        with helper.use() as side:
            side.send(abs, -1)
            if not pending:
                assert side.recv() == 1
            raise KeyboardInterrupt
    return closed


def test_start_without_a_core_closes_on_leaving_with(monkeypatch):
    # an interrupt between a request and its reply stops the helper, and the
    # next use starts another
    core_free(monkeypatch, False)
    with helper.use() as side:
        pass
    assert interrupt_after(monkeypatch, pending=True) == [side]
    with helper.use() as again:
        assert again is not side


def test_an_interrupt_after_the_reply_keeps_the_helper(monkeypatch):
    core_free(monkeypatch, False)
    with helper.use() as side:
        pass
    assert interrupt_after(monkeypatch, pending=False) == []
    with helper.use() as again:
        assert again is side


def child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


def test_start_with_a_core_forks_a_named_helper(monkeypatch):
    core_free(monkeypatch, True)
    with helper.use() as side:
        assert isinstance(side, helper.Helper)
        assert [p.name for p in multiprocessing.active_children()] == [helper.NAME]
        side.send(abs, -1)
        side.send(os.getpid)
        assert side.recv() == 1
        pid = side.recv()
    # alive between uses, and the next use reuses it
    assert child_pids() == [pid] != [os.getpid()]
    with helper.use() as again:
        again.send(os.getpid)
        assert again is side and again.recv() == pid
    helper.stop()
    assert multiprocessing.active_children() == []
    with helper.use() as fresh:
        fresh.send(os.getpid)
        assert fresh is not side and fresh.recv() not in (pid, os.getpid())


@pytest.mark.parametrize("outcome", ["helper error", "interrupt"])
def test_a_forked_helper_stops_when_a_reply_is_lost(monkeypatch, outcome):
    core_free(monkeypatch, True)
    with pytest.raises(ValueError if outcome == "helper error" else KeyboardInterrupt):
        with helper.use() as side:
            if outcome == "helper error":
                side.send(int, "not a number")
                side.recv()
            side.send(os.getpid)
            raise KeyboardInterrupt
    assert multiprocessing.active_children() == []
    with helper.use() as fresh:
        fresh.send(abs, -2)
        assert fresh is not side and fresh.recv() == 2


def running(pid: int) -> bool:
    """Whether process pid exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.skipif(not helper.core_for_helper(), reason="no core for a forked helper")
def test_a_forked_helper_exits_when_its_main_process_dies():
    # os._exit skips the atexit hook: the helper sees the pipe close and ends
    code = """import os, time
from measim import helper
with helper.use() as side:
    side.send(os.getpid)
    print(side.recv(), flush=True)
os._exit(0)
"""
    pid = int(python_with_threads(1, code))
    deadline = time.monotonic() + 10.0
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(pid)


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
