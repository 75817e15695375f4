"""A helper beside the main process, for work that can overlap.

The joint loop sends its E2 chain to one (training.joint_train) and
evaluation half of its (seed, row block) tasks (evaluate.eval_policy).
start() is the one place that decides how the helper runs: a forked process
where core_for_helper() holds, else a stand-in that answers each request in
this process.  Callers write one code path for both.  Forking gives the
helper this process's memory, so models and data need not cross the pipe,
and its loaded NumPy and BLAS, so it computes under the same numeric
environment and its bits are the same as computing here.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import signal
import traceback


def core_for_helper() -> bool:
    """Whether a CPU core is left free for a helper process.

    It is when the environment pins the BLAS to one thread and this process
    may run on two CPUs or more.  OpenBLAS reads OPENBLAS_NUM_THREADS and MKL
    reads MKL_NUM_THREADS, each else OMP_NUM_THREADS; unset, they start one
    thread per CPU.  Those threads already fill every core, and a second
    process computing beside them slows both several times over (their
    workers spin while they wait).
    """
    omp = os.environ.get("OMP_NUM_THREADS")
    pinned = all(os.environ.get(var, omp) == "1"
                 for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return pinned and cpus >= 2


def _serve(conn, main_end, handle) -> None:
    """Helper process body: answer each request with handle(request).

    An exception is sent back to be raised in the main process; a closed pipe
    means the main process is gone.  The main process stops it with SIGTERM.
    """
    main_end.close()
    # an interrupt is the main process's to handle; it then stops this one
    # with SIGTERM, whatever handler the main process had installed
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        while True:
            conn.send(("ok", handle(conn.recv())))
    except EOFError:
        pass
    except Exception as exc:
        conn.send(("error", (exc, traceback.format_exc())))


class Helper:
    """A forked process that answers each request with handle(request).

    send() returns at once, so this process computes while the helper does;
    recv() waits for the reply to the oldest unanswered request.  An
    exception raised in the helper is raised again by recv(), with the
    helper's traceback as a note; a helper that died is reported with its
    exit code.  close() stops it, on every exit path when used in a with
    block.
    """

    def __init__(self, name: str, handle):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, name=name, daemon=True,
                                 args=(child_end, self._conn, handle))
        self._proc.start()
        child_end.close()

    def send(self, request) -> None:
        try:
            self._conn.send(request)
        except OSError:
            raise self._exit_error() from None

    def recv(self):
        try:
            kind, payload = self._conn.recv()
        except (EOFError, OSError):
            raise self._exit_error() from None
        if kind == "error":
            exc, trace = payload
            if hasattr(exc, "add_note"):
                exc.add_note(f"raised in helper process {self._proc.name}:\n{trace}")
            raise exc
        return payload

    def close(self) -> None:
        self._proc.terminate()
        self._proc.join()
        self._conn.close()

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exit_error(self) -> RuntimeError:
        self._proc.join(5.0)
        return RuntimeError(
            f"helper process {self._proc.name} exited with code {self._proc.exitcode}")


class _InProcess:
    """The stand-in for a Helper where no core is free: send() computes the
    reply at once, here, and recv() returns the oldest one.  A handler's
    exception is raised by send()."""

    def __init__(self, handle):
        self._handle = handle
        self._replies = collections.deque()

    def send(self, request) -> None:
        self._replies.append(self._handle(request))

    def recv(self):
        return self._replies.popleft()

    def close(self) -> None:
        self._replies.clear()

    def __enter__(self) -> "_InProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start(name: str, handle):
    """A helper answering each request with handle(request): a forked Helper
    where core_for_helper() holds, else one that computes in this process.

    Both answer in the order the requests were sent.  The forked one computes
    while this process does; the other computes each reply inside send(), so
    a reply reads the state of this process when it was asked for.
    """
    if core_for_helper():
        return Helper(name, handle)
    return _InProcess(handle)
