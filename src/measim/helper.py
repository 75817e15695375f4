"""One helper per process, beside the main one, for work that can overlap.

The joint loop sends it two requests per iteration for the E2 set
(training.joint_train).  Work of n independent items goes through split(),
the one place that decides how it is shared: E3's rows
(training._adapt_round) and evaluation's tasks (evaluate.sweep_missing_rates).
The helper is started on first use (use()) and every later use in the
process reuses it.  That first use makes the one choice of how it runs: a
forked process where core_for_helper() holds, else a stand-in that answers
each request in this process.  Forking gives the helper this process's
loaded NumPy and BLAS, so it computes under the same numeric environment
and its bits are the same as computing here.
It sees this process only as it was at the fork, so a request names a
module-level function and carries that function's arguments, models and
data included, over the pipe.

The forked helper is a daemon, stopped by stop(): at interpreter exit (an
atexit hook), whenever an error or interrupt escapes a use() block while a
request awaits its reply, and by a caller that wants a fresh one.  It exits
by itself when the pipe closes because this process is gone.  The next use
after a stop starts a new helper.  The command line pins the BLAS to one
thread (pin_blas); importing measim does not.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import ctypes
import multiprocessing
import os
import signal
import traceback

from numpy.linalg import _umath_linalg

NAME = "measim-helper"


def _openblas(verb: str, argtypes: list, restype):
    """NumPy's OpenBLAS function <verb>_num_threads, declared; None for
    another BLAS."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                 "openblas_%s_num_threads"):
        fn = getattr(lib, name % verb, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


def blas_threads() -> int | None:
    """The thread count NumPy's BLAS computes with; None if it is no OpenBLAS."""
    get = _openblas("get", [], ctypes.c_int)
    return None if get is None else get()


def pin_blas() -> None:
    """Set NumPy's OpenBLAS to one thread.  Entry points call it first;
    importing measim leaves a host program's setting alone."""
    set_threads = _openblas("set", [ctypes.c_int], None)
    if set_threads is not None:
        set_threads(1)


def core_for_helper() -> bool:
    """Whether a CPU core is left free for a forked helper process.

    It is when the BLAS computes with one thread (an unknown BLAS may not),
    this process may run on two CPUs or more, and the platform can fork.  A
    BLAS with more threads fills every core, and a process computing beside
    it slows both several times over (its workers spin while they wait).
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return (blas_threads() == 1 and cpus >= 2
            and "fork" in multiprocessing.get_all_start_methods())


def _serve(conn, main_end) -> None:
    """Helper process body: answer each request (fn, args) with fn(*args).

    An exception is sent back to be raised in the main process, and ends the
    helper; a closed pipe means the main process is gone.  The main process
    stops it with SIGTERM.
    """
    main_end.close()
    # an interrupt is the main process's to handle; it then stops this one
    # with SIGTERM, whatever handler the main process had installed
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        while True:
            fn, args = conn.recv()
            conn.send(("ok", fn(*args)))
    except EOFError:
        pass
    except Exception as exc:
        conn.send(("error", (exc, traceback.format_exc())))


class Helper:
    """A forked process that answers each request send(fn, *args) with
    fn(*args), fn a module-level function.

    send() returns at once, so this process computes while the helper does;
    recv() waits for the reply to the oldest unanswered request.  An
    exception raised in the helper is raised again by recv(), with the
    helper's traceback as a note; a helper that died is reported with its
    exit code.  pending counts the requests sent and not yet answered (a
    failed send and an error reply stay counted).  close() stops it.
    """

    def __init__(self, name: str):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, name=name, daemon=True,
                                 args=(child_end, self._conn))
        self._proc.start()
        child_end.close()
        self.pending = 0

    def send(self, fn, *args) -> None:
        self.pending += 1
        try:
            self._conn.send((fn, args))
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
        self.pending -= 1
        return payload

    def close(self) -> None:
        self._proc.terminate()
        self._proc.join()
        self._conn.close()

    def _exit_error(self) -> RuntimeError:
        self._proc.join(5.0)
        return RuntimeError(
            f"helper process {self._proc.name} exited with code {self._proc.exitcode}")


class _InProcess:
    """The stand-in for a Helper where no core is free: send(fn, *args)
    computes the reply fn(*args) at once, here, and recv() returns the oldest
    one.  fn's exception is raised by send()."""

    def __init__(self):
        self._replies = collections.deque()

    @property
    def pending(self) -> int:
        return len(self._replies)

    def send(self, fn, *args) -> None:
        self._replies.append(fn(*args))

    def recv(self):
        return self._replies.popleft()

    def close(self) -> None:
        self._replies.clear()


_running: Helper | _InProcess | None = None


@contextlib.contextmanager
def use():
    """This process's helper, started on first use: a forked Helper where
    core_for_helper() holds, else one that computes in this process.

    Both answer in the order the requests were sent.  The forked one computes
    while this process does; the other computes each reply inside send(), so
    a reply reads the state of this process when it was asked for.  An error
    or interrupt that leaves the block while a request awaits its reply stops
    the helper (stop()), and the next use starts a fresh one.
    """
    global _running
    if _running is None:
        _running = Helper(NAME) if core_for_helper() else _InProcess()
    side = _running
    try:
        yield side
    except BaseException:
        if side.pending:
            stop()
        raise


def split(fn, n: int, *args) -> list[tuple[slice, object]]:
    """fn(*args, part) over parts that cover n independent items once, as
    (part, reply) pairs.  With a forked helper and n >= 2 the helper computes
    the odd items, slice(1, n, 2), beside this process's even ones;
    otherwise this process makes one call over slice(0, n).  The stand-in
    would compute two parts in turn, which only costs time, and for n < 2
    no helper starts."""
    if n >= 2:
        with use() as side:
            if not isinstance(side, _InProcess):
                side.send(fn, *args, slice(1, n, 2))
                here = fn(*args, slice(0, n, 2))
                return [(slice(0, n, 2), here), (slice(1, n, 2), side.recv())]
    return [(slice(0, n), fn(*args, slice(0, n)))]


def stop() -> None:
    """Stop this process's helper, if one runs; the next use starts another."""
    global _running
    side, _running = _running, None
    if side is not None:
        side.close()


atexit.register(stop)
