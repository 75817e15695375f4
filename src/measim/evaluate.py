"""Evaluation on true data: top-k RMSE, rate sweeps, and the sweep.csv format.

Training only ever sees zero-filled values and masks; this module is the one
place ground truth is consumed.  An evaluation episode starts from nothing
observed and measures horizon_for(d, missing_rate) coordinates, with the
environment revealing the true value of each one.  The terminal state is
then imputed k times: the first draw's RMSE is the single-imputation error,
the minimum over all k draws the top-k error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import helper, rngs
from .episodes import (
    ExplicitSelector,
    UniformSelector,
    horizon_for,
    rollout_batch,
    rollout_with_selector,
    topk_rmse,
)
from .imputer import ImputerModel, impute_batch
from .masks import MissingDataset
from .policy import PolicyModel

SWEEP_CSV_SCHEMA = "# measim-sweep v1"
SWEEP_CSV_HEADER = "method,trained_rate,eval_rate,top1_rmse,top3_rmse,n,seed"

EVAL_MODES = ("greedy", "stochastic")

# most rows per evaluation task: of 180, 240 and 360, 360 gave sin80's 720
# test rows the best throughput.  A report's bytes depend on it.
EVAL_BLOCK_ROWS = 360


@dataclass
class EvalRow:
    method: str
    eval_rate: float
    top1_rmse: float
    top3_rmse: float
    n_examples: int
    seed: int
    wall_time: float = 0.0
    trained_rate: float = float("nan")

    def __post_init__(self):
        # top-3 minimizes over a superset that includes the top-1 draw
        if self.top3_rmse > self.top1_rmse:
            raise ValueError(
                f"top3_rmse {self.top3_rmse} exceeds top1_rmse {self.top1_rmse}")


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    def mean_top1(self) -> float:
        return float(np.mean([r.top1_rmse for r in self.rows]))

    def mean_topk(self) -> float:
        return float(np.mean([r.top3_rmse for r in self.rows]))

    def extend(self, other: "EvalReport") -> None:
        self.rows.extend(other.rows)


def method_name(subject) -> str:
    if isinstance(subject, PolicyModel):
        return "proposed"
    if isinstance(subject, UniformSelector):
        return "uninform"
    if isinstance(subject, ExplicitSelector):
        return "explicit"
    return type(subject).__name__.lower()


def _ground_truth(dataset) -> np.ndarray:
    if isinstance(dataset, np.ndarray):
        return np.asarray(dataset, dtype=np.float64)
    if isinstance(dataset, MissingDataset):
        if dataset.ground_truth is None:
            raise ValueError("evaluation needs a dataset with ground truth")
        return dataset.ground_truth
    raise TypeError(f"cannot evaluate on {type(dataset).__name__}")


def row_blocks(n: int) -> list[slice]:
    """ceil(n / EVAL_BLOCK_ROWS) contiguous row blocks, sizes within one row."""
    m = -(-n // EVAL_BLOCK_ROWS)
    return [slice(j * n // m, (j + 1) * n // m) for j in range(m)]


def _run_task(subject, imputer: ImputerModel, truth: np.ndarray, blocks: list[slice],
              horizon: int, k: int, seed: int, eval_mode: str,
              s: int, j: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Task (s, j): roll block j from substream (seed, EVAL, s, 0, j), impute
    its terminal states k times from (seed, EVAL, s, 1, j), and return the
    per-row top-1 and top-k errors and the task's time.  The rollout and
    draws are released on return, before the next task's."""
    start = time.perf_counter()
    rows = truth[blocks[j]]
    rng_ep = rngs.substream(seed, rngs.EVAL, s, 0, j)
    rng_imp = rngs.substream(seed, rngs.EVAL, s, 1, j)
    if isinstance(subject, PolicyModel):
        roll = rollout_batch(subject, rows, horizon, eval_mode, rng_ep, grad=False)
    else:
        roll = rollout_with_selector(subject, rows, horizon, rng_ep)
    cands = impute_batch(imputer, roll.terminal_values, roll.terminal_masks, rng_imp, k=k)
    return topk_rmse(cands[:1], rows), topk_rmse(cands, rows), time.perf_counter() - start


def _run_tasks(work: tuple, tasks: list[tuple[int, int]]) -> list:
    """_run_task(*work, s, j) for each task (s, j), in order."""
    return [_run_task(*work, s, j) for s, j in tasks]


def eval_policy(
    subject,
    imputer: ImputerModel,
    dataset,
    missing_rate: float,
    k: int = 3,
    n_seeds: int = 3,
    seed: int = 0,
    eval_mode: str = "greedy",
    method: str | None = None,
    trained_rate: float = float("nan"),
) -> EvalReport:
    """Measure-then-impute error of a policy or selector baseline, per seed.

    subject is either a PolicyModel (rolled greedily by default) or a
    selector callable (values, masks, rng) -> actions.

    The work is a list of (seed s, row block j) tasks in that order, the
    blocks from row_blocks, each run by _run_task from its own substreams,
    so each task's bits depend on nothing but its key.  A seed's errors are
    means over its rows, the blocks taken in row order, and its
    EvalRow.wall_time is the sum of its task times.

    With two tasks or more, the process's helper (helper.use) runs the odd
    tasks and this process the even ones.  The request carries the subject,
    the imputer and the truth rows, so a subject of a forked helper must
    pickle.  Where helper.core_for_helper() held when the helper started it
    is a forked process that runs them beside this one, and per-row errors
    and task times come back over the pipe; otherwise it runs them here,
    before the even ones.  The forked process computes under the same
    numeric environment, so the report is bit-identical either way.  Either
    way a process holds one block's rollout and draws at a time.
    """
    if eval_mode not in EVAL_MODES:
        raise ValueError(f"eval_mode must be one of {EVAL_MODES}, got {eval_mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    truth = _ground_truth(dataset)
    n, d = truth.shape
    if n == 0:
        raise ValueError("evaluation needs at least one row")
    if method is None:
        method = method_name(subject)
    blocks = row_blocks(n)
    work = (subject, imputer, truth, blocks, horizon_for(d, missing_rate), k, seed, eval_mode)

    tasks = [(s, j) for s in range(n_seeds) for j in range(len(blocks))]
    if len(tasks) < 2:
        results = _run_tasks(work, tasks)
    else:
        results = [None] * len(tasks)
        with helper.use() as side:
            side.send(_run_tasks, work, tasks[1::2])
            results[::2] = _run_tasks(work, tasks[::2])
            results[1::2] = side.recv()

    rows = []
    for s in range(n_seeds):
        top1, topk, times = zip(*results[s * len(blocks):(s + 1) * len(blocks)])
        rows.append(EvalRow(
            method=method,
            eval_rate=missing_rate,
            top1_rmse=float(np.mean(np.concatenate(top1))),
            top3_rmse=float(np.mean(np.concatenate(topk))),
            n_examples=n,
            seed=s,
            wall_time=sum(times),
            trained_rate=trained_rate,
        ))
    return EvalReport(rows)


def sweep_missing_rates(
    subject,
    imputer: ImputerModel,
    dataset,
    rates,
    k: int = 3,
    n_seeds: int = 3,
    seed: int = 0,
    eval_mode: str = "greedy",
    method: str | None = None,
    trained_rate: float = float("nan"),
) -> EvalReport:
    """eval_policy across missing rates with frozen weights, one horizon each."""
    rates = list(rates)
    for r in rates:
        if not 0.0 <= r < 1.0:
            raise ValueError(f"rates must lie in [0, 1), got {r}")
    report = EvalReport()
    for r in rates:
        report.extend(eval_policy(subject, imputer, dataset, r, k=k,
                                  n_seeds=n_seeds, seed=seed, eval_mode=eval_mode,
                                  method=method, trained_rate=trained_rate))
    return report


# ---------------------------------------------------------------------------
# sweep.csv


def write_sweep_csv(report: EvalReport, path) -> None:
    """Plot-ready rows; wall time deliberately stays out of the file."""
    with open(path, "w") as f:
        f.write(SWEEP_CSV_SCHEMA + "\n")
        f.write(SWEEP_CSV_HEADER + "\n")
        for r in report.rows:
            f.write(f"{r.method},{repr(float(r.trained_rate))},"
                    f"{repr(float(r.eval_rate))},{repr(float(r.top1_rmse))},"
                    f"{repr(float(r.top3_rmse))},{r.n_examples},{r.seed}\n")


def load_sweep_csv(path) -> EvalReport:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != SWEEP_CSV_SCHEMA:
        raise ValueError(f"{path} is not a sweep file (missing schema line)")
    if len(lines) < 2 or lines[1] != SWEEP_CSV_HEADER:
        raise ValueError(f"{path} has an unexpected header")
    report = EvalReport()
    for line in lines[2:]:
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"bad sweep row: {line!r}")
        report.rows.append(EvalRow(
            method=parts[0],
            trained_rate=float(parts[1]),
            eval_rate=float(parts[2]),
            top1_rmse=float(parts[3]),
            top3_rmse=float(parts[4]),
            n_examples=int(parts[5]),
            seed=int(parts[6]),
        ))
    return report
