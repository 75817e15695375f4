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

    Seed s draws only from its own substreams, so seeds are independent.
    With two seeds or more and a CPU core the BLAS leaves free (see
    helper.core_for_helper), a forked helper process evaluates the odd
    seeds while this process evaluates the even ones; the helper computes
    under the same numeric environment, so the report is bit-identical to
    evaluating every seed here, which is what happens otherwise.  A helper
    seed's EvalRow.wall_time is timed in the helper.
    """
    if eval_mode not in EVAL_MODES:
        raise ValueError(f"eval_mode must be one of {EVAL_MODES}, got {eval_mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    truth = _ground_truth(dataset)
    n, d = truth.shape
    horizon = horizon_for(d, missing_rate)
    if method is None:
        method = method_name(subject)

    def seed_row(s: int) -> EvalRow:
        # the rollout and draws are released on return, before the next seed's
        start = time.perf_counter()
        rng_ep = rngs.substream(seed, rngs.EVAL, s, 0)
        rng_imp = rngs.substream(seed, rngs.EVAL, s, 1)
        if isinstance(subject, PolicyModel):
            roll = rollout_batch(subject, truth, horizon, eval_mode, rng_ep,
                                 grad=False)
        else:
            roll = rollout_with_selector(subject, truth, horizon, rng_ep)

        cands = impute_batch(imputer, roll.terminal_values, roll.terminal_masks,
                             rng_imp, k=k)

        return EvalRow(
            method=method,
            eval_rate=missing_rate,
            top1_rmse=float(np.mean(topk_rmse(cands[:1], truth))),
            top3_rmse=float(np.mean(topk_rmse(cands, truth))),
            n_examples=n,
            seed=s,
            wall_time=time.perf_counter() - start,
            trained_rate=trained_rate,
        )

    def seed_rows(seeds) -> list[EvalRow]:
        return [seed_row(s) for s in seeds]

    seeds = range(n_seeds)
    if n_seeds < 2 or not helper.core_for_helper():
        return EvalReport(seed_rows(seeds))
    with helper.Helper("measim-eval", seed_rows) as side:
        side.send(seeds[1::2])
        rows = seed_rows(seeds[::2]) + side.recv()
    return EvalReport(sorted(rows, key=lambda r: r.seed))


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
