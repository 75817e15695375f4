"""Mask algebra and the missing-data representation shared by every module.

A mask is a float64 array of 0/1 flags (1 = observed), one row per example.
Missing data is the pair (values-with-zero-fill, masks); the mask channel is
what distinguishes a true zero from an unobserved coordinate.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np


def round_half_up(x: float) -> int:
    """round() with deterministic .5-up ties instead of banker's rounding."""
    return int(math.floor(x + 0.5))


def mcar_spec(d: int, missing_rate: float) -> int:
    """Observed count per example of uniform MCAR at missing_rate."""
    if not (0.0 <= missing_rate <= 1.0):
        raise ValueError(f"missing rate must lie in [0, 1], got {missing_rate}")
    return round_half_up(d * (1.0 - missing_rate))


def substitute_batch(values: np.ndarray, masks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fill unobserved coordinates from y; observed ones pass through exactly."""
    if y.shape != values.shape:
        raise ValueError(f"substitution shape {y.shape} != data shape {values.shape}")
    return np.where(masks == 1.0, values, y)


def sample_mcar_mask(d: int, n_observed: int, rng: np.random.Generator) -> np.ndarray:
    """Mask with exactly n_observed ones, every subset equiprobable."""
    if not (0 <= n_observed <= d):
        raise ValueError(f"n_observed must lie in [0, {d}], got {n_observed}")
    mask = np.zeros(d)
    mask[rng.choice(d, size=n_observed, replace=False)] = 1.0
    return mask


@dataclass
class MissingDataset:
    """Rows of missing data, with ground truth kept only for evaluation."""

    values: np.ndarray                    # (n, d), zero-filled
    masks: np.ndarray                     # (n, d), 0/1
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.masks = np.asarray(self.masks, dtype=np.float64)
        if self.values.shape != self.masks.shape or self.values.ndim != 2:
            raise ValueError("values and masks must be matching (n, d) arrays")
        # anything else would flow silently into training as a corrupt state
        for bad, what in (
            ((self.masks != 0.0) & (self.masks != 1.0), "mask {m!r} is not 0 or 1"),
            ((self.masks == 1.0) & ~np.isfinite(self.values), "observed value {v!r} is not finite"),
            ((self.masks == 0.0) & (self.values != 0.0), "unobserved value {v!r} is not 0"),
        ):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(f"row {i}, column {j}: " + what.format(
                    m=float(self.masks[i, j]), v=float(self.values[i, j])))
        if self.ground_truth is not None:
            self.ground_truth = np.asarray(self.ground_truth, dtype=np.float64)
            if self.ground_truth.shape != self.values.shape:
                raise ValueError("ground truth shape must match values")
            # a non-finite truth would turn every error against it into NaN
            bad = ~np.isfinite(self.ground_truth)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(f"row {i}, column {j}: ground truth "
                                 f"{float(self.ground_truth[i, j])!r} is not finite")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def without_ground_truth(self) -> "MissingDataset":
        """Training-side view: same rows, ground truth stripped."""
        return MissingDataset(self.values, self.masks, None)


def mask_dataset(
    complete: np.ndarray,
    n_observed: int,
    rng: np.random.Generator,
) -> MissingDataset:
    """Observe n_observed uniformly chosen coordinates of every example
    (independent MCAR masks); keep the truth separately."""
    complete = np.asarray(complete, dtype=np.float64)
    n, d = complete.shape
    if not (0 <= n_observed <= d):
        raise ValueError(f"n_observed must lie in [0, {d}], got {n_observed}")
    masks = np.zeros((n, d))
    for i in range(n):
        masks[i] = sample_mcar_mask(d, n_observed, rng)
    return MissingDataset(complete * masks, masks, ground_truth=complete.copy())


def csv_header(d: int, with_ground_truth: bool) -> list[str]:
    """The missing-data CSV header: v0..v{d-1}, m0..m{d-1}, then, with
    ground truth, gt0..gt{d-1}."""
    prefixes = ("v", "m", "gt") if with_ground_truth else ("v", "m")
    return [f"{p}{i}" for p in prefixes for i in range(d)]


def save_missing_csv(dataset: MissingDataset, path, include_ground_truth: bool = True) -> None:
    """One row per example: D value columns, D mask columns, optionally D
    ground-truth columns (their presence in the header is the flag).

    Floats are written with repr, so a load gives back the same bits; lines
    end in CRLF, as csv.writer writes them.
    """
    d = dataset.dim
    with_gt = include_ground_truth and dataset.ground_truth is not None
    header = csv_header(d, with_gt)
    masks = dataset.masks.astype(np.int64)
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for i in range(len(dataset)):
            row = ",".join(map(repr, dataset.values[i].tolist()))
            row += "," + ",".join(map(str, masks[i].tolist()))
            if with_gt:
                row += "," + ",".join(map(repr, dataset.ground_truth[i].tolist()))
            f.write(row + "\r\n")


def load_missing_csv(path) -> MissingDataset:
    """Inverse of save_missing_csv.  A header other than csv_header's, or
    ragged or non-numeric rows, raise ValueError; a header-only file is an
    empty (0, D) dataset."""
    with open(path, newline="") as f:
        header = next(csv.reader(f), None)
        if header is None:
            raise ValueError("empty file: no header row")
        # D from the header's length; a gt column marks the ground-truth form
        with_gt = any(h.startswith("gt") for h in header)
        d = len(header) // (3 if with_gt else 2)
        expected = csv_header(d, with_gt)
        for j, name in enumerate(header):
            if j >= len(expected) or name != expected[j]:
                raise ValueError(f"malformed header: unexpected column {name!r} at position "
                                 f"{j}; expected v0..vD-1,m0..mD-1, then optionally gt0..gtD-1")
        if d == 0:
            raise ValueError("malformed header: no value or mask columns")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # comments=None: a '#' row is a non-numeric field, not a comment
            table = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
    if table.shape[0] == 0:
        table = table.reshape(0, len(header))
    elif table.shape[1] != len(header):
        raise ValueError(f"rows have {table.shape[1]} columns, header has {len(header)}")
    gt = table[:, 2 * d:3 * d] if with_gt else None
    return MissingDataset(table[:, :d], table[:, d:2 * d], gt)
