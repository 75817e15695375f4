"""Mask algebra and the missing-data representation shared by every module.

A mask is a float64 vector of 0/1 flags (1 = observed).  Missing data is the
pair (values-with-zero-fill, mask); the mask channel is what distinguishes a
true zero from an unobserved coordinate.
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


def as_mask(bits) -> np.ndarray:
    m = np.asarray(bits, dtype=np.float64)
    if m.ndim != 1 or not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask must be a 1-D vector of 0/1 values")
    return m


@dataclass
class MissingState:
    """Observed values (zero-filled at unobserved coordinates) plus mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = as_mask(self.mask)
        if self.values.shape != self.mask.shape:
            raise ValueError(
                f"values shape {self.values.shape} != mask shape {self.mask.shape}"
            )

    @classmethod
    def from_complete(cls, x, mask) -> "MissingState":
        """Observe x through mask, zero-filling the unobserved coordinates."""
        mask = as_mask(mask)
        return cls(np.asarray(x, dtype=np.float64) * mask, mask)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def observed_count(self) -> int:
        return int(self.mask.sum())


@dataclass
class MaskDistributionSpec:
    """Uniform MCAR with a fixed number of observed coordinates."""

    kind: str = "mcar-uniform"
    n_observed: int = 0

    def __post_init__(self):
        if self.kind != "mcar-uniform":
            raise ValueError(f"unsupported mask distribution {self.kind!r}")
        if self.n_observed < 0:
            raise ValueError("n_observed must be >= 0")


def mcar_spec(d: int, missing_rate: float) -> MaskDistributionSpec:
    if not (0.0 <= missing_rate <= 1.0):
        raise ValueError(f"missing rate must lie in [0, 1], got {missing_rate}")
    return MaskDistributionSpec(n_observed=round_half_up(d * (1.0 - missing_rate)))


def substitute(x_m: MissingState, y) -> np.ndarray:
    """Fill unobserved coordinates from y; observed ones pass through exactly."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != x_m.values.shape:
        raise ValueError(f"substitution shape {y.shape} != data shape {x_m.values.shape}")
    return np.where(x_m.mask == 1.0, x_m.values, y)


def substitute_batch(values: np.ndarray, masks: np.ndarray, y: np.ndarray) -> np.ndarray:
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


def encode_state(x_m: MissingState) -> np.ndarray:
    """Network encoding: concatenation [values, mask], length 2D."""
    return np.concatenate([x_m.values, x_m.mask])


def encode_states(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    return np.concatenate([values, masks], axis=1)


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

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def state(self, i: int) -> MissingState:
        return MissingState(self.values[i].copy(), self.masks[i].copy())

    def without_ground_truth(self) -> "MissingDataset":
        """Training-side view: same rows, ground truth stripped."""
        return MissingDataset(self.values, self.masks, None)


def mask_dataset(
    complete: np.ndarray,
    spec: MaskDistributionSpec,
    rng: np.random.Generator,
) -> MissingDataset:
    """Apply an independent MCAR mask to every example; keep truth separately."""
    complete = np.asarray(complete, dtype=np.float64)
    n, d = complete.shape
    masks = np.zeros((n, d))
    for i in range(n):
        masks[i] = sample_mcar_mask(d, spec.n_observed, rng)
    return MissingDataset(complete * masks, masks, ground_truth=complete.copy())


def save_missing_csv(dataset: MissingDataset, path, include_ground_truth: bool = True) -> None:
    """One row per example: D value columns, D mask columns, optionally D
    ground-truth columns (their presence in the header is the flag).

    Floats are written with repr, so a load gives back the same bits; lines
    end in CRLF, as csv.writer writes them.
    """
    d = dataset.dim
    with_gt = include_ground_truth and dataset.ground_truth is not None
    header = [f"v{i}" for i in range(d)] + [f"m{i}" for i in range(d)]
    if with_gt:
        header += [f"gt{i}" for i in range(d)]
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
    """Inverse of save_missing_csv.  Ragged or non-numeric rows raise
    ValueError; a header-only file is an empty (0, D) dataset."""
    with open(path, newline="") as f:
        header = next(csv.reader(f), None)
        if header is None:
            raise ValueError("empty file: no header row")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # comments=None: a '#' row is a non-numeric field, not a comment
            table = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
    n_v = sum(1 for h in header if h.startswith("v"))
    n_m = sum(1 for h in header if h.startswith("m"))
    n_gt = sum(1 for h in header if h.startswith("gt"))
    if n_v == 0 or n_v != n_m:
        raise ValueError(f"malformed header: {n_v} value and {n_m} mask columns")
    if n_gt and n_gt != n_v:
        raise ValueError(f"{n_gt} ground-truth columns for dimension {n_v}")
    if table.shape[0] == 0:
        table = table.reshape(0, len(header))
    elif table.shape[1] != len(header):
        raise ValueError(f"rows have {table.shape[1]} columns, header has {len(header)}")
    d = n_v
    gt = table[:, 2 * d:3 * d] if n_gt else None
    return MissingDataset(table[:, :d], table[:, d:2 * d], gt)
