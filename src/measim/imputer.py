"""Noise-conditioned stochastic imputer.

The imputer is an MLP from [state encoding ++ noise] to a full substitution
vector; sampled completions always pass through `substitute_batch`, so observed
coordinates are preserved bitwise.  Training is self-supervised: hide part of
what is observed, reconstruct it.  The sinusoid variant takes an extra
linear-interpolation channel and carries a Gaussian smoothness penalty.

The net computes in float32 (IMPUTER_DTYPE); the data, the interpolation
channel, completions, losses and the smoother matrix stay float64.  A loaded
net keeps the dtype its checkpoint records (load_imputer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .masks import substitute_batch

VARIANTS = ("image", "sinusoid")

IMPUTER_DTYPE = np.float32


@dataclass
class ImputerModel:
    """net maps [values, mask (, interpolation)] ++ noise -> substitution."""

    net: nn.DenseNet
    noise_dim: int
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.noise_dim < 1:
            raise ValueError("noise_dim must be >= 1")
        d = self.net.out_dim
        expected = (3 if self.variant == "sinusoid" else 2) * d + self.noise_dim
        if self.net.in_dim != expected:
            raise ValueError(
                f"net input dim {self.net.in_dim} != {expected} required by "
                f"variant {self.variant!r} with d={d}, noise_dim={self.noise_dim}"
            )

    @property
    def d(self) -> int:
        return self.net.out_dim

    def copy(self) -> "ImputerModel":
        return ImputerModel(self.net.copy(), self.noise_dim, self.variant)


@dataclass
class ImputerLossConfig:
    self_mask_fraction: float = 0.5
    smoothness_weight: float = 0.0
    gaussian_kernel_sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.self_mask_fraction < 1.0):
            raise ValueError("self_mask_fraction must lie strictly inside (0, 1)")
        if self.smoothness_weight < 0.0:
            raise ValueError("smoothness_weight must be >= 0")
        if self.gaussian_kernel_sigma <= 0.0:
            raise ValueError("gaussian_kernel_sigma must be > 0")


def build_imputer(
    d: int,
    variant: str,
    noise_dim: int = 8,
    hidden: tuple[int, ...] = (128, 128),
    rng: np.random.Generator | None = None,
) -> ImputerModel:
    in_dim = (3 if variant == "sinusoid" else 2) * d + noise_dim
    out_act = "sigmoid" if variant == "image" else "identity"
    net = nn.DenseNet([in_dim, *hidden, d], hidden_activation="tanh",
                      output_activation=out_act, rng=rng, dtype=IMPUTER_DTYPE)
    return ImputerModel(net, noise_dim, variant)


def interpolate_batch(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Piecewise-linear fill of each row from its observed coordinates.

    Bitwise equal to np.interp run row by row: the tails hold the outermost
    observed value and a row with nothing observed stays zero.  One np.interp
    call covers the whole block, on the flat positions r*d + i: between two
    observed points of a row, x - x_lo and x_hi - x_lo are the same exact
    integers as in the row's own call, so every float operation matches.
    Only the tails, where the flat call bridges to a neighbouring row, are
    then overwritten.
    """
    b, d = values.shape
    obs = masks == 1.0
    knots = np.flatnonzero(obs)
    if knots.size == 0:
        return np.zeros_like(values)
    out = np.interp(np.arange(b * d, dtype=np.float64), knots.astype(np.float64),
                    values.ravel()[knots]).reshape(b, d)
    rows, grid = np.arange(b), np.arange(d)
    first = obs.argmax(axis=1)
    last = d - 1 - obs[:, ::-1].argmax(axis=1)
    np.copyto(out, values[rows, first][:, None], where=grid < first[:, None])
    np.copyto(out, values[rows, last][:, None], where=grid > last[:, None])
    # argmax of a row with nothing observed is 0, an unobserved coordinate
    out[~obs[rows, first]] = 0.0
    return out


def net_inputs(model: ImputerModel, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Non-noise input columns for a (batch, d) state block."""
    cols = [values, masks]
    if model.variant == "sinusoid":
        cols.append(interpolate_batch(values, masks))
    return np.concatenate(cols, axis=1)


def impute_batch(model: ImputerModel, values: np.ndarray, masks: np.ndarray,
                 rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    """Completions of a (batch, d) state block, noise drawn as (batch, Z) blocks.

    k=None gives one completion per row, shape (batch, d).  An integer k gives
    k completions per row, shape (k, batch, d).  The first layer splits into a
    state term, net_inputs @ W0[:, :width].T + b0, formed once per call, and a
    noise term each draw adds to it before the remaining layers run.  Each
    draw's noise block follows the previous one's on rng and k=None takes the
    same path, so the result equals k successive k=None calls bit for bit.
    The state inputs and each noise block are cast to the net's dtype before
    their products, so every matmul runs in it; completions are float64.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    b, d = values.shape
    if d != model.d:
        raise ValueError(f"state has {d} coordinates, imputer expects {model.d}")
    net = model.net
    width = net.in_dim - model.noise_dim
    state_in = net_inputs(model, values, masks).astype(net.dtype, copy=False)
    state_term = state_in @ net.weights[0][:, :width].T + net.biases[0]
    noise_w = net.weights[0][:, width:].T
    out = np.empty((1 if k is None else k, b, d))
    for draw in out:
        noise = rng.standard_normal((b, model.noise_dim)).astype(net.dtype, copy=False)
        z0 = state_term + noise @ noise_w
        draw[...] = substitute_batch(values, masks, nn.forward_from(net, z0))
    return out[0] if k is None else out


_SMOOTHER_CACHE: dict[tuple[int, float], np.ndarray] = {}


def gaussian_smoother_matrix(d: int, sigma: float) -> np.ndarray:
    """Explicit d x d matrix S with S @ y = Gaussian filter of y.

    Kernel truncated at 3 sigma, normalized to sum 1, reflective boundary
    (mirror about the edge between samples).  The matrix form gives the
    exact adjoint for gradients.
    """
    key = (d, float(sigma))
    cached = _SMOOTHER_CACHE.get(key)
    if cached is not None:
        return cached
    radius = int(3.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    s = np.zeros((d, d))
    for i in range(d):
        for o, w in zip(offsets, kernel):
            j = i + o
            while j < 0 or j >= d:
                if j < 0:
                    j = -j - 1
                if j >= d:
                    j = 2 * d - j - 1
            s[i, j] += w
    _SMOOTHER_CACHE[key] = s
    return s


def smoothness_penalty(y: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean squared difference from the Gaussian-filtered rows.

    Returns (per-row penalty, gradient wrt y of the per-row penalty).
    """
    d = y.shape[1]
    s = gaussian_smoother_matrix(d, sigma)
    r = y - y @ s.T
    per_row = (r ** 2).mean(axis=1)
    grad = (2.0 / d) * (r - r @ s)
    return per_row, grad


def self_mask(masks: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Hide round_half_up(fraction * n_observed) observed coordinates per row.

    One rng.random((batch, d)) draw keys every coordinate; a row hides its
    observed coordinates with the smallest keys, so each row's hidden set is
    a uniform subset of its observed ones of that size.
    """
    obs = masks == 1.0
    n_hide = np.floor(fraction * obs.sum(axis=1) + 0.5).astype(int)  # round_half_up
    keys = np.where(obs, rng.random(masks.shape), np.inf)
    # observed coordinates rank first, in key order; the unobserved never reach n_hide
    order = np.argsort(keys, axis=1)
    hidden = np.zeros(masks.shape)
    np.put_along_axis(hidden, order, np.arange(masks.shape[1]) < n_hide[:, None], axis=1)
    return hidden


def _reconstruction(model: ImputerModel, values, masks, target, weight,
                    rng: np.random.Generator) -> tuple[float, np.ndarray, np.ndarray, nn.Tape]:
    """The two reconstruction losses' shared body, over a (b, d) block.

    One noise draw and a train-mode forward on [net_inputs ++ noise], built
    in float64; squared error to target where weight is 1, averaged per row
    over max(weight count, 1), then over rows.  Returns (loss, its upstream
    gradient wrt the output, output, tape).
    """
    b = values.shape[0]
    noise = rng.standard_normal((b, model.noise_dim))
    x = np.concatenate([net_inputs(model, values, masks), noise], axis=1)
    y, tape = nn.forward(model.net, x, mode="train", rng=rng)
    counts = np.maximum(weight.sum(axis=1), 1.0)
    diff = (y - target) * weight
    rows = (diff ** 2).sum(axis=1) / counts
    upstream = 2.0 * diff / counts[:, None] / b
    return float(rows.mean()), upstream, y, tape


def any_row_observes_two(masks: np.ndarray) -> bool:
    """Whether some row observes two coordinates or more: loss_unsupervised
    skips every other row, so without one it has no signal."""
    return bool((np.asarray(masks).sum(axis=1) >= 2).any())


def loss_unsupervised(
    model: ImputerModel,
    values: np.ndarray,
    masks: np.ndarray,
    cfg: ImputerLossConfig,
    rng: np.random.Generator,
) -> tuple[float, list[np.ndarray], dict]:
    """Self-masking reconstruction loss over a batch, with gradients.

    Per kept example: hide round(rho * n_observed) observed coordinates,
    rebuild from the reduced state, score squared error on the hidden ones
    averaged over their count.  Examples with < 2 observed coordinates are
    skipped and counted.  Batch loss is the mean over kept examples, plus
    the smoothness penalty weighted by cfg.smoothness_weight.
    """
    values = np.asarray(values, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    kept = np.flatnonzero(masks.sum(axis=1) >= 2)
    info = {"skipped": int(values.shape[0] - kept.size)}
    if kept.size == 0:
        return 0.0, [np.zeros_like(p) for p in model.net.params()], info

    v, m = values[kept], masks[kept]
    hidden = self_mask(m, cfg.self_mask_fraction, rng)
    reduced_mask = m - hidden
    loss, upstream, y, tape = _reconstruction(model, v * reduced_mask, reduced_mask,
                                              v, hidden, rng)
    if cfg.smoothness_weight > 0.0:
        sm_rows, sm_grad = smoothness_penalty(y, cfg.gaussian_kernel_sigma)
        loss += cfg.smoothness_weight * float(sm_rows.mean())
        upstream = upstream + cfg.smoothness_weight * sm_grad / kept.size

    grads = nn.backward(model.net, tape, upstream)
    info["predictions"] = y
    info["hidden"] = hidden
    return loss, grads, info


def loss_supervised_batch(
    model: ImputerModel,
    values: np.ndarray,
    masks: np.ndarray,
    xbar: np.ndarray,
    rng: np.random.Generator,
) -> tuple[float, list[np.ndarray]]:
    """Squared error against known complete vectors on unobserved coordinates.

    Averaged per example over the unobserved count, then over examples with
    at least one unobserved coordinate.  Fully observed rows contribute 0.
    """
    values = np.asarray(values, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    xbar = np.asarray(xbar, dtype=np.float64)
    if xbar.shape != values.shape:
        raise ValueError(f"complete-data shape {xbar.shape} != state shape {values.shape}")

    scored = np.flatnonzero((masks == 0.0).any(axis=1))
    if scored.size == 0:
        return 0.0, [np.zeros_like(p) for p in model.net.params()]

    m = masks[scored]
    loss, upstream, _, tape = _reconstruction(model, values[scored], m, xbar[scored],
                                              1.0 - m, rng)
    return loss, nn.backward(model.net, tape, upstream)


def pretrain(
    model: ImputerModel,
    values: np.ndarray,
    masks: np.ndarray,
    epochs: int,
    opt: nn.OptimizerState,
    cfg: ImputerLossConfig,
    rng: np.random.Generator,
    batch_size: int = 64,
    plateau_tol: float = 1e-4,
    plateau_window: int = 5,
) -> list[float]:
    """Minibatch descent on the self-masking loss until budget or plateau.

    Mutates the model in place and returns the per-epoch mean loss curve.
    Aborts with a diagnostic if the loss goes non-finite, and before the
    first step if no row observes two coordinates (the loss skips such rows).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] == 0:
        raise ValueError("pretraining needs a nonempty dataset")
    if epochs > 0 and not any_row_observes_two(masks):
        raise ValueError("pretraining needs a row observing two coordinates or more")
    n = values.shape[0]
    curve: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads, _ = loss_unsupervised(model, values[idx], masks[idx], cfg, rng)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"pretraining diverged: non-finite loss at epoch {epoch}"
                )
            model.net.step(grads, opt)
            batch_losses.append(loss)
        curve.append(float(np.mean(batch_losses)))
        if len(curve) > plateau_window:
            prev = curve[-1 - plateau_window]
            improvement = (prev - curve[-1]) / max(abs(prev), 1e-12)
            if improvement < plateau_tol:
                break
    return curve


def adapt_step(
    model: ImputerModel,
    miss_values: np.ndarray,
    miss_masks: np.ndarray,
    term_values: np.ndarray,
    term_masks: np.ndarray,
    xbar: np.ndarray,
    alpha: float,
    alpha_prime: float,
    cfg: ImputerLossConfig,
    rng_unsup: np.random.Generator,
    rng_sup: np.random.Generator,
) -> tuple[ImputerModel, dict]:
    """One combined self-masking + known-truth gradient step, non-mutating.

    The step is one unit-rate SGD step on alpha * g_u + alpha_prime * g_s
    through DenseNet.step, so a non-finite gradient raises
    NonFiniteGradientError.  Returns (fresh parameter set, loss values); the
    input model is untouched, so a caller can evaluate against the adapted
    imputer and then discard it.
    """
    l_u, g_u, _ = loss_unsupervised(model, miss_values, miss_masks, cfg, rng_unsup)
    l_s, g_s = loss_supervised_batch(model, term_values, term_masks, xbar, rng_sup)
    adapted = model.copy()
    adapted.net.step([alpha * gu + alpha_prime * gs for gu, gs in zip(g_u, g_s)],
                     nn.OptimizerState(kind="sgd", lr=1.0))
    return adapted, {"unsupervised": l_u, "supervised": l_s}


def save_imputer(model: ImputerModel, path) -> None:
    nn.save_checkpoint(model.net, path, role=nn.ROLE_IMPUTER)


def load_imputer(path) -> ImputerModel:
    """The imputer in the dtype its checkpoint records, never cast: float32
    for one build_imputer made, and float64 for one saved before the imputer
    was float32, which then imputes to its own bits."""
    net, role = nn.load_checkpoint(path)
    if role != nn.ROLE_IMPUTER:
        raise ValueError(f"checkpoint role {role} is not an imputer checkpoint")
    variant = "image" if net.output_activation == "sigmoid" else "sinusoid"
    d = net.out_dim
    noise_dim = net.in_dim - (3 if variant == "sinusoid" else 2) * d
    if noise_dim < 1:
        raise ValueError(
            f"checkpoint dims {net.layer_dims} inconsistent with an imputer layout"
        )
    return ImputerModel(net, noise_dim, variant)
