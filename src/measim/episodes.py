"""Sequential-measurement environment and batched episode rollouts.

An episode reveals one coordinate of a complete vector per step, starting
from nothing, for a fixed horizon.  Policy and baseline rollouts share one
loop that advances every episode in lockstep, so each policy step is a
single network forward; train-mode steps of a rollout that takes a gradient
keep their state and actor tape so policy gradients can flow through the
realized dropout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .imputer import ImputerModel, impute_batch
from .masks import mcar_spec
from .policy import (
    PolicyModel,
    StepBatch,
    flatten_explore,
    masked_softmax,
    sample_actions,
)

ROLLOUT_MODES = ("explore", "stochastic", "greedy")


def horizon_for(d: int, missing_rate: float) -> int:
    """Measurements per episode: masking's observed count at the rate
    (mcar_spec), at least one, so terminal states match the training data."""
    if not (0.0 <= missing_rate < 1.0):
        raise ValueError(f"missing rate must lie in [0, 1), got {missing_rate}")
    return max(1, mcar_spec(d, missing_rate))


@dataclass
class Rollout:
    """Batch of lockstep episodes sharing step indices."""

    x_bar: np.ndarray                    # (B, D) environment vectors
    steps: list[StepBatch] = field(default_factory=list)
    terminal_values: np.ndarray | None = None
    terminal_masks: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        return self.x_bar.shape[0]

    @property
    def horizon(self) -> int:
        return len(self.steps)


class RowDraws:
    """The draws of rows `rows` of a batch of `batch` rows, for rolling a
    slice of a batch as rollout_batch's rng.

    random(size) draws uniforms for the whole batch, (batch, *size[1:]),
    from rng and keeps the slice's rows, so a rollout of each slice of a
    batch, stacked, equals the whole batch's rollout bit for bit: every op of
    a step works row by row.
    """

    def __init__(self, rng: np.random.Generator, batch: int, rows: slice):
        self._rng = rng
        self._batch = batch
        self._rows = rows

    def random(self, size):
        shape = (size,) if isinstance(size, int) else tuple(size)
        draws = self._rng.random((self._batch, *shape[1:]))[self._rows]
        if draws.shape[0] != shape[0]:
            raise ValueError(f"asked for {shape[0]} rows of draws, the slice holds "
                             f"{draws.shape[0]}")
        return draws


def _roll(x_bar: np.ndarray, horizon: int, decide) -> Rollout:
    """The one per-step loop: reveal one coordinate per row per step.

    One (B, 2D) [values, masks] state advances in lockstep, in place;
    decide(state) returns each step's StepBatch, which must not keep a
    reference to state.
    """
    x_bar = np.asarray(x_bar, dtype=np.float64)
    if x_bar.ndim != 2:
        raise ValueError(f"x_bar must be a (batch, D) matrix, got shape {x_bar.shape}")
    b, d = x_bar.shape
    if not (1 <= horizon <= d):
        raise ValueError(f"horizon must lie in [1, {d}], got {horizon}")
    state = np.zeros((b, 2 * d))
    out = Rollout(x_bar=x_bar)
    rows = np.arange(b)
    for _ in range(horizon):
        step = decide(state)
        actions = step.actions
        if np.any(state[rows, d + actions] == 1.0):
            raise RuntimeError(f"step {len(out.steps)} chose an already observed coordinate")
        out.steps.append(step)
        state[rows, actions] = x_bar[rows, actions]
        state[rows, d + actions] = 1.0
    out.terminal_values = state[:, :d]
    out.terminal_masks = state[:, d:]
    return out


def rollout_batch(
    policy: PolicyModel,
    x_bar: np.ndarray,
    horizon: int,
    mode: str,
    rng: np.random.Generator,
    explore_e: float = 0.1,
    grad: bool = True,
) -> Rollout:
    """Roll one episode per row of x_bar, all advancing together.

    explore: flattened distribution, dropout active.  stochastic: plain
    masked softmax, dropout active.  greedy: dropout-free masked argmax of
    the scores (ties go to the lowest index).

    A step keeps its gradient inputs (state, tape, probs, sample_probs) only
    in a train-mode rollout with grad=True.  Its state is the actor's input,
    the state cast once to the actor's dtype (astype copies, float64 too),
    so s.state is s.tape.inputs[0].  Otherwise (greedy, or grad=False) it
    keeps its actions alone.  The RNG draws are the same either way, so the
    actions and the terminal state are too.
    """
    if mode not in ROLLOUT_MODES:
        raise ValueError(f"mode must be one of {ROLLOUT_MODES}, got {mode!r}")
    exploring = mode == "explore"

    def decide(state):
        # whatever is not kept is released on return, before the next
        # step's forward allocates its own
        masks = state[:, state.shape[1] // 2:]
        x = state.astype(policy.actor.dtype)
        scores, tape = nn.forward(policy.actor, x,
                                  mode="eval" if mode == "greedy" else "train", rng=rng)
        if mode == "greedy":
            actions = np.argmax(np.where(masks == 0.0, scores, -np.inf), axis=1)
        else:
            probs = masked_softmax(scores, masks)
            sample_probs = flatten_explore(probs, masks, explore_e) if exploring else probs
            actions = sample_actions(sample_probs, rng)
            if grad:
                return StepBatch(x, tape, probs, sample_probs, actions,
                                 explore_e=explore_e if exploring else 0.0)
        return StepBatch(None, None, None, None, actions)

    return _roll(x_bar, horizon, decide)


def topk_rmse(candidates: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    """Min over the leading draw axis of the RMSE over the last axis.

    candidates (k, ..., D) against x_bar (..., D) gives one error per row of
    x_bar: (k, D) against (D,) a scalar, (k, B, D) against (B, D) a (B,) array.
    """
    errs = np.sqrt(np.mean((candidates - x_bar) ** 2, axis=-1))
    return errs.min(axis=0)


def terminal_rewards_batch(
    model: ImputerModel,
    rollout: Rollout,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-episode reward for a batch: minus the best RMSE of k imputation
    draws per episode (k >= 1, which impute_batch checks)."""
    cands = impute_batch(model, rollout.terminal_values, rollout.terminal_masks, rng, k=k)
    return -topk_rmse(cands, rollout.x_bar)


class UniformSelector:
    """Uninformative measurement: uniform over unobserved coordinates."""

    def __call__(self, values, masks, rng):
        b, d = masks.shape
        weights = np.where(masks == 0.0, 1.0, 0.0)
        probs = weights / weights.sum(axis=1, keepdims=True)
        return sample_actions(probs, rng)


class ExplicitSelector:
    """Measure the coordinate with the largest variance over k imputations."""

    def __init__(self, model: ImputerModel, k: int = 5):
        if k < 2:
            raise ValueError("variance baseline needs k >= 2 imputations")
        self.model = model
        self.k = k

    def __call__(self, values, masks, rng):
        draws = impute_batch(self.model, values, masks, rng, k=self.k)
        var = draws.var(axis=0)
        # observed coordinates can never win the argmax
        var = np.where(masks == 0.0, var, -1.0)
        return np.argmax(var, axis=1)


def rollout_with_selector(
    selector,
    x_bar: np.ndarray,
    horizon: int,
    rng: np.random.Generator,
) -> Rollout:
    """Tape-free rollout for baselines; each step keeps its actions alone.

    The selector gets (values, masks, rng), the two halves of the state as
    views, and returns fresh actions without keeping a reference to them.
    """

    def decide(state):
        d = state.shape[1] // 2
        actions = np.asarray(selector(state[:, :d], state[:, d:], rng))
        return StepBatch(None, None, None, None, actions)

    return _roll(x_bar, horizon, decide)


def write_episode_trace(path, rollout: Rollout, rewards: np.ndarray) -> None:
    """CSV trace (episode_id, t, action, reward_at_terminal) for inspection."""
    with open(path, "w") as f:
        f.write("episode_id,t,action,reward_at_terminal\n")
        for t, s in enumerate(rollout.steps):
            for i in range(rollout.batch_size):
                f.write(f"{i},{t},{int(s.actions[i])},{repr(float(rewards[i]))}\n")
