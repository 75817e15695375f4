"""Sequential-measurement environment and batched episode rollouts.

An episode reveals one coordinate of a complete vector per step, starting
from nothing, for a fixed horizon.  Batched rollouts advance every episode
in lockstep so each step is a single network forward; train-mode steps keep
their actor tapes so policy gradients can flow through the realized dropout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .imputer import ImputerModel, impute_batch, impute_multiple, impute_sample
from .masks import MissingState, round_half_up
from .policy import (
    PolicyModel,
    StepBatch,
    flatten_explore,
    masked_softmax,
    sample_actions,
)

ROLLOUT_MODES = ("explore", "stochastic", "greedy")


def horizon_for(d: int, missing_rate: float) -> int:
    """Measurements per episode; terminal observation count matches training."""
    if not (0.0 <= missing_rate < 1.0):
        raise ValueError(f"missing rate must lie in [0, 1), got {missing_rate}")
    return max(1, round_half_up(d * (1.0 - missing_rate)))


@dataclass
class RewardConfig:
    k: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class Episode:
    """Single-episode record: (state, action, log_prob) per step."""

    steps: list
    terminal_state: MissingState
    source: np.ndarray


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


def generate_complete(model: ImputerModel, x_m: MissingState,
                      rng: np.random.Generator) -> np.ndarray:
    """One pseudo-complete sample to serve as an episode's environment."""
    return impute_sample(model, x_m, rng)


def rollout_batch(
    policy: PolicyModel,
    x_bar: np.ndarray,
    horizon: int,
    mode: str,
    rng: np.random.Generator,
    explore_e: float = 0.1,
) -> Rollout:
    """Roll one episode per row of x_bar, all advancing together.

    explore: flattened distribution, dropout active.  stochastic: plain
    masked softmax, dropout active.  greedy: dropout-free argmax.
    """
    if mode not in ROLLOUT_MODES:
        raise ValueError(f"mode must be one of {ROLLOUT_MODES}, got {mode!r}")
    x_bar = np.atleast_2d(np.asarray(x_bar, dtype=np.float64))
    b, d = x_bar.shape
    if not (1 <= horizon <= d):
        raise ValueError(f"horizon must lie in [1, {d}], got {horizon}")

    # one (B, 2D) [values, masks] encoding per step: the actor input, the
    # step record's state and the critic input are all this array
    state = np.zeros((b, 2 * d))
    out = Rollout(x_bar=x_bar)
    rows = np.arange(b)
    fwd_mode = "eval" if mode == "greedy" else "train"
    for _ in range(horizon):
        masks = state[:, d:]
        scores, tape = nn.forward(policy.actor, state, mode=fwd_mode, rng=rng)
        if mode == "greedy":
            tape = None         # no gradient is taken through greedy steps
        probs = masked_softmax(scores, masks)
        if mode == "explore":
            sample_probs = flatten_explore(probs, masks, explore_e)
            actions = sample_actions(sample_probs, rng)
            e_used = explore_e
        elif mode == "stochastic":
            sample_probs = probs
            actions = sample_actions(sample_probs, rng)
            e_used = 0.0
        else:
            sample_probs = probs
            actions = np.argmax(np.where(masks == 0.0, scores, -np.inf), axis=1)
            e_used = 0.0
        out.steps.append(StepBatch(state, tape, probs, sample_probs, actions,
                                   explore_e=e_used))
        # recorded states are never written again; the next step gets its own
        state = state.copy()
        state[rows, actions] = x_bar[rows, actions]
        state[rows, d + actions] = 1.0
    out.terminal_values = state[:, :d]
    out.terminal_masks = state[:, d:]
    return out


def run_episode(
    policy: PolicyModel,
    x_bar: np.ndarray,
    horizon: int,
    mode: str,
    rng: np.random.Generator,
    explore_e: float = 0.1,
) -> Episode:
    """Single-episode wrapper over the batch engine."""
    roll = rollout_batch(policy, x_bar[None, :], horizon, mode, rng, explore_e)
    steps = []
    for s in roll.steps:
        a = int(s.actions[0])
        steps.append((
            MissingState(s.values[0].copy(), s.masks[0].copy()),
            a,
            float(np.log(s.sample_probs[0, a])),
        ))
    terminal = MissingState(roll.terminal_values[0], roll.terminal_masks[0])
    return Episode(steps=steps, terminal_state=terminal, source=np.asarray(x_bar))


def topk_rmse(candidates: np.ndarray, x_bar: np.ndarray) -> float:
    """Min over candidates of the root mean squared error over all coordinates."""
    candidates = np.atleast_2d(candidates)
    errs = np.sqrt(np.mean((candidates - x_bar) ** 2, axis=1))
    return float(errs.min())


def terminal_reward(
    model: ImputerModel,
    episode: Episode,
    cfg: RewardConfig,
    rng: np.random.Generator,
) -> float:
    """Negative top-k RMSE of imputations of the terminal state against x̄."""
    cands = impute_multiple(model, episode.terminal_state, cfg.k, rng)
    return -topk_rmse(cands, episode.source)


def terminal_rewards_batch(
    model: ImputerModel,
    rollout: Rollout,
    cfg: RewardConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-episode reward for a batch: k imputation draws per episode."""
    cands = impute_batch(model, rollout.terminal_values, rollout.terminal_masks, rng,
                         k=cfg.k)
    errs = np.sqrt(np.mean((cands - rollout.x_bar) ** 2, axis=2))
    return -errs.min(axis=0)


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
    """Tape-free rollout for baselines; records only the mask trajectory."""
    x_bar = np.atleast_2d(np.asarray(x_bar, dtype=np.float64))
    b, d = x_bar.shape
    if not (1 <= horizon <= d):
        raise ValueError(f"horizon must lie in [1, {d}], got {horizon}")
    values = np.zeros((b, d))
    masks = np.zeros((b, d))
    out = Rollout(x_bar=x_bar)
    rows = np.arange(b)
    for _ in range(horizon):
        actions = np.asarray(selector(values, masks, rng))
        if np.any(masks[rows, actions] == 1.0):
            raise RuntimeError("selector chose an already observed coordinate")
        # selectors return fresh actions and keep no reference to the state
        masks[rows, actions] = 1.0
        values[rows, actions] = x_bar[rows, actions]
    out.terminal_values = values
    out.terminal_masks = masks
    return out


def write_episode_trace(path, rollout: Rollout, rewards: np.ndarray) -> None:
    """CSV trace (episode_id, t, action, reward_at_terminal) for inspection."""
    with open(path, "w") as f:
        f.write("episode_id,t,action,reward_at_terminal\n")
        for t, s in enumerate(rollout.steps):
            for i in range(rollout.batch_size):
                f.write(f"{i},{t},{int(s.actions[i])},{repr(float(rewards[i]))}\n")
