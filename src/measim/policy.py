"""Measurement policy: masked categorical actor, critic baseline, REINFORCE.

The actor scores all coordinates; a masked softmax turns the scores into a
distribution over the still-unobserved ones, so already-measured coordinates
have exactly zero probability.  Exploration flattens that distribution toward
uniform over the unobserved coordinates only.  Policy stochasticity beyond
the categorical draw comes from actor dropout during rollouts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass
class PolicyModel:
    """Actor (state -> D scores) and critic (state -> value) with its optimizer."""

    actor: nn.DenseNet
    critic: nn.DenseNet
    critic_opt: nn.OptimizerState

    def __post_init__(self):
        if self.actor.in_dim != 2 * self.actor.out_dim:
            raise ValueError(
                f"actor maps {self.actor.in_dim} -> {self.actor.out_dim}; "
                "expected input 2D for output D"
            )
        if self.critic.in_dim != self.actor.in_dim or self.critic.out_dim != 1:
            raise ValueError("critic must map the same state encoding to a scalar")

    @property
    def d(self) -> int:
        return self.actor.out_dim

    def copy(self) -> "PolicyModel":
        return PolicyModel(self.actor.copy(), self.critic.copy(),
                           copy.deepcopy(self.critic_opt))


def build_policy(
    d: int,
    actor_hidden: tuple[int, ...] = (128, 128),
    critic_hidden: tuple[int, ...] = (64, 64),
    dropout: float = 0.1,
    critic_lr: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> PolicyModel:
    actor = nn.DenseNet([2 * d, *actor_hidden, d], hidden_activation="tanh",
                        dropout_rates=dropout, rng=rng)
    critic = nn.DenseNet([2 * d, *critic_hidden, 1], hidden_activation="tanh", rng=rng)
    return PolicyModel(actor, critic, nn.OptimizerState(kind="adam", lr=critic_lr))


def masked_softmax(scores: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(B, D) probs over unobserved coordinates, exact zeros on observed ones."""
    if np.any(masks.sum(axis=1) >= masks.shape[1]):
        raise ValueError("fully observed state has no legal action")
    unobs = masks == 0.0
    shifted = np.where(unobs, scores, -np.inf)
    peak = shifted.max(axis=1, keepdims=True)
    ex = np.where(unobs, np.exp(shifted - peak), 0.0)
    return ex / ex.sum(axis=1, keepdims=True)


def flatten_explore(probs: np.ndarray, masks: np.ndarray, e: float) -> np.ndarray:
    """Mix toward uniform over unobserved coordinates, then renormalize.

    u_i = (1-e) p_i + e (1-p_i) on unobserved coordinates; observed ones keep
    zero mass.  e is capped at 0.5: beyond that the map inverts preferences.
    """
    if not (0.0 <= e <= 0.5):
        raise ValueError(f"exploration rate must lie in [0, 0.5], got {e}")
    if e == 0.0:
        return probs.copy()
    u = np.where(masks == 0.0, (1.0 - e) * probs + e * (1.0 - probs), 0.0)
    return u / u.sum(axis=1, keepdims=True)


def unobserved_normalizer(masks: np.ndarray, e: float) -> np.ndarray:
    """Sum of the flattened (pre-normalization) weights: 1 - 2e + n_unobs * e.

    Constant in the actor parameters, which is what makes the exploring
    log-probability gradient a simple rescaling of the plain one.
    """
    n_unobs = (masks == 0.0).sum(axis=1)
    return 1.0 - 2.0 * e + n_unobs * e


def explore_coefficient(
    probs: np.ndarray,
    sample_probs: np.ndarray,
    actions: np.ndarray,
    masks: np.ndarray,
    e: float,
) -> np.ndarray:
    """Per-row scale c with d log pi_e(a)/d scores = c * (onehot(a) - pi).

    pi_e(a) = (e + (1-2e) pi_a) / Z with Z constant, so the chain rule gives
    c = (1-2e) pi_a / (Z pi_e(a)).  At e = 0 this is exactly 1.
    """
    if e == 0.0:
        return np.ones(probs.shape[0])
    rows = np.arange(probs.shape[0])
    p_a = probs[rows, actions]
    pe_a = sample_probs[rows, actions]
    z = unobserved_normalizer(masks, e)
    return (1.0 - 2.0 * e) * p_a / (z * pe_a)


def sample_actions(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row; zero-mass coordinates are unreachable.

    Selects the first index whose cumulative mass strictly exceeds u * total;
    a zero-mass coordinate repeats the previous cumulative value, so it can
    never be that first index.
    """
    cum = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0]) * cum[:, -1]
    return np.argmax(cum > u[:, None], axis=1)


@dataclass
class StepBatch:
    """One lockstep slice of a batched rollout, everything needed for grads.

    Steps of a rollout that takes no gradient (greedy, or grad=False) keep
    their actions alone; the other fields are None.
    """

    state: np.ndarray | None    # (B, 2D) encoding [values, masks] before the action
    tape: nn.Tape | None        # actor forward tape
    probs: np.ndarray | None    # (B, D) plain masked softmax
    sample_probs: np.ndarray | None  # (B, D) distribution that sampled the action
    actions: np.ndarray         # (B,) chosen coordinates
    explore_e: float = 0.0
    # (critic net, tape) of the latest critic forward on state; see critic_forward
    critic: tuple | None = None

    @property
    def values(self) -> np.ndarray:
        """(B, D) state values before the action, a view of state."""
        return self.state[:, :self.state.shape[1] // 2]

    @property
    def masks(self) -> np.ndarray:
        """(B, D) state masks before the action, a view of state."""
        return self.state[:, self.state.shape[1] // 2:]


@dataclass
class ReinforceConfig:
    beta: float = 1e-3
    normalize_advantages: bool = True
    explore_e: float = 0.1


def critic_forward(model: PolicyModel, step: StepBatch) -> nn.Tape:
    """Eval-mode critic forward on one step's states; V is tape.output[:, 0].

    advantages_for and critic_update both need V on the same states under the
    same critic parameters, so the tape is kept on the step and reused while
    it was taken with this critic at its current version (every parameter
    update bumps the version).
    """
    memo = step.critic
    if memo is not None and memo[0] is model.critic and memo[1].version == model.critic.version:
        return memo[1]
    _, tape = nn.forward(model.critic, step.state, mode="eval")
    step.critic = (model.critic, tape)
    return tape


def critic_values(model: PolicyModel, steps: list[StepBatch]) -> list[np.ndarray]:
    return [critic_forward(model, s).output[:, 0] for s in steps]


def advantages_for(
    model: PolicyModel,
    steps: list[StepBatch],
    rewards: np.ndarray,
    normalize: bool,
) -> list[np.ndarray]:
    """Terminal-only undiscounted reward: A_t = R - V(state_t) at every step."""
    rewards = np.asarray(rewards, dtype=np.float64)
    adv = [rewards - v for v in critic_values(model, steps)]
    if normalize and adv:
        flat = np.concatenate(adv)
        mu = flat.mean()
        sd = flat.std()
        adv = [(a - mu) / (sd + 1e-8) for a in adv]
    return adv


def actor_gradient(
    model: PolicyModel,
    steps: list[StepBatch],
    advantages: list[np.ndarray],
) -> list[np.ndarray]:
    """Gradient of -mean over steps of A * log p_sample(action | state)."""
    if len(steps) != len(advantages):
        raise ValueError(f"{len(steps)} step batches but {len(advantages)} advantage rows")
    n_total = sum(s.actions.shape[0] for s in steps)
    grads = [np.zeros_like(p) for p in model.actor.params()]
    for t, (s, a) in enumerate(zip(steps, advantages)):
        if s.tape is None:
            raise ValueError(f"step {t} has no actor tape; greedy and grad=False "
                             "steps take no gradient")
        b = s.actions.shape[0]
        if a.shape != (b,):
            raise ValueError(f"advantage shape {a.shape} != batch {b}")
        coef = explore_coefficient(s.probs, s.sample_probs, s.actions, s.masks,
                                   s.explore_e)
        onehot = np.zeros_like(s.probs)
        onehot[np.arange(b), s.actions] = 1.0
        upstream = -(a * coef)[:, None] * (onehot - s.probs) / n_total
        g = nn.backward(model.actor, s.tape, upstream)
        for acc, gi in zip(grads, g):
            acc += gi
    return grads


def critic_update(model: PolicyModel, steps: list[StepBatch], rewards: np.ndarray) -> float:
    """One optimizer step of squared error from V(state) to the episode reward."""
    rewards = np.asarray(rewards, dtype=np.float64)
    n_total = sum(s.actions.shape[0] for s in steps)
    grads = [np.zeros_like(p) for p in model.critic.params()]
    total = 0.0
    for s in steps:
        tape = critic_forward(model, s)
        diff = tape.output[:, 0] - rewards
        total += float((diff ** 2).sum())
        g = nn.backward(model.critic, tape, (2.0 * diff / n_total)[:, None])
        for acc, gi in zip(grads, g):
            acc += gi
    model.critic.step(grads, model.critic_opt)
    return total / n_total


def reinforce_update(
    model: PolicyModel,
    steps: list[StepBatch],
    rewards: np.ndarray,
    cfg: ReinforceConfig,
) -> dict:
    """Critic fit + one plain gradient step on the actor surrogate.

    Advantages use the critic as it stood before this update.
    """
    adv = advantages_for(model, steps, rewards, cfg.normalize_advantages)
    critic_loss = critic_update(model, steps, rewards)
    grads = actor_gradient(model, steps, adv)
    model.actor.step(grads, nn.OptimizerState(kind="sgd", lr=cfg.beta))
    return {
        "mean_reward": float(np.mean(rewards)),
        "critic_loss": critic_loss,
        "actor_grad_norm": float(np.sqrt(sum((g ** 2).sum() for g in grads))),
    }


def save_policy(model: PolicyModel, actor_path, critic_path) -> None:
    nn.save_checkpoint(model.actor, actor_path, role=nn.ROLE_ACTOR)
    nn.save_checkpoint(model.critic, critic_path, role=nn.ROLE_CRITIC)


def load_policy(actor_path, critic_path,
                critic_opt: nn.OptimizerState | None = None) -> PolicyModel:
    actor, role_a = nn.load_checkpoint(actor_path)
    if role_a != nn.ROLE_ACTOR:
        raise ValueError(f"checkpoint role {role_a} is not an actor checkpoint")
    critic, role_c = nn.load_checkpoint(critic_path)
    if role_c != nn.ROLE_CRITIC:
        raise ValueError(f"checkpoint role {role_c} is not a critic checkpoint")
    if critic_opt is None:
        critic_opt = nn.OptimizerState(kind="adam", lr=1e-3)
    return PolicyModel(actor, critic, critic_opt)
