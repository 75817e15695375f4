"""Measurement policy: masked categorical actor, critic baseline, REINFORCE.

The actor scores all coordinates; a masked softmax turns the scores into a
distribution over the still-unobserved ones, so already-measured coordinates
have exactly zero probability.  Exploration flattens that distribution toward
uniform over the unobserved coordinates only.  Policy stochasticity beyond
the categorical draw comes from actor dropout during rollouts.

Actor and critic compute in float32 (POLICY_DTYPE), and a kept step's state
is their input; probabilities, rewards and advantages stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

POLICY_DTYPE = np.float32


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


def build_policy(
    d: int,
    actor_hidden: tuple[int, ...] = (128, 128),
    critic_hidden: tuple[int, ...] = (64, 64),
    dropout: float = 0.1,
    critic_lr: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> PolicyModel:
    actor = nn.DenseNet([2 * d, *actor_hidden, d], hidden_activation="tanh",
                        dropout_rates=dropout, rng=rng, dtype=POLICY_DTYPE)
    critic = nn.DenseNet([2 * d, *critic_hidden, 1], hidden_activation="tanh", rng=rng,
                         dtype=POLICY_DTYPE)
    return PolicyModel(actor, critic, nn.OptimizerState(kind="adam", lr=critic_lr))


def masked_softmax(scores: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(B, D) float64 probs over unobserved coordinates, exact zeros on
    observed ones.  Scores of any float dtype are upcast before the exp."""
    if np.any(masks.sum(axis=1) >= masks.shape[1]):
        raise ValueError("fully observed state has no legal action")
    unobs = masks == 0.0
    shifted = np.where(unobs, np.asarray(scores, dtype=np.float64), -np.inf)
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

    state is the actor's input, in its dtype: the same array as
    tape.inputs[0].  Steps of a rollout that takes no gradient (greedy, or
    grad=False) keep their actions alone; the other fields are None.
    """

    state: np.ndarray | None    # (B, 2D) actor input [values, masks] before the action
    tape: nn.Tape | None        # actor forward tape
    probs: np.ndarray | None    # (B, D) plain masked softmax
    sample_probs: np.ndarray | None  # (B, D) distribution that sampled the action
    actions: np.ndarray         # (B,) chosen coordinates
    explore_e: float = 0.0

    @property
    def values(self) -> np.ndarray:
        """(B, D) state values before the action, a view of state."""
        return self.state[:, :self.state.shape[1] // 2]

    @property
    def masks(self) -> np.ndarray:
        """(B, D) state masks before the action, a view of state."""
        return self.state[:, self.state.shape[1] // 2:]


def _advantages(rewards: np.ndarray, values: list[np.ndarray],
                normalize: bool) -> list[np.ndarray]:
    adv = [rewards - v for v in values]
    if normalize and adv:
        flat = np.concatenate(adv)
        mu = flat.mean()
        sd = flat.std()
        adv = [(a - mu) / (sd + 1e-8) for a in adv]
    return adv


def advantages_for(
    model: PolicyModel,
    steps: list[StepBatch],
    rewards: np.ndarray,
    normalize: bool,
) -> list[np.ndarray]:
    """Terminal-only undiscounted reward: A_t = R - V(state_t) at every step.

    One eval-mode critic forward per step, kept nowhere.  For steps whose
    critic is not also being fitted; critic_update returns the same
    advantages from its own forward.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = [nn.forward(model.critic, s.state, mode="eval")[0][:, 0] for s in steps]
    return _advantages(rewards, values, normalize)


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


def critic_update(
    model: PolicyModel,
    steps: list[StepBatch],
    rewards: np.ndarray,
    normalize: bool,
) -> tuple[float, list[np.ndarray]]:
    """One optimizer step of squared error from V(state) to the episode reward.

    Returns (loss, advantages).  The advantages are advantages_for's, from
    the values of this update's one critic forward per step, taken before
    the step.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    n_total = sum(s.actions.shape[0] for s in steps)
    grads = [np.zeros_like(p) for p in model.critic.params()]
    total = 0.0
    values = []
    for s in steps:
        out, tape = nn.forward(model.critic, s.state, mode="eval")
        values.append(out[:, 0])
        diff = out[:, 0] - rewards
        total += float((diff ** 2).sum())
        g = nn.backward(model.critic, tape, (2.0 * diff / n_total)[:, None])
        for acc, gi in zip(grads, g):
            acc += gi
    model.critic.step(grads, model.critic_opt)
    return total / n_total, _advantages(rewards, values, normalize)


def reinforce_update(
    model: PolicyModel,
    steps: list[StepBatch],
    rewards: np.ndarray,
    beta: float,
    normalize: bool,
) -> None:
    """Critic fit + one plain SGD step of rate beta on the actor surrogate.

    Advantages use the critic as it stood before this update.
    """
    _, adv = critic_update(model, steps, rewards, normalize)
    grads = actor_gradient(model, steps, adv)
    model.actor.step(grads, nn.OptimizerState(kind="sgd", lr=beta))


def save_policy(model: PolicyModel, actor_path, critic_path) -> None:
    nn.save_checkpoint(model.actor, actor_path, role=nn.ROLE_ACTOR)
    nn.save_checkpoint(model.critic, critic_path, role=nn.ROLE_CRITIC)


def load_policy(actor_path, critic_path) -> PolicyModel:
    """The nets in the dtype their checkpoints record, never cast: float32
    for a policy build_policy made, so a reloaded run evaluates to the bits
    of the policy it saved.  A version 1 checkpoint loads as the float64 net
    it holds.  The critic gets a fresh Adam optimizer at lr 1e-3."""
    actor, role_a = nn.load_checkpoint(actor_path)
    if role_a != nn.ROLE_ACTOR:
        raise ValueError(f"checkpoint role {role_a} is not an actor checkpoint")
    critic, role_c = nn.load_checkpoint(critic_path)
    if role_c != nn.ROLE_CRITIC:
        raise ValueError(f"checkpoint role {role_c} is not a critic checkpoint")
    return PolicyModel(actor, critic, nn.OptimizerState(kind="adam", lr=1e-3))
