"""Joint training loop: policy and imputer learned together from missing data.

One outer iteration runs three episode sets against generated complete
vectors.  E1 explores with a flattened distribution and is rewarded by the
current imputer.  A hypothetical imputer update (phi_new) is computed from
E1 terminals without touching the real imputer; E2 runs the unflattened
policy and is rewarded by phi_new, giving the actor a second gradient term
that credits measurement choices for how well the imputer can adapt to
them.  The actor steps on beta * (E1 term) + beta_prime * (E2 term).  E3
then runs the updated policy and its terminal states drive the real imputer
update; phi_new is discarded.

Ablations: "no_meta" drops the hypothetical-update machinery (E2 term),
"no_adaptation" additionally freezes the imputer during the loop, leaving a
plain REINFORCE trained against the pretrained imputer; the imputer is
fine-tuned afterwards via finetune_after.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import typing
from dataclasses import dataclass, field

import numpy as np

from . import helper, nn, rngs
from .episodes import (
    RewardConfig,
    Rollout,
    horizon_for,
    rollout_batch,
    terminal_rewards_batch,
    write_episode_trace,
)
from .imputer import (
    VARIANTS,
    ImputerLossConfig,
    ImputerModel,
    adapt_step,
    build_imputer,
    impute_batch,
    pretrain,
    save_imputer,
)
from .masks import MissingDataset
from .policy import (
    PolicyModel,
    ReinforceConfig,
    actor_gradient,
    advantages_for,
    build_policy,
    critic_update,
    reinforce_update,
    save_policy,
)

ABLATIONS = ("full", "no_meta", "no_adaptation")

RUN_CSV_SCHEMA = "# measim-run v1"
RUN_CSV_HEADER = "iteration,reward_e1,reward_e2,critic_loss,imputer_unsup,imputer_sup"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class JointConfig:
    """Everything needed to reproduce a run, flat enough for a key=value file."""

    missing_rate: float = 0.9
    seed: int = 0
    ablation: str = "full"
    # imputer step sizes: alpha scales the self-masking term, alpha_prime the
    # generated-truth term on episode terminal states
    alpha: float = 1e-3
    alpha_prime: float = 1e-3
    # actor step sizes for the E1 (exploration) and E2 (post-adaptation) terms;
    # advantages are normalized to unit scale, so useful steps sit far above
    # the raw-gradient magnitudes one might expect
    beta: float = 10.0
    beta_prime: float = 1.0
    explore_e: float = 0.1
    k_reward: int = 3
    batch_size: int = 64
    iterations: int = 2000
    # 0 disables the plateau check; per-window reward gains are smaller than
    # any noise-robust tolerance on the default task, so stopping is opt-in
    early_stop_window: int = 0
    early_stop_tol: float = 1e-4
    normalize_advantages: bool = True
    # imputer architecture and pretraining
    variant: str = "sinusoid"
    noise_dim: int = 8
    imputer_hidden: tuple[int, ...] = (128, 128)
    self_mask_fraction: float = 0.5
    smoothness_weight: float = 0.1
    gaussian_kernel_sigma: float = 1.0
    pretrain_epochs: int = 150
    pretrain_lr: float = 3e-3
    pretrain_batch: int = 64
    # policy architecture
    actor_hidden: tuple[int, ...] = (128, 128)
    critic_hidden: tuple[int, ...] = (64, 64)
    dropout: float = 0.1
    critic_lr: float = 1e-3
    # imputer fine-tune after a frozen-imputer run
    finetune_iterations: int = 100

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        for name in ("alpha", "alpha_prime", "beta", "beta_prime",
                     "pretrain_lr", "critic_lr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # the ablations are defined as dropping the E2 term entirely
        if self.ablation != "full" and self.beta_prime != 0.0:
            raise ValueError(f"ablation {self.ablation!r} requires beta_prime == 0")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        if not 0.0 <= self.explore_e <= 0.5:
            raise ValueError("explore_e must lie in [0, 0.5]")
        if self.k_reward < 1:
            raise ValueError("k_reward must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0 or self.finetune_iterations < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.early_stop_window < 0:
            raise ValueError("early_stop_window must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        for name in ("imputer_hidden", "actor_hidden", "critic_hidden"):
            if any(size <= 0 for size in getattr(self, name)):
                raise ValueError(f"{name} sizes must be > 0, got {getattr(self, name)}")
        if self.noise_dim < 1:
            raise ValueError("noise_dim must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if self.pretrain_batch < 1:
            raise ValueError("pretrain_batch must be >= 1")

    def loss_config(self) -> ImputerLossConfig:
        return ImputerLossConfig(
            self_mask_fraction=self.self_mask_fraction,
            smoothness_weight=self.smoothness_weight,
            gaussian_kernel_sigma=self.gaussian_kernel_sigma,
        )

    def reinforce_config(self) -> ReinforceConfig:
        return ReinforceConfig(beta=self.beta,
                               normalize_advantages=self.normalize_advantages,
                               explore_e=self.explore_e)


# ---------------------------------------------------------------------------
# config file round-trip


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(str(int(v)) for v in value)
    return str(value)


def config_to_text(cfg: JointConfig) -> str:
    lines = ["# joint training configuration"]
    for f in dataclasses.fields(cfg):
        lines.append(f"{f.name}={_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def _parse_value(raw: str, hint) -> object:
    if hint is bool:
        if raw not in ("true", "false"):
            raise ValueError(f"expected true/false, got {raw!r}")
        return raw == "true"
    if hint is int:
        return int(raw)
    if hint is float:
        return float(raw)
    if typing.get_origin(hint) is tuple:
        if raw == "":
            return ()
        return tuple(int(part) for part in raw.split(","))
    return raw


def parse_config(text: str) -> JointConfig:
    hints = typing.get_type_hints(JointConfig)
    known = {f.name for f in dataclasses.fields(JointConfig)}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(raw.strip(), hints[key])
    return JointConfig(**values)


def write_config(cfg: JointConfig, path) -> None:
    with open(path, "w") as f:
        f.write(config_to_text(cfg))


def load_config(path) -> JointConfig:
    with open(path) as f:
        return parse_config(f.read())


# ---------------------------------------------------------------------------
# run records


@dataclass
class IterationStats:
    iteration: int
    reward_e1: float
    reward_e2: float = float("nan")
    critic_loss: float = float("nan")
    imputer_unsup: float = float("nan")
    imputer_sup: float = float("nan")


@dataclass
class RunRecord:
    config: JointConfig
    stats: list[IterationStats] = field(default_factory=list)
    checksums: dict = field(default_factory=dict)
    stopped_early: bool = False

    @property
    def rewards(self) -> list[float]:
        return [s.reward_e1 for s in self.stats]


def params_checksum(net: nn.DenseNet) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in net.params():
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def write_run_csv(record: RunRecord, path) -> None:
    with open(path, "w") as f:
        f.write(RUN_CSV_SCHEMA + "\n")
        f.write(RUN_CSV_HEADER + "\n")
        for s in record.stats:
            f.write(f"{s.iteration},{repr(float(s.reward_e1))},"
                    f"{repr(float(s.reward_e2))},{repr(float(s.critic_loss))},"
                    f"{repr(float(s.imputer_unsup))},{repr(float(s.imputer_sup))}\n")
        f.write(f"# seed={record.config.seed}\n")
        f.write(f"# stopped_early={'true' if record.stopped_early else 'false'}\n")
        for name in sorted(record.checksums):
            f.write(f"# checksum {name}={record.checksums[name]}\n")


def load_run_csv(path) -> tuple[list[IterationStats], dict]:
    """Parse a run log back into rows and its trailing metadata comments."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != RUN_CSV_SCHEMA:
        raise ValueError(f"{path} is not a run log (missing schema line)")
    if len(lines) < 2 or lines[1] != RUN_CSV_HEADER:
        raise ValueError(f"{path} has an unexpected header")
    stats: list[IterationStats] = []
    meta: dict = {}
    for line in lines[2:]:
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("checksum "):
                name, _, value = body[len("checksum "):].partition("=")
                meta.setdefault("checksums", {})[name] = value
            elif "=" in body:
                key, _, value = body.partition("=")
                meta[key] = value
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"bad run log row: {line!r}")
        stats.append(IterationStats(int(parts[0]), *(float(p) for p in parts[1:])))
    return stats, meta


def environment_manifest() -> dict:
    """The numeric environment a run's bytes depend on.

    The same seed gives the same run.csv only under the same NumPy, BLAS and
    BLAS thread count; this records them.  The BLAS entry needs
    np.show_config(mode="dicts") (NumPy >= 1.25) and is null without it.
    """
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def write_environment(path) -> None:
    with open(path, "w") as f:
        json.dump(environment_manifest(), f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# loop helpers


def draw_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Minibatch indices; sampling is without replacement when n allows it."""
    return rng.choice(n, size=size, replace=size > n)


def plateaued(rewards: list[float], window: int, tol: float) -> bool:
    """True once the trailing moving average stops improving on the previous one."""
    if window <= 0 or len(rewards) < 2 * window:
        return False
    recent = float(np.mean(rewards[-window:]))
    previous = float(np.mean(rewards[-2 * window:-window]))
    return recent <= previous + tol


def _require_finite(x, what: str, iteration: int) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite {what} at iteration {iteration}")


def _apply_actor_terms(policy: PolicyModel, terms: list[tuple[float, list[np.ndarray]]]) -> None:
    # zero-weight terms are skipped outright so they cannot perturb bits
    params = policy.actor.params()
    stepped = False
    for weight, grads in terms:
        if weight == 0.0:
            continue
        for p, g in zip(params, grads):
            p -= weight * g
        stepped = True
    if stepped:
        policy.actor.version += 1


class _E2Chain:
    """The joint loop's E2 chain: roll the E2 set, then form its actor term.

    Per iteration: start(policy, xbar, i), terminal_state() for the E2
    rewards, reward(r2), then gradient().  The term reads the critic before
    its update, so reward() forms it at once.  This runs the chain in the
    training process; _E2Helper runs the same object in a helper process.
    """

    def __init__(self, policy: PolicyModel, horizon: int, seed: int, normalize: bool):
        self.policy = policy
        self._horizon, self._seed, self._normalize = horizon, seed, normalize
        self._job: tuple[np.ndarray, int] | None = None
        self._roll: Rollout | None = None
        self._grad: list[np.ndarray] | None = None

    def start(self, policy: PolicyModel, xbar: np.ndarray, i: int) -> None:
        """Take iteration i's E2 set; policy is the one this chain rolls."""
        self._job = (xbar, i)

    def terminal_state(self) -> tuple[np.ndarray, np.ndarray]:
        xbar, i = self._job
        self._roll = rollout_batch(self.policy, xbar, self._horizon, "stochastic",
                                   rngs.substream(self._seed, rngs.EPISODE_2, i))
        return self._roll.terminal_values, self._roll.terminal_masks

    def reward(self, rewards: np.ndarray) -> None:
        adv = advantages_for(self.policy, self._roll.steps, rewards, self._normalize)
        self._grad = actor_gradient(self.policy, self._roll.steps, adv)
        # spent: release before the next rollout records its own
        self._roll = None

    def gradient(self) -> list[np.ndarray]:
        grad, self._grad = self._grad, None
        return grad

    def close(self) -> None:
        pass


def _serve_e2(chain: _E2Chain, request):
    """One E2 request, answered in the helper process.

    ("roll", actor params, critic params, xbar, i) loads the parameters into
    the helper's copy of the policy, rolls E2 and returns its terminal state;
    ("reward", r2) returns the actor-gradient term.
    """
    kind, *args = request
    if kind == "reward":
        chain.reward(*args)
        return chain.gradient()
    actor_params, critic_params, xbar, i = args
    policy = chain.policy
    for net, params in ((policy.actor, actor_params), (policy.critic, critic_params)):
        for p, src in zip(net.params(), params):
            p[...] = src
        net.version += 1
    chain.start(policy, xbar, i)
    return chain.terminal_state()


class _E2Helper:
    """The joint loop's E2 chain in a forked helper process, beside E1."""

    def __init__(self, chain: _E2Chain):
        self._helper = helper.Helper("measim-e2", functools.partial(_serve_e2, chain))

    def start(self, policy: PolicyModel, xbar: np.ndarray, i: int) -> None:
        """Roll iteration i's E2 set under the policy's current parameters."""
        self._helper.send(("roll", policy.actor.params(), policy.critic.params(), xbar, i))

    def terminal_state(self) -> tuple[np.ndarray, np.ndarray]:
        return self._helper.recv()

    def reward(self, rewards: np.ndarray) -> None:
        self._helper.send(("reward", rewards))

    def gradient(self) -> list[np.ndarray]:
        return self._helper.recv()

    def close(self) -> None:
        self._helper.close()


def pretrain_imputer(cfg: JointConfig, dataset: MissingDataset) -> tuple[ImputerModel, list[float]]:
    """Build and pretrain an imputer per the config, on the self-masking loss alone."""
    model = build_imputer(dataset.dim, cfg.variant, noise_dim=cfg.noise_dim,
                          hidden=cfg.imputer_hidden,
                          rng=rngs.substream(cfg.seed, rngs.INIT_IMPUTER))
    curve = pretrain(model, dataset.values, dataset.masks, cfg.pretrain_epochs,
                     nn.OptimizerState(kind="adam", lr=cfg.pretrain_lr),
                     cfg.loss_config(), rngs.substream(cfg.seed, rngs.PRETRAIN),
                     batch_size=cfg.pretrain_batch)
    return model, curve


# ---------------------------------------------------------------------------
# the joint loop


def joint_train(
    cfg: JointConfig,
    dataset: MissingDataset,
    imputer: ImputerModel | None = None,
    out_dir=None,
    trace_episodes: bool = False,
) -> tuple[PolicyModel, ImputerModel, RunRecord]:
    """Train policy and imputer together on missing-only data.

    Pass a pretrained imputer to skip pretraining; the argument is copied,
    never mutated.  Per outer iteration: generate a complete batch, roll and
    reward the exploration set E1, form the hypothetical imputer phi_new from
    E1 terminals, roll E2 under the unflattened policy and reward it against
    phi_new, step the actor on both terms, then roll E3 under the updated
    policy and step the real imputer on its terminals.  phi_new is discarded
    every iteration.

    With an E2 set (ablation "full" and at least one iteration) and a CPU
    core the BLAS leaves free (it is pinned to one thread and two CPUs are
    usable), a forked helper process runs the E2 chain, the rollout and its
    actor-gradient term under the pre-update actor and critic, while this
    process rolls and rewards E1, forms phi_new, rewards E2 and fits the
    critic.  The helper computes under the same numeric environment, so
    every output bit is the same as running the chain here, which is what
    happens when no core is free.  It is started before the first iteration
    and stopped on every exit, error and interrupt included.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    d = dataset.dim
    horizon = horizon_for(d, cfg.missing_rate)
    loss_cfg = cfg.loss_config()
    reward_cfg = RewardConfig(k=cfg.k_reward)
    seed = cfg.seed

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_config(cfg, os.path.join(out_dir, "config.txt"))
        write_environment(os.path.join(out_dir, "environment.json"))

    if imputer is None:
        imputer, _ = pretrain_imputer(cfg, dataset)
    else:
        if imputer.d != d:
            raise ValueError(f"imputer dimension {imputer.d} != dataset dimension {d}")
        imputer = imputer.copy()

    policy = build_policy(d, actor_hidden=cfg.actor_hidden,
                          critic_hidden=cfg.critic_hidden, dropout=cfg.dropout,
                          critic_lr=cfg.critic_lr,
                          rng=rngs.substream(seed, rngs.INIT_POLICY))

    record = RunRecord(config=cfg)
    adapt = cfg.ablation != "no_adaptation"
    last_roll: Rollout | None = None
    last_rewards: np.ndarray | None = None

    # the E2 set (ablation "full" only) reads nothing E1 produces except its
    # reward model, so where a core is free its chain runs beside E1 in a
    # helper process
    e2 = None
    if cfg.ablation == "full" and cfg.iterations > 0:
        e2 = _E2Chain(policy, horizon, seed, cfg.normalize_advantages)
        if helper.core_for_helper():
            e2 = _E2Helper(e2)
    try:
        for i in range(cfg.iterations):
            idx = draw_batch(n, cfg.batch_size, rngs.substream(seed, rngs.BATCH, i))
            mv = dataset.values[idx]
            mm = dataset.masks[idx]

            # (1) one generated complete vector per missing example
            xbar = impute_batch(imputer, mv, mm, rngs.substream(seed, rngs.XBAR, i))
            if e2 is not None:
                e2.start(policy, xbar, i)

            # (2) exploration episodes, rewarded by the current imputer
            roll1 = rollout_batch(policy, xbar, horizon, "explore",
                                  rngs.substream(seed, rngs.EPISODE_1, i), cfg.explore_e)
            r1 = terminal_rewards_batch(imputer, roll1, reward_cfg,
                                        rngs.substream(seed, rngs.REWARD_1, i))
            _require_finite(r1, "reward", i)

            r2 = None
            if e2 is not None:
                # (3) hypothetical adaptation; the real imputer is untouched
                phi_new, _ = adapt_step(imputer, mv, mm,
                                        roll1.terminal_values, roll1.terminal_masks, xbar,
                                        cfg.alpha, cfg.alpha_prime, loss_cfg,
                                        rngs.substream(seed, rngs.ADAPT_META, i, 0),
                                        rngs.substream(seed, rngs.ADAPT_META, i, 1))
                # (4) unflattened episodes, rewarded by the adapted imputer
                terminal_values, terminal_masks = e2.terminal_state()
                roll2 = Rollout(x_bar=xbar, terminal_values=terminal_values,
                                terminal_masks=terminal_masks)
                r2 = terminal_rewards_batch(phi_new, roll2, reward_cfg,
                                            rngs.substream(seed, rngs.REWARD_2, i))
                _require_finite(r2, "reward", i)
                e2.reward(r2)

            # (5) two-term actor step; advantages use the critic before its
            # update, for the E2 term too
            adv1 = advantages_for(policy, roll1.steps, r1, cfg.normalize_advantages)
            terms = [(cfg.beta, actor_gradient(policy, roll1.steps, adv1))]
            critic_loss = critic_update(policy, roll1.steps, r1)
            _require_finite(critic_loss, "loss", i)
            if e2 is not None:
                terms.append((cfg.beta_prime, e2.gradient()))
            _apply_actor_terms(policy, terms)
            # E1's steps, tapes and critic memos are spent: release them before
            # E3 records its own
            if trace_episodes:
                last_roll, last_rewards = roll1, r1
            roll1 = None

            unsup = sup = float("nan")
            if adapt:
                # (6) episodes from the updated policy feed the real update
                roll3 = rollout_batch(policy, xbar, horizon, "stochastic",
                                      rngs.substream(seed, rngs.EPISODE_3, i), grad=False)
                # (7) the one mutation of the imputer this iteration
                imputer, losses = adapt_step(imputer, mv, mm,
                                             roll3.terminal_values, roll3.terminal_masks,
                                             xbar, cfg.alpha, cfg.alpha_prime, loss_cfg,
                                             rngs.substream(seed, rngs.ADAPT_REAL, i, 0),
                                             rngs.substream(seed, rngs.ADAPT_REAL, i, 1))
                unsup, sup = losses["unsupervised"], losses["supervised"]
                _require_finite([unsup, sup], "loss", i)
                roll3 = None

            record.stats.append(IterationStats(
                iteration=i,
                reward_e1=float(np.mean(r1)),
                reward_e2=float(np.mean(r2)) if r2 is not None else float("nan"),
                critic_loss=critic_loss,
                imputer_unsup=unsup,
                imputer_sup=sup,
            ))

            if plateaued(record.rewards, cfg.early_stop_window, cfg.early_stop_tol):
                record.stopped_early = True
                break
    finally:
        if e2 is not None:
            e2.close()

    record.checksums = {
        "actor": params_checksum(policy.actor),
        "critic": params_checksum(policy.critic),
        "imputer": params_checksum(imputer.net),
    }

    if out_dir is not None:
        write_run_csv(record, os.path.join(out_dir, "run.csv"))
        save_policy(policy, os.path.join(out_dir, "actor.ckpt"),
                    os.path.join(out_dir, "critic.ckpt"))
        save_imputer(imputer, os.path.join(out_dir, "imputer.ckpt"))
        if trace_episodes and last_roll is not None:
            write_episode_trace(os.path.join(out_dir, "episodes.csv"),
                                last_roll, last_rewards)

    return policy, imputer, record


def plain_reinforce_train(
    cfg: JointConfig,
    dataset: MissingDataset,
    imputer: ImputerModel,
) -> tuple[PolicyModel, list[float]]:
    """REINFORCE against a fixed imputer: no meta term, no imputer updates.

    Draws from the same named substreams as the joint loop so the two can be
    compared trajectory-for-trajectory when the extra terms are zeroed.
    """
    n = len(dataset)
    d = dataset.dim
    horizon = horizon_for(d, cfg.missing_rate)
    seed = cfg.seed
    policy = build_policy(d, actor_hidden=cfg.actor_hidden,
                          critic_hidden=cfg.critic_hidden, dropout=cfg.dropout,
                          critic_lr=cfg.critic_lr,
                          rng=rngs.substream(seed, rngs.INIT_POLICY))
    rcfg = cfg.reinforce_config()
    reward_cfg = RewardConfig(k=cfg.k_reward)
    rewards: list[float] = []
    for i in range(cfg.iterations):
        idx = draw_batch(n, cfg.batch_size, rngs.substream(seed, rngs.BATCH, i))
        xbar = impute_batch(imputer, dataset.values[idx], dataset.masks[idx],
                            rngs.substream(seed, rngs.XBAR, i))
        roll = rollout_batch(policy, xbar, horizon, "explore",
                             rngs.substream(seed, rngs.EPISODE_1, i), cfg.explore_e)
        r = terminal_rewards_batch(imputer, roll, reward_cfg,
                                   rngs.substream(seed, rngs.REWARD_1, i))
        _require_finite(r, "reward", i)
        reinforce_update(policy, roll.steps, r, rcfg)
        rewards.append(float(np.mean(r)))
        if plateaued(rewards, cfg.early_stop_window, cfg.early_stop_tol):
            break
    return policy, rewards


def finetune_after(
    policy: PolicyModel,
    imputer: ImputerModel,
    cfg: JointConfig,
    dataset: MissingDataset,
) -> ImputerModel:
    """Adapt the imputer to a frozen, already-trained policy.

    Runs cfg.finetune_iterations rounds of: generate a complete batch, roll
    the policy without exploration, and take one combined-loss step on the
    terminal states.  Returns a new imputer; neither argument is mutated.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    d = dataset.dim
    horizon = horizon_for(d, cfg.missing_rate)
    loss_cfg = cfg.loss_config()
    seed = cfg.seed
    model = imputer.copy()
    for i in range(cfg.finetune_iterations):
        idx = draw_batch(n, cfg.batch_size, rngs.substream(seed, rngs.FINETUNE, i, 0))
        mv = dataset.values[idx]
        mm = dataset.masks[idx]
        xbar = impute_batch(model, mv, mm, rngs.substream(seed, rngs.FINETUNE, i, 1))
        roll = rollout_batch(policy, xbar, horizon, "stochastic",
                             rngs.substream(seed, rngs.FINETUNE, i, 2), grad=False)
        model, losses = adapt_step(model, mv, mm,
                                   roll.terminal_values, roll.terminal_masks, xbar,
                                   cfg.alpha, cfg.alpha_prime, loss_cfg,
                                   rngs.substream(seed, rngs.FINETUNE, i, 3),
                                   rngs.substream(seed, rngs.FINETUNE, i, 4))
        if not np.isfinite(losses["unsupervised"]) or not np.isfinite(losses["supervised"]):
            raise FloatingPointError(f"non-finite loss at fine-tune iteration {i}")
    return model


def run_training(
    cfg: JointConfig,
    dataset: MissingDataset,
    out_dir=None,
    imputer: ImputerModel | None = None,
    trace_episodes: bool = False,
) -> tuple[PolicyModel, ImputerModel, RunRecord]:
    """joint_train plus the deferred fine-tune that no_adaptation calls for."""
    policy, trained_imputer, record = joint_train(cfg, dataset, imputer=imputer,
                                                  out_dir=out_dir,
                                                  trace_episodes=trace_episodes)
    if cfg.ablation == "no_adaptation" and cfg.finetune_iterations > 0:
        trained_imputer = finetune_after(policy, trained_imputer, cfg, dataset)
        record.checksums["imputer"] = params_checksum(trained_imputer.net)
        if out_dir is not None:
            save_imputer(trained_imputer, os.path.join(out_dir, "imputer.ckpt"))
            write_run_csv(record, os.path.join(out_dir, "run.csv"))
    return policy, trained_imputer, record
