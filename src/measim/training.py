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
plain REINFORCE trained against the pretrained imputer; joint_train then
fine-tunes the imputer to the trained policy by repeating the loop's
minibatch and E3 step alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import typing
from dataclasses import dataclass, field

import numpy as np

from . import helper, nn, rngs
from .episodes import (
    RowDraws,
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
    any_row_observes_two,
    build_imputer,
    impute_batch,
    pretrain,
    save_imputer,
)
from .masks import MissingDataset
from .policy import (
    PolicyModel,
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        self.loss_config()   # checks the imputer loss settings

    def adapts_imputer(self) -> bool:
        """Whether joint_train steps the imputer: in the loop ("full",
        "no_meta") or in the fine-tune after it ("no_adaptation")."""
        if self.ablation == "no_adaptation":
            return self.finetune_iterations > 0
        return self.iterations > 0

    def loss_config(self) -> ImputerLossConfig:
        return ImputerLossConfig(
            self_mask_fraction=self.self_mask_fraction,
            smoothness_weight=self.smoothness_weight,
            gaussian_kernel_sigma=self.gaussian_kernel_sigma,
        )


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
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise ValueError(f"line {lineno}: config key {key!r} set twice "
                             f"(first on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = _parse_value(raw.strip(), hints[key])
        except ValueError as e:
            raise ValueError(f"line {lineno}: {key}: {e}") from None
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

    The same seed gives the same run.csv only under the same NumPy and BLAS;
    this records them and the BLAS thread count.  The BLAS entry needs
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
        "blas_threads": helper.blas_threads(),
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


@dataclass
class _Loop:
    """What a joint run's iterations and fine-tune rounds share: the config,
    the training data and the episode horizon, and the models they step.
    The critic's Adam moments live in policy.critic_opt."""

    cfg: JointConfig
    dataset: MissingDataset
    horizon: int
    policy: PolicyModel
    imputer: ImputerModel


def _minibatch(loop: _Loop, rng_batch, rng_xbar):
    """A minibatch drawn with rng_batch and one complete vector x-bar per row,
    generated by the loop's imputer with rng_xbar; (values, masks, xbar)."""
    idx = draw_batch(len(loop.dataset), loop.cfg.batch_size, rng_batch)
    mv, mm = loop.dataset.values[idx], loop.dataset.masks[idx]
    return mv, mm, impute_batch(loop.imputer, mv, mm, rng_xbar)


def _adapt_round(loop: _Loop, mv, mm, xbar, roll_rng, rng_unsup, rng_sup,
                 iteration: int) -> tuple[float, float]:
    """The joint loop's E3 step and one fine-tune round: roll the policy
    stochastically with no records, step loop.imputer once (adapt_step) on
    the terminal states, and require both losses finite; (unsup, sup).
    helper.split shares the rollout's rows (_e3_rows); each part draws the
    whole batch's uniforms and keeps its rows, so the bits are those of
    rolling the whole batch at once.
    """
    cfg, policy = loop.cfg, loop.policy
    b, d = xbar.shape
    values, masks = np.empty((b, d)), np.empty((b, d))
    for rows, (v, m) in helper.split(_e3_rows, b, policy.actor, policy.critic, xbar,
                                     loop.horizon, roll_rng):
        values[rows], masks[rows] = v, m
    loop.imputer, losses = adapt_step(loop.imputer, mv, mm, values, masks, xbar,
                                      cfg.alpha, cfg.alpha_prime, cfg.loss_config(),
                                      rng_unsup, rng_sup)
    unsup, sup = losses["unsupervised"], losses["supervised"]
    _require_finite([unsup, sup], "loss", iteration)
    return unsup, sup


def _e3_rows(actor: nn.DenseNet, critic: nn.DenseNet, xbar, horizon: int, rng,
             rows: slice):
    """Roll rows `rows` of an E3 set under the nets sent, with no records,
    drawing the whole batch's uniforms from rng (RowDraws); return their
    terminal state."""
    roll = rollout_batch(PolicyModel(actor, critic, None), xbar[rows], horizon,
                         "stochastic", RowDraws(rng, len(xbar), rows), grad=False)
    return roll.terminal_values, roll.terminal_masks


# what _e2_roll keeps for _e2_term in the process that runs the requests:
# the E2 set with the policy that rolled it, and what phi_new is formed from
_e2: tuple | None = None


@contextlib.contextmanager
def _e2_chain():
    """The helper for the E2 requests.  The slot _e2_roll fills is emptied
    however the block leaves, so an aborted loop keeps no E2 set here."""
    global _e2
    try:
        with helper.use() as side:
            yield side
    finally:
        _e2 = None


def _e2_roll(actor: nn.DenseNet, critic: nn.DenseNet, imputer: ImputerModel, mv, mm,
             xbar, horizon: int, cfg: JointConfig, i: int) -> None:
    """Roll iteration i's E2 set under the nets sent, and keep it with the
    imputer and minibatch for _e2_term."""
    global _e2
    # no critic optimizer: the E2 term reads the critic and never fits it
    policy = PolicyModel(actor, critic, None)
    roll = rollout_batch(policy, xbar, horizon, "stochastic",
                         rngs.substream(cfg.seed, rngs.EPISODE_2, i))
    _e2 = policy, roll, imputer, mv, mm, cfg, i


def _e2_term(e1_values, e1_masks):
    """The kept E2 set's rewards and actor-gradient term, (grads, rewards);
    what _e2_roll kept is spent, released before the next rollout.

    The hypothetical imputer phi_new is one adapt_step from the kept imputer
    on E1's terminal state.  E2 is rewarded against it, the rewards must be
    finite, and advantages_for gives the advantages.  phi_new is then
    discarded: the real imputer is never touched.
    """
    global _e2
    (policy, roll, imputer, mv, mm, cfg, i), _e2 = _e2, None
    phi_new, _ = adapt_step(imputer, mv, mm, e1_values, e1_masks, roll.x_bar,
                            cfg.alpha, cfg.alpha_prime, cfg.loss_config(),
                            rngs.substream(cfg.seed, rngs.ADAPT_META, i, 0),
                            rngs.substream(cfg.seed, rngs.ADAPT_META, i, 1))
    rewards = terminal_rewards_batch(phi_new, roll, cfg.k_reward,
                                     rngs.substream(cfg.seed, rngs.REWARD_2, i))
    _require_finite(rewards, "reward", i)
    adv = advantages_for(policy, roll.steps, rewards, cfg.normalize_advantages)
    return actor_gradient(policy, roll.steps, adv), rewards


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


def _iteration(loop: _Loop, e2, i: int,
               keep_e1: bool) -> tuple[IterationStats, tuple | None]:
    """Joint iteration i: generate x-bar, roll and reward E1, step the actor
    on E1's term (and E2's, from the helper e2 when there is one), then roll
    E3 and step loop.imputer unless the ablation freezes it.  Returns
    (stats, e1): e1 is E1's (rollout, rewards) when keep_e1, else None."""
    cfg, policy, horizon, seed = loop.cfg, loop.policy, loop.horizon, loop.cfg.seed
    # (1) one generated complete vector per missing example
    mv, mm, xbar = _minibatch(loop, rngs.substream(seed, rngs.BATCH, i),
                              rngs.substream(seed, rngs.XBAR, i))
    if e2 is not None:
        e2.send(_e2_roll, policy.actor, policy.critic, loop.imputer, mv, mm, xbar,
                horizon, cfg, i)

    # (2) exploration episodes
    roll1 = rollout_batch(policy, xbar, horizon, "explore",
                          rngs.substream(seed, rngs.EPISODE_1, i), cfg.explore_e)
    if e2 is not None:
        # (3)-(4) the hypothetical adaptation phi_new from E1's terminals, and
        # E2's reward against it; the real imputer is untouched
        e2.send(_e2_term, roll1.terminal_values, roll1.terminal_masks)
    # E1 is rewarded by the current imputer
    r1 = terminal_rewards_batch(loop.imputer, roll1, cfg.k_reward,
                                rngs.substream(seed, rngs.REWARD_1, i))
    _require_finite(r1, "reward", i)

    # (5) two-term actor step; advantages use the critic before its update,
    # for the E2 term too, and the fit returns E1's
    critic_loss, adv1 = critic_update(policy, roll1.steps, r1, cfg.normalize_advantages)
    _require_finite(critic_loss, "loss", i)
    terms = [(cfg.beta, actor_gradient(policy, roll1.steps, adv1))]
    r2 = None
    if e2 is not None:
        e2.recv()   # _e2_roll's reply, None
        grads2, r2 = e2.recv()
        terms.append((cfg.beta_prime, grads2))
    # p -= weight * g per term; zero-weight terms are skipped outright so they
    # cannot perturb bits
    for weight, grads in terms:
        if weight != 0.0:
            policy.actor.step(grads, nn.OptimizerState(kind="sgd", lr=weight))
    # E1's steps and tapes are spent: release them before E3 records its own
    e1 = (roll1, r1) if keep_e1 else None
    roll1 = None

    unsup = sup = float("nan")
    if cfg.ablation != "no_adaptation":
        # (6)-(7) E3 under the updated policy drives the real update
        unsup, sup = _adapt_round(loop, mv, mm, xbar,
                                  rngs.substream(seed, rngs.EPISODE_3, i),
                                  rngs.substream(seed, rngs.ADAPT_REAL, i, 0),
                                  rngs.substream(seed, rngs.ADAPT_REAL, i, 1), i)
    stats = IterationStats(
        iteration=i,
        reward_e1=float(np.mean(r1)),
        reward_e2=float(np.mean(r2)) if r2 is not None else float("nan"),
        critic_loss=critic_loss,
        imputer_unsup=unsup,
        imputer_sup=sup,
    )
    return stats, e1


def joint_train(
    cfg: JointConfig,
    dataset: MissingDataset,
    imputer: ImputerModel | None = None,
    out_dir=None,
    trace_episodes: bool = False,
) -> tuple[PolicyModel, ImputerModel, RunRecord]:
    """Train policy and imputer together on missing-only data.

    Pass a pretrained imputer to skip pretraining; the argument is copied,
    never mutated.  Per outer iteration (_iteration): generate a complete
    batch, roll and reward the exploration set E1, form the hypothetical
    imputer phi_new from E1 terminals, roll E2 under the unflattened policy
    and reward it against phi_new, step the actor on both terms, then roll E3
    under the updated policy and step the real imputer on its terminals.
    phi_new is discarded every iteration.  A "no_adaptation" run, whose
    imputer stays frozen in the loop, then fine-tunes it to the trained
    policy: cfg.finetune_iterations rounds of the same minibatch and E3 step
    (_minibatch, _adapt_round) on FINETUNE substreams.  The fine-tuned
    imputer is the one returned, checksummed and saved.

    Each iteration calls draw_batch first and plateaued last, once each,
    through this module's globals, and a fine-tune round calls no plateaued:
    the benchmark's iteration clock (perfbench/tracer.py) patches the two
    to stamp iterations, and fails a run whose stamps do not count them.

    With an E2 set (ablation "full" and at least one iteration), two
    requests per iteration go to the process's helper (helper.use).  _e2_roll
    carries the pre-update actor and critic, the current imputer and the
    minibatch, and rolls the E2 set.  _e2_term, sent right after E1 rolls,
    carries E1's terminal state: it forms phi_new, rewards E2 against it and
    forms E2's actor-gradient term.  Where a CPU core was free when the
    helper started (helper.core_for_helper: the BLAS computes with one
    thread, two CPUs are usable and the platform can fork) the helper is a
    forked process, sent copies of the models, that computes both while this
    process rolls and rewards E1, fits the critic and forms E1's term.
    Otherwise each request runs here on the live models as it is sent: E2
    rolls before E1, and its term is formed before E1's reward, the critic
    fit and the actor step.  E3's rows, and each fine-tune round's, are
    shared with the helper by helper.split (_adapt_round).  Every draw is
    keyed by its substream and the forked process computes under the same
    numeric environment, so every output bit is the same either way.

    A run that adapts the imputer (JointConfig.adapts_imputer) on data where
    no row observes two coordinates is refused with ValueError before
    anything is written: the imputer step's self-masking loss would have no
    signal.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if imputer is not None and imputer.d != dataset.dim:
        raise ValueError(f"imputer dimension {imputer.d} != dataset dimension {dataset.dim}")
    if cfg.adapts_imputer() and not any_row_observes_two(dataset.masks):
        raise ValueError("adapting the imputer needs a row observing two coordinates or more")

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_config(cfg, os.path.join(out_dir, "config.txt"))
        write_environment(os.path.join(out_dir, "environment.json"))

    imputer = pretrain_imputer(cfg, dataset)[0] if imputer is None else imputer.copy()
    policy = build_policy(dataset.dim, actor_hidden=cfg.actor_hidden,
                          critic_hidden=cfg.critic_hidden, dropout=cfg.dropout,
                          critic_lr=cfg.critic_lr,
                          rng=rngs.substream(cfg.seed, rngs.INIT_POLICY))
    loop = _Loop(cfg, dataset, horizon_for(dataset.dim, cfg.missing_rate), policy, imputer)

    record = RunRecord(config=cfg)
    e1 = None
    # the E2 set (ablation "full" only) rolls on x-bar under the pre-update
    # nets and is rewarded from E1's terminal state, so its rollout, phi_new,
    # its reward and its actor term go to the helper, which computes them
    # beside E1 where a core is free
    has_e2 = cfg.ablation == "full" and cfg.iterations > 0
    with _e2_chain() if has_e2 else contextlib.nullcontext() as e2:
        for i in range(cfg.iterations):
            stats, e1 = _iteration(loop, e2, i, trace_episodes)
            record.stats.append(stats)
            if plateaued(record.rewards, cfg.early_stop_window, cfg.early_stop_tol):
                record.stopped_early = True
                break

    if cfg.ablation == "no_adaptation":
        # the imputer, frozen in the loop, is fine-tuned to the trained policy
        for i in range(cfg.finetune_iterations):
            rng = [rngs.substream(cfg.seed, rngs.FINETUNE, i, j) for j in range(5)]
            _adapt_round(loop, *_minibatch(loop, rng[0], rng[1]), *rng[2:], i)

    record.checksums = {
        "actor": params_checksum(policy.actor),
        "critic": params_checksum(policy.critic),
        "imputer": params_checksum(loop.imputer.net),
    }

    if out_dir is not None:
        write_run_csv(record, os.path.join(out_dir, "run.csv"))
        save_policy(policy, os.path.join(out_dir, "actor.ckpt"),
                    os.path.join(out_dir, "critic.ckpt"))
        save_imputer(loop.imputer, os.path.join(out_dir, "imputer.ckpt"))
        if e1 is not None:
            write_episode_trace(os.path.join(out_dir, "episodes.csv"), *e1)

    return policy, loop.imputer, record


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
    rewards: list[float] = []
    for i in range(cfg.iterations):
        idx = draw_batch(n, cfg.batch_size, rngs.substream(seed, rngs.BATCH, i))
        xbar = impute_batch(imputer, dataset.values[idx], dataset.masks[idx],
                            rngs.substream(seed, rngs.XBAR, i))
        roll = rollout_batch(policy, xbar, horizon, "explore",
                             rngs.substream(seed, rngs.EPISODE_1, i), cfg.explore_e)
        r = terminal_rewards_batch(imputer, roll, cfg.k_reward,
                                   rngs.substream(seed, rngs.REWARD_1, i))
        _require_finite(r, "reward", i)
        reinforce_update(policy, roll.steps, r, cfg.beta, cfg.normalize_advantages)
        rewards.append(float(np.mean(r)))
        if plateaued(rewards, cfg.early_stop_window, cfg.early_stop_tol):
            break
    return policy, rewards

