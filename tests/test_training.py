import dataclasses
import json
import math
import multiprocessing
import os
import weakref

import numpy as np
import pytest

from measim import helper, rngs, training
from measim.episodes import (
    horizon_for,
    rollout_batch,
    terminal_rewards_batch,
)
from measim.imputer import adapt_step, build_imputer, impute_batch, load_imputer, pretrain
from measim.masks import MissingDataset, mask_dataset, mcar_spec
from measim.nn import OptimizerState
from measim.policy import actor_gradient, advantages_for, build_policy, critic_update
from measim.training import (
    ABLATIONS,
    IterationStats,
    JointConfig,
    RunRecord,
    config_to_text,
    draw_batch,
    environment_manifest,
    joint_train,
    load_config,
    load_run_csv,
    params_checksum,
    parse_config,
    plain_reinforce_train,
    plateaued,
    write_run_csv,
)

D = 8


def tiny_config(**overrides) -> JointConfig:
    base = dict(
        missing_rate=0.75,
        seed=11,
        alpha=1e-3,
        alpha_prime=1e-3,
        beta=0.05,
        beta_prime=0.05,
        explore_e=0.1,
        k_reward=2,
        batch_size=8,
        iterations=4,
        early_stop_window=0,
        variant="sinusoid",
        noise_dim=3,
        imputer_hidden=(16,),
        smoothness_weight=0.05,
        pretrain_epochs=2,
        pretrain_batch=16,
        actor_hidden=(16,),
        critic_hidden=(8,),
        finetune_iterations=3,
    )
    base.update(overrides)
    return JointConfig(**base)


def tiny_dataset(n=32, seed=5) -> MissingDataset:
    rng = np.random.default_rng(seed)
    complete = np.cumsum(rng.normal(scale=0.2, size=(n, D)), axis=1)
    return mask_dataset(complete, mcar_spec(D, 0.75), rng)


def pretrained_imputer(cfg: JointConfig, ds: MissingDataset):
    model = build_imputer(D, cfg.variant, noise_dim=cfg.noise_dim,
                          hidden=cfg.imputer_hidden,
                          rng=rngs.substream(cfg.seed, rngs.INIT_IMPUTER))
    pretrain(model, ds.values, ds.masks, cfg.pretrain_epochs,
             OptimizerState(kind="adam", lr=cfg.pretrain_lr), cfg.loss_config(),
             rngs.substream(cfg.seed, rngs.PRETRAIN), batch_size=cfg.pretrain_batch)
    return model


def assert_params_equal(a, b):
    pa, pb = a.params(), b.params()
    assert len(pa) == len(pb)
    for x, y in zip(pa, pb):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# config validation and round-trip


def test_config_rejects_unknown_ablation():
    with pytest.raises(ValueError, match="ablation"):
        tiny_config(ablation="none")


def test_config_rejects_negative_rates():
    with pytest.raises(ValueError, match="alpha"):
        tiny_config(alpha=-0.1)


def test_ablations_require_zero_meta_weight():
    with pytest.raises(ValueError, match="beta_prime"):
        tiny_config(ablation="no_meta", beta_prime=0.5)
    with pytest.raises(ValueError, match="beta_prime"):
        tiny_config(ablation="no_adaptation", beta_prime=1e-3)
    tiny_config(ablation="no_meta", beta_prime=0.0)


@pytest.mark.parametrize("override, name", [
    (dict(dropout=1.5), "dropout"),
    (dict(dropout=-0.1), "dropout"),
    (dict(actor_hidden=(16, 0)), "actor_hidden"),
    (dict(critic_hidden=(-2,)), "critic_hidden"),
    (dict(imputer_hidden=(0,)), "imputer_hidden"),
    (dict(noise_dim=0), "noise_dim"),
    (dict(variant="audio"), "variant"),
    (dict(pretrain_epochs=-1), "pretrain_epochs"),
    (dict(pretrain_batch=0), "pretrain_batch"),
    (dict(seed=-1), "seed"),
    (dict(beta=float("nan")), "beta"),
    (dict(critic_lr=float("inf")), "critic_lr"),
    (dict(early_stop_tol=float("-inf")), "early_stop_tol"),
    (dict(smoothness_weight=float("nan")), "smoothness_weight"),
    (dict(self_mask_fraction=1.5), "self_mask_fraction"),
    (dict(gaussian_kernel_sigma=0.0), "gaussian_kernel_sigma"),
    (dict(smoothness_weight=-0.1), "smoothness_weight"),
])
def test_config_rejects_bad_architecture_and_pretraining(override, name):
    with pytest.raises(ValueError, match=name):
        tiny_config(**override)


def test_config_parse_validates_values():
    with pytest.raises(ValueError, match="dropout"):
        parse_config("dropout=1.5\n")
    assert parse_config("pretrain_epochs=0\ndropout=0.0\n").pretrain_epochs == 0


def test_full_ablation_allows_zero_meta_weight():
    cfg = tiny_config(beta_prime=0.0)
    assert cfg.ablation == "full"


def test_config_text_round_trip():
    cfg = tiny_config(beta=0.1, alpha=3e-4, normalize_advantages=False,
                      actor_hidden=(32, 16))
    assert parse_config(config_to_text(cfg)) == cfg


def test_config_parse_ignores_comments_and_blanks():
    cfg = parse_config("# note\n\nseed=9\nbeta=0.25\n")
    assert cfg.seed == 9 and cfg.beta == 0.25
    assert cfg.alpha == JointConfig().alpha


def test_config_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("betta=0.1\n")


def test_config_parse_rejects_a_repeated_key():
    with pytest.raises(ValueError, match=r"line 3: config key 'iterations' set twice "
                                         r"\(first on line 1\)"):
        parse_config("iterations=3\nseed=1\niterations=5\n")


def test_config_parse_rejects_bad_boolean():
    with pytest.raises(ValueError, match="true/false"):
        parse_config("normalize_advantages=1\n")


def test_config_parse_names_the_line_and_key_of_a_value_that_fails_to_parse():
    with pytest.raises(ValueError, match=r"^line 2: iterations: invalid literal for int\(\)"):
        parse_config("seed=1\niterations=abc\n")


def test_config_parse_rejects_missing_separator():
    with pytest.raises(ValueError, match="key=value"):
        parse_config("seed 4\n")


def test_config_file_round_trip(tmp_path):
    cfg = tiny_config(seed=123, imputer_hidden=(24, 12))
    path = tmp_path / "config.txt"
    training.write_config(cfg, path)
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# run records


def test_run_csv_round_trip(tmp_path):
    cfg = tiny_config()
    record = RunRecord(config=cfg)
    record.stats = [
        IterationStats(0, -0.5, -0.25, 0.125, 0.0625, 0.03125),
        IterationStats(1, -0.1, float("nan"), 0.2, float("nan"), float("nan")),
    ]
    record.checksums = {"actor": "aa", "critic": "bb", "imputer": "cc"}
    record.stopped_early = True
    path = tmp_path / "run.csv"
    write_run_csv(record, path)
    stats, meta = load_run_csv(path)
    assert len(stats) == 2
    assert stats[0] == record.stats[0]
    assert stats[1].reward_e1 == -0.1
    assert math.isnan(stats[1].reward_e2) and math.isnan(stats[1].imputer_sup)
    assert meta["checksums"] == record.checksums
    assert meta["seed"] == str(cfg.seed)
    assert meta["stopped_early"] == "true"


def test_run_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,reward\n0,1\n")
    with pytest.raises(ValueError, match="schema"):
        load_run_csv(path)


def test_run_csv_write_is_deterministic(tmp_path):
    record = RunRecord(config=tiny_config())
    record.stats = [IterationStats(0, -1 / 3, -2 / 7, 0.1, 0.2, 0.3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_run_csv(record, a)
    write_run_csv(record, b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# loop helpers


def test_draw_batch_without_replacement_when_possible():
    idx = draw_batch(10, 8, np.random.default_rng(0))
    assert len(set(idx.tolist())) == 8
    assert all(0 <= i < 10 for i in idx)


def test_draw_batch_with_replacement_when_needed():
    idx = draw_batch(3, 8, np.random.default_rng(0))
    assert len(idx) == 8
    assert all(0 <= i < 3 for i in idx)


def test_plateau_disabled_with_zero_window():
    assert not plateaued([0.0] * 100, 0, 1e-4)


def test_plateau_needs_two_full_windows():
    assert not plateaued([0.0] * 5, 3, 1e-4)
    assert plateaued([0.0] * 6, 3, 1e-4)


def test_plateau_ignores_improving_rewards():
    rewards = list(np.linspace(-1.0, 0.0, 40))
    assert not plateaued(rewards, 5, 1e-4)


# ---------------------------------------------------------------------------
# joint loop reductions


def test_zero_iterations_returns_pretrained_state():
    cfg = tiny_config(iterations=0, beta_prime=0.0, alpha_prime=0.0)
    ds = tiny_dataset()
    pre = pretrained_imputer(cfg, ds)
    policy, imputer, record = joint_train(cfg, ds, imputer=pre)
    assert_params_equal(imputer.net, pre.net)
    fresh = build_policy(D, actor_hidden=cfg.actor_hidden, critic_hidden=cfg.critic_hidden,
                         dropout=cfg.dropout, critic_lr=cfg.critic_lr,
                         rng=rngs.substream(cfg.seed, rngs.INIT_POLICY))
    assert_params_equal(policy.actor, fresh.actor)
    assert_params_equal(policy.critic, fresh.critic)
    assert record.stats == []
    assert set(record.checksums) == {"actor", "critic", "imputer"}


def test_input_imputer_is_never_mutated():
    cfg = tiny_config()
    ds = tiny_dataset()
    pre = pretrained_imputer(cfg, ds)
    before = [p.copy() for p in pre.net.params()]
    joint_train(cfg, ds, imputer=pre)
    for a, b in zip(before, pre.net.params()):
        assert np.array_equal(a, b)


def test_no_meta_matches_full_with_zero_meta_weight():
    ds = tiny_dataset()
    cfg_full = tiny_config(beta_prime=0.0)
    cfg_nm = dataclasses.replace(cfg_full, ablation="no_meta")
    pre = pretrained_imputer(cfg_full, ds)

    pol_f, imp_f, rec_f = joint_train(cfg_full, ds, imputer=pre)
    pol_n, imp_n, rec_n = joint_train(cfg_nm, ds, imputer=pre)

    assert_params_equal(pol_f.actor, pol_n.actor)
    assert_params_equal(pol_f.critic, pol_n.critic)
    assert_params_equal(imp_f.net, imp_n.net)
    assert [s.reward_e1 for s in rec_f.stats] == [s.reward_e1 for s in rec_n.stats]
    # the meta column is only populated when the meta machinery ran
    assert all(np.isfinite(s.reward_e2) for s in rec_f.stats)
    assert all(math.isnan(s.reward_e2) for s in rec_n.stats)


def test_frozen_imputer_loop_equals_plain_reinforce():
    ds = tiny_dataset()
    cfg = tiny_config(ablation="no_adaptation", beta_prime=0.0, finetune_iterations=0)
    pre = pretrained_imputer(cfg, ds)

    pol_j, imp_j, rec_j = joint_train(cfg, ds, imputer=pre)
    pol_p, rewards_p = plain_reinforce_train(cfg, ds, pre)

    assert_params_equal(pol_j.actor, pol_p.actor)
    assert_params_equal(pol_j.critic, pol_p.critic)
    assert [s.reward_e1 for s in rec_j.stats] == rewards_p
    assert_params_equal(imp_j.net, pre.net)


def test_full_loop_with_zero_imputer_rates_equals_plain_reinforce():
    # with every extra weight zeroed the full loop reduces to plain REINFORCE
    ds = tiny_dataset()
    cfg = tiny_config(alpha=0.0, alpha_prime=0.0, beta_prime=0.0)
    pre = pretrained_imputer(cfg, ds)

    pol_j, imp_j, _ = joint_train(cfg, ds, imputer=pre)
    pol_p, _ = plain_reinforce_train(cfg, ds, pre)

    assert_params_equal(pol_j.actor, pol_p.actor)
    assert_params_equal(pol_j.critic, pol_p.critic)
    assert_params_equal(imp_j.net, pre.net)


def test_hypothetical_update_never_leaks(monkeypatch):
    # stubbing the meta adaptation to hand back the same model must leave the
    # final parameters untouched whenever the meta gradient weight is zero;
    # E2's requests run in this process, so both adapt_step calls are counted
    e2_in_helper(monkeypatch, False)
    ds = tiny_dataset()
    cfg = tiny_config(beta_prime=0.0)
    pre = pretrained_imputer(cfg, ds)

    pol_a, imp_a, _ = joint_train(cfg, ds, imputer=pre)

    real_adapt = training.adapt_step
    calls = {"n": 0}

    def stubbed(model, *args, **kwargs):
        k = calls["n"]
        calls["n"] += 1
        if k % 2 == 0:  # first adapt call per iteration is the hypothetical one
            return model, {"unsupervised": 0.0, "supervised": 0.0}
        return real_adapt(model, *args, **kwargs)

    monkeypatch.setattr(training, "adapt_step", stubbed)
    pol_b, imp_b, _ = joint_train(cfg, ds, imputer=pre)

    assert calls["n"] == 2 * cfg.iterations
    assert_params_equal(pol_a.actor, pol_b.actor)
    assert_params_equal(imp_a.net, imp_b.net)


def test_rewards_are_recorded_and_finite():
    ds = tiny_dataset()
    cfg = tiny_config()
    pre = pretrained_imputer(cfg, ds)
    _, _, record = joint_train(cfg, ds, imputer=pre)
    assert len(record.stats) == cfg.iterations
    for s in record.stats:
        assert np.isfinite(s.reward_e1) and s.reward_e1 <= 0.0
        assert np.isfinite(s.reward_e2)
        assert np.isfinite(s.critic_loss)
        assert np.isfinite(s.imputer_unsup) and np.isfinite(s.imputer_sup)


def test_non_finite_reward_aborts_with_iteration(monkeypatch):
    # E2's requests run in this process, so both reward batches are counted
    e2_in_helper(monkeypatch, False)
    ds = tiny_dataset()
    cfg = tiny_config()
    pre = pretrained_imputer(cfg, ds)
    real = training.terminal_rewards_batch
    state = {"i": 0}

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        state["i"] += 1
        if state["i"] == 5:  # third iteration's first reward batch, E2's
            out = out.copy()
            out[0] = np.nan
        return out

    monkeypatch.setattr(training, "terminal_rewards_batch", poisoned)
    with pytest.raises(FloatingPointError, match="non-finite reward at iteration 2"):
        joint_train(cfg, ds, imputer=pre)


@pytest.mark.parametrize("overrides", [
    dict(ablation="no_meta", beta_prime=0.0, iterations=3),
    dict(ablation="no_adaptation", beta_prime=0.0, iterations=1, finetune_iterations=3),
], ids=["loop", "finetune"])
def test_non_finite_adaptation_loss_aborts_with_iteration(monkeypatch, overrides):
    # E3's real update and the fine-tune take the same adaptation round, so a
    # non-finite loss names the iteration the same way in both
    ds = tiny_dataset()
    cfg = tiny_config(**overrides)
    pre = pretrained_imputer(cfg, ds)
    real = training.adapt_step
    calls = 0

    def poisoned(*args, **kwargs):
        nonlocal calls
        model, losses = real(*args, **kwargs)
        calls += 1
        if calls == 2:  # the second round's one adapt_step
            losses = dict(losses, supervised=np.nan)
        return model, losses

    monkeypatch.setattr(training, "adapt_step", poisoned)
    with pytest.raises(FloatingPointError, match="non-finite loss at iteration 1"):
        joint_train(cfg, ds, imputer=pre)
    assert calls == 2


def test_early_stop_on_flat_rewards(monkeypatch):
    ds = tiny_dataset()
    cfg = tiny_config(iterations=50, early_stop_window=3)
    pre = pretrained_imputer(cfg, ds)
    real = training.terminal_rewards_batch
    monkeypatch.setattr(training, "terminal_rewards_batch",
                        lambda *a, **k: np.zeros_like(real(*a, **k)))
    _, _, record = joint_train(cfg, ds, imputer=pre)
    assert record.stopped_early
    assert len(record.stats) == 2 * cfg.early_stop_window


@pytest.mark.parametrize("overrides, refused", [
    (dict(), True),
    (dict(ablation="no_meta", beta_prime=0.0), True),
    (dict(ablation="no_adaptation", beta_prime=0.0), True),
    (dict(ablation="no_adaptation", beta_prime=0.0, finetune_iterations=0), False),
    (dict(iterations=0), False),
], ids=["full", "no_meta", "no_adaptation", "no_finetune", "no_iterations"])
def test_joint_loop_refuses_to_adapt_without_a_row_observing_two(tmp_path, overrides,
                                                                  refused):
    # loss_unsupervised skips every row that observes one coordinate, so an
    # imputer step on such data would have no self-masking signal
    rng = np.random.default_rng(5)
    ds = mask_dataset(rng.normal(size=(16, D)), 1, rng)
    cfg = tiny_config(**overrides)
    imputer = build_imputer(D, cfg.variant, noise_dim=cfg.noise_dim,
                            hidden=cfg.imputer_hidden, rng=np.random.default_rng(6))
    assert cfg.adapts_imputer() is refused
    out = tmp_path / "run"
    if refused:
        with pytest.raises(ValueError, match="two coordinates"):
            joint_train(cfg, ds, imputer=imputer, out_dir=out)
        assert not out.exists()
    else:
        joint_train(cfg, ds, imputer=imputer, out_dir=out)
        assert (out / "run.csv").exists()


def e2_in_helper(monkeypatch, on: bool) -> None:
    """Run the joint loop's helper requests (E2's, and E3's rows) in a helper
    process, or in this one: the next use of the helper starts one as asked."""
    monkeypatch.setattr(helper, "core_for_helper", lambda: on)
    helper.stop()


def track_rollouts(monkeypatch):
    """Record, per rollout_batch call, the rollouts still alive and what steps keep."""
    alive = []
    held = []
    kept = []

    def tracked(*args, **kwargs):
        held.append(sum(r() is not None for r in alive))
        roll = rollout_batch(*args, **kwargs)
        alive.append(weakref.ref(roll))
        records = {(s.state is not None, s.tape is not None) for s in roll.steps}
        assert len(records) == 1
        kept.append(records.pop())
        return roll

    monkeypatch.setattr(training, "rollout_batch", tracked)
    return alive, held, kept


def test_joint_loop_holds_at_most_two_rollouts(monkeypatch):
    # with E2 in this process it rolls first, when its request is sent, and
    # lives until its term is formed, right after E1 rolls; E1 lives until
    # the actor step, E3 (rolled whole here) until the imputer update, and no
    # rollout outlives its iteration; only E1 and E2 take a gradient, so E3
    # and fine-tune steps keep no state and no tape
    e2_in_helper(monkeypatch, False)
    alive, held, kept = track_rollouts(monkeypatch)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=3)
    joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert held == [0, 1, 0] * 3
    assert not any(r() is not None for r in alive)
    assert kept == [(True, True), (True, True), (False, False)] * 3

    kept.clear()
    cfg = tiny_config(ablation="no_adaptation", beta_prime=0.0, iterations=1,
                      finetune_iterations=2)
    joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert kept == [(True, True)] + [(False, False)] * 2


def test_joint_loop_holds_at_most_one_rollout(monkeypatch):
    # the main process holds E1 until the actor step, then its half of E3's
    # rows until the imputer update, and no rollout outlives its iteration;
    # E2 and the other half of E3 roll in the helper process, out of sight
    # here.  Only E1 takes a gradient in the main process, so E3 and
    # fine-tune steps keep no state and no tape
    e2_in_helper(monkeypatch, True)
    alive, held, kept = track_rollouts(monkeypatch)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=3)
    joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert held == [0, 0] * 3
    assert not any(r() is not None for r in alive)
    assert kept == [(True, True), (False, False)] * 3

    kept.clear()
    cfg = tiny_config(ablation="no_adaptation", beta_prime=0.0, iterations=1,
                      finetune_iterations=2)
    joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert kept == [(True, True)] + [(False, False)] * 2


# what a joint iteration looks up on this module, in call order, with E2's
# requests run in this process; a fine-tune round draws a minibatch and
# takes the E3 step alone
LOOP_CALLS = {
    "full": ["draw_batch", "impute_batch", "rollout_batch", "rollout_batch", "adapt_step",
             "terminal_rewards_batch", "advantages_for", "actor_gradient",
             "terminal_rewards_batch", "critic_update", "actor_gradient", "rollout_batch",
             "adapt_step", "plateaued"],
    "no_meta": ["draw_batch", "impute_batch", "rollout_batch", "terminal_rewards_batch",
                "critic_update", "actor_gradient", "rollout_batch", "adapt_step", "plateaued"],
    "no_adaptation": ["draw_batch", "impute_batch", "rollout_batch", "terminal_rewards_batch",
                      "critic_update", "actor_gradient", "plateaued"],
}
FINETUNE_CALLS = ["draw_batch", "impute_batch", "rollout_batch", "adapt_step"]


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_each_iteration_runs_from_draw_batch_to_plateaued(monkeypatch, ablation):
    # the benchmark's tracer patches these names on this module: its
    # iteration clock stamps an iteration from the draw_batch call to the
    # plateaued call, and fails a run whose stamps do not count the
    # iterations, so a fine-tune round must call no plateaued
    e2_in_helper(monkeypatch, False)
    ds = tiny_dataset()
    cfg = tiny_config(ablation=ablation, beta_prime=0.05 if ablation == "full" else 0.0,
                      iterations=2, finetune_iterations=2)
    pre = pretrained_imputer(cfg, ds)
    calls = []
    for name in set(LOOP_CALLS["full"]):
        real = getattr(training, name)
        monkeypatch.setattr(training, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    joint_train(cfg, ds, imputer=pre)
    rounds = FINETUNE_CALLS * 2 if ablation == "no_adaptation" else []
    assert calls == LOOP_CALLS[ablation] * 2 + rounds


def serial_joint_train(cfg, ds, imputer):
    """The joint loop with every rollout rolled whole in this process, in the
    loop's order, and the fine-tune after a frozen-imputer run."""
    n, d = len(ds), ds.dim
    horizon = horizon_for(d, cfg.missing_rate)
    loss_cfg, seed = cfg.loss_config(), cfg.seed
    meta, adapt = cfg.ablation == "full", cfg.ablation != "no_adaptation"
    imputer = imputer.copy()
    policy = build_policy(d, actor_hidden=cfg.actor_hidden, critic_hidden=cfg.critic_hidden,
                          dropout=cfg.dropout, critic_lr=cfg.critic_lr,
                          rng=rngs.substream(seed, rngs.INIT_POLICY))

    def adapt_round(imputer, mv, mm, xbar, roll_rng, rng_unsup, rng_sup):
        roll3 = rollout_batch(policy, xbar, horizon, "stochastic", roll_rng, grad=False)
        return adapt_step(imputer, mv, mm, roll3.terminal_values, roll3.terminal_masks,
                          xbar, cfg.alpha, cfg.alpha_prime, loss_cfg, rng_unsup, rng_sup)

    record = RunRecord(config=cfg)
    for i in range(cfg.iterations):
        idx = draw_batch(n, cfg.batch_size, rngs.substream(seed, rngs.BATCH, i))
        mv, mm = ds.values[idx], ds.masks[idx]
        xbar = impute_batch(imputer, mv, mm, rngs.substream(seed, rngs.XBAR, i))
        roll1 = rollout_batch(policy, xbar, horizon, "explore",
                              rngs.substream(seed, rngs.EPISODE_1, i), cfg.explore_e)
        r1 = terminal_rewards_batch(imputer, roll1, cfg.k_reward,
                                    rngs.substream(seed, rngs.REWARD_1, i))
        adv1 = advantages_for(policy, roll1.steps, r1, cfg.normalize_advantages)
        g1 = actor_gradient(policy, roll1.steps, adv1)
        r2 = np.nan
        if meta:
            phi_new, _ = adapt_step(imputer, mv, mm, roll1.terminal_values,
                                    roll1.terminal_masks, xbar, cfg.alpha, cfg.alpha_prime,
                                    loss_cfg, rngs.substream(seed, rngs.ADAPT_META, i, 0),
                                    rngs.substream(seed, rngs.ADAPT_META, i, 1))
            roll2 = rollout_batch(policy, xbar, horizon, "stochastic",
                                  rngs.substream(seed, rngs.EPISODE_2, i))
            r2 = terminal_rewards_batch(phi_new, roll2, cfg.k_reward,
                                        rngs.substream(seed, rngs.REWARD_2, i))
            adv2 = advantages_for(policy, roll2.steps, r2, cfg.normalize_advantages)
            g2 = actor_gradient(policy, roll2.steps, adv2)
        critic_loss, _ = critic_update(policy, roll1.steps, r1, cfg.normalize_advantages)
        policy.actor.step(g1, OptimizerState(kind="sgd", lr=cfg.beta))
        if meta:
            policy.actor.step(g2, OptimizerState(kind="sgd", lr=cfg.beta_prime))
        losses = {"unsupervised": np.nan, "supervised": np.nan}
        if adapt:
            imputer, losses = adapt_round(imputer, mv, mm, xbar,
                                          rngs.substream(seed, rngs.EPISODE_3, i),
                                          rngs.substream(seed, rngs.ADAPT_REAL, i, 0),
                                          rngs.substream(seed, rngs.ADAPT_REAL, i, 1))
        record.stats.append(IterationStats(i, float(np.mean(r1)), float(np.mean(r2)),
                                           critic_loss, losses["unsupervised"],
                                           losses["supervised"]))
    for i in range(0 if adapt else cfg.finetune_iterations):
        idx = draw_batch(n, cfg.batch_size, rngs.substream(seed, rngs.FINETUNE, i, 0))
        mv, mm = ds.values[idx], ds.masks[idx]
        xbar = impute_batch(imputer, mv, mm, rngs.substream(seed, rngs.FINETUNE, i, 1))
        imputer, _ = adapt_round(imputer, mv, mm, xbar,
                                 *(rngs.substream(seed, rngs.FINETUNE, i, j) for j in (2, 3, 4)))
    record.checksums = {"actor": params_checksum(policy.actor),
                        "critic": params_checksum(policy.critic),
                        "imputer": params_checksum(imputer.net)}
    return record


def check_against_serial_reference(variant, overrides):
    ds = tiny_dataset()
    if variant == "image":
        ds = MissingDataset(1.0 / (1.0 + np.exp(-ds.values)) * ds.masks, ds.masks)
    cfg = tiny_config(variant=variant, smoothness_weight=0.0 if variant == "image" else 0.05,
                      **overrides)
    pre = pretrained_imputer(cfg, ds)
    _, imputer, record = joint_train(cfg, ds, imputer=pre)
    reference = serial_joint_train(cfg, ds, pre)
    # NaN != NaN: compare the rows as text, as run.csv writes them
    assert [repr(s) for s in record.stats] == [repr(s) for s in reference.stats]
    assert record.checksums == reference.checksums
    assert all(np.isfinite(s.reward_e2) == (cfg.ablation == "full") for s in record.stats)
    if cfg.ablation == "no_adaptation":
        assert record.checksums["imputer"] != params_checksum(pre.net)


# the full loop on both imputer variants, and the loop without an E2 set and
# the fine-tune after a frozen-imputer run, each of which rolls E3
SERIAL_CASES = [
    ("sinusoid", {}),
    ("image", {}),
    ("sinusoid", dict(ablation="no_meta", beta_prime=0.0)),
    ("image", dict(ablation="no_meta", beta_prime=0.0)),
    ("sinusoid", dict(ablation="no_adaptation", beta_prime=0.0, finetune_iterations=3)),
    ("image", dict(ablation="no_adaptation", beta_prime=0.0, finetune_iterations=3)),
]
SERIAL_IDS = ["sinusoid", "image", "no_meta-sinusoid", "no_meta-image",
              "no_adaptation-sinusoid", "no_adaptation-image"]


@pytest.mark.parametrize("variant, overrides", SERIAL_CASES, ids=SERIAL_IDS)
def test_helper_loop_matches_serial_reference(monkeypatch, variant, overrides):
    e2_in_helper(monkeypatch, True)
    started = []
    real = helper.Helper
    monkeypatch.setattr(helper, "Helper", lambda name: started.append(name) or real(name))
    check_against_serial_reference(variant, overrides)
    # one named helper is alive, the next call reuses it, and stop() ends it
    [proc] = multiprocessing.active_children()
    assert proc.name == helper.NAME and proc.is_alive()
    ds = tiny_dataset()
    cfg = tiny_config(iterations=1)
    joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert [p.pid for p in multiprocessing.active_children()] == [proc.pid]
    assert started == [helper.NAME]
    helper.stop()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("variant, overrides", SERIAL_CASES, ids=SERIAL_IDS)
def test_e2_in_process_matches_serial_reference(monkeypatch, variant, overrides):
    def refuse(*args, **kwargs):
        raise AssertionError("helper process started")

    e2_in_helper(monkeypatch, False)
    monkeypatch.setattr(helper, "Helper", refuse)
    check_against_serial_reference(variant, overrides)


@pytest.mark.parametrize("batch", [1, 2, 3, 17, 64])
@pytest.mark.parametrize("d, horizon", [(100, 20), (144, 22)], ids=["sin80", "img85"])
def test_e3_row_halves_stack_to_the_whole_rollout(batch, d, horizon):
    # each part draws the whole batch's uniforms and keeps its own rows, and
    # every op of a step works row by row, so the parts join bit for bit:
    # contiguous halves, helper.split's odd and even rows, or the whole batch
    policy = build_policy(d, rng=np.random.default_rng(1))
    xbar = np.random.default_rng(2).normal(size=(batch, d))
    whole = rollout_batch(policy, xbar, horizon, "stochastic", np.random.default_rng(3),
                          grad=False)
    cut = batch // 2
    dealings = [[slice(0, batch)]]
    if batch >= 2:
        dealings += [[slice(0, cut), slice(cut, batch)],
                     [slice(0, batch, 2), slice(1, batch, 2)]]
    for parts in dealings:
        values, masks = np.empty((batch, d)), np.empty((batch, d))
        for rows in parts:
            values[rows], masks[rows] = training._e3_rows(
                policy.actor, policy.critic, xbar, horizon, np.random.default_rng(3), rows)
        assert np.array_equal(values, whole.terminal_values), parts
        assert np.array_equal(masks, whole.terminal_masks), parts
        assert masks.sum(axis=1).tolist() == [horizon] * batch


# each env: the thread count the BLAS itself reports, and thread variables
# that read otherwise where they can; the variables decide nothing
@pytest.mark.parametrize("env, cpus, expected", [
    ({"blas": 1, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, True),
    ({"blas": 1, "OMP_NUM_THREADS": "1"}, 4, True),
    ({"blas": 1, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, 2, True),
    ({"blas": 1, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 1, False),
    ({"blas": 2}, 2, False),
    ({"blas": None, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, False),
    ({"blas": 2, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 2, False),
])
def test_helper_only_where_the_blas_leaves_a_core(monkeypatch, env, cpus, expected):
    # unpinned, the BLAS starts a thread per CPU and a helper computing beside
    # it would slow the loop several times over
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        if var != "blas":
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(helper, "blas_threads", lambda: env["blas"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver", "fork"])
    assert helper.core_for_helper() is expected


@pytest.mark.parametrize("threads", [1, 2, None], ids=lambda t: f"threads{t}")
@pytest.mark.parametrize("cpus", [1, 2], ids=lambda c: f"cpus{c}")
@pytest.mark.parametrize("fork", [True, False], ids=["fork", "nofork"])
def test_helper_needs_a_one_thread_blas_two_cpus_and_fork(monkeypatch, threads, cpus, fork):
    # a BLAS with more threads, or one whose count cannot be read, may fill
    # every core, and a helper computing beside it would slow the loop
    # several times over; without fork there is no helper process to start
    monkeypatch.setattr(helper, "blas_threads", lambda: threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    methods = ["spawn", "forkserver", "fork"] if fork else ["spawn"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    assert helper.core_for_helper() is (threads == 1 and cpus == 2 and fork)


def test_helper_error_reaches_caller_and_leaves_no_process(monkeypatch):
    e2_in_helper(monkeypatch, True)
    def failing(*args, **kwargs):
        mode = args[3] if len(args) > 3 else kwargs["mode"]
        if mode == "stochastic" and kwargs.get("grad", True):
            raise ValueError("E2 rollout failed on purpose")
        return rollout_batch(*args, **kwargs)

    monkeypatch.setattr(training, "rollout_batch", failing)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=2)
    with pytest.raises(ValueError) as caught:
        joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert type(caught.value) is ValueError
    assert str(caught.value) == "E2 rollout failed on purpose"
    assert multiprocessing.active_children() == []


def test_helper_exit_is_reported_with_its_code(monkeypatch):
    e2_in_helper(monkeypatch, True)
    def exiting(*args, **kwargs):
        if kwargs.get("grad", True) and args[3] == "stochastic":
            os._exit(3)
        return rollout_batch(*args, **kwargs)

    monkeypatch.setattr(training, "rollout_batch", exiting)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=2)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert multiprocessing.active_children() == []


def test_interrupt_leaves_no_process(monkeypatch):
    e2_in_helper(monkeypatch, True)
    real = training.terminal_rewards_batch
    calls = {"n": 0}

    def interrupted(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:   # the second iteration's E1 reward, with E2 under way
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "terminal_rewards_batch", interrupted)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=3)
    with pytest.raises(KeyboardInterrupt):
        joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert multiprocessing.active_children() == []


def test_an_aborted_loop_keeps_no_e2_set_in_this_process(monkeypatch):
    # with the stand-in, _e2_roll fills the slot here before E1 rolls: an
    # interrupt in E1's rollout must not leave the E2 set, its tapes and the
    # imputer held until the next run
    e2_in_helper(monkeypatch, False)
    real = training.rollout_batch
    kept = []

    def interrupted(*args, **kwargs):
        if args[3] == "explore":
            kept.append(training._e2)
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "rollout_batch", interrupted)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=2)
    with pytest.raises(KeyboardInterrupt):
        joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert len(kept) == 1 and kept[0] is not None
    assert training._e2 is None


def test_non_finite_e2_reward_in_the_helper_aborts_with_iteration(monkeypatch):
    # E2's reward is formed and checked in the forked helper, whose error
    # reaches this process with its own type and stops the helper
    e2_in_helper(monkeypatch, True)
    real = training.terminal_rewards_batch
    main_pid = os.getpid()
    calls = 0

    def poisoned(*args, **kwargs):
        nonlocal calls
        out = real(*args, **kwargs)
        if os.getpid() != main_pid:
            calls += 1
            if calls == 2:  # the helper's second reward batch: iteration 1's E2
                out = np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(training, "terminal_rewards_batch", poisoned)
    ds = tiny_dataset()
    cfg = tiny_config(iterations=3)
    with pytest.raises(FloatingPointError, match="non-finite reward at iteration 1"):
        joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert calls == 0   # counted in the helper alone
    assert multiprocessing.active_children() == []


# E2 goes to the helper, and so does half of every E3 set and fine-tune
# rollout; a run with none of these starts no helper
@pytest.mark.parametrize("overrides, starts", [
    (dict(ablation="no_meta", beta_prime=0.0), True),
    (dict(ablation="no_adaptation", beta_prime=0.0), True),
    (dict(ablation="no_adaptation", beta_prime=0.0, finetune_iterations=0), False),
    (dict(iterations=0), False),
], ids=["no_meta", "finetune", "no_finetune", "no_iterations"])
def test_helper_starts_only_for_e2_or_e3_rows(monkeypatch, overrides, starts):
    started = []
    real = helper.Helper
    e2_in_helper(monkeypatch, True)
    monkeypatch.setattr(helper, "Helper", lambda name: started.append(name) or real(name))
    ds = tiny_dataset()
    cfg = tiny_config(**overrides)
    joint_train(cfg, ds, imputer=pretrained_imputer(cfg, ds))
    assert started == ([helper.NAME] if starts else [])


# ---------------------------------------------------------------------------
# artifacts


def test_run_directory_contents(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(iterations=2)
    pre = pretrained_imputer(cfg, ds)
    out = tmp_path / "run"
    policy, imputer, record = joint_train(cfg, ds, imputer=pre, out_dir=out,
                                          trace_episodes=True)
    for name in ("config.txt", "environment.json", "run.csv", "actor.ckpt",
                 "critic.ckpt", "imputer.ckpt", "episodes.csv"):
        assert (out / name).exists(), name
    assert load_config(out / "config.txt") == cfg
    stats, meta = load_run_csv(out / "run.csv")
    assert len(stats) == 2
    assert meta["checksums"]["actor"] == params_checksum(policy.actor)
    loaded = load_imputer(out / "imputer.ckpt")
    assert params_checksum(loaded.net) == record.checksums["imputer"]


def test_repeated_runs_write_identical_run_csv(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(iterations=3)
    pre = pretrained_imputer(cfg, ds)
    joint_train(cfg, ds, imputer=pre, out_dir=tmp_path / "a")
    joint_train(cfg, ds, imputer=pre, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()
    assert (tmp_path / "a" / "actor.ckpt").read_bytes() == (tmp_path / "b" / "actor.ckpt").read_bytes()


def test_run_manifest_records_numeric_environment(tmp_path, monkeypatch):
    # the manifest sits beside run.csv; rerun byte identity with it written
    # is checked by test_repeated_runs_write_identical_run_csv and gate 12
    ds = tiny_dataset()
    cfg = tiny_config(iterations=2)
    pre = pretrained_imputer(cfg, ds)
    monkeypatch.setattr(helper, "blas_threads", lambda: 3)
    joint_train(cfg, ds, imputer=pre, out_dir=tmp_path / "a")
    with open(tmp_path / "a" / "environment.json") as f:
        env = json.load(f)
    assert env == environment_manifest()
    assert set(env) == {"python", "numpy", "blas", "blas_threads", "blas_core"}
    assert env["numpy"] == np.__version__
    assert env["blas_threads"] == 3
    assert env["blas_core"] == helper.blas_core()
    if env["blas"] is not None:
        assert set(env["blas"]) == {"name", "version"}


# ---------------------------------------------------------------------------
# fine-tune after a frozen run


def test_finetune_zero_iterations_is_identity():
    ds = tiny_dataset()
    cfg = tiny_config(ablation="no_adaptation", beta_prime=0.0, iterations=1,
                      finetune_iterations=0)
    pre = pretrained_imputer(cfg, ds)
    _, tuned, _ = joint_train(cfg, ds, imputer=pre)
    assert tuned is not pre
    assert_params_equal(tuned.net, pre.net)


def test_finetune_does_not_mutate_inputs():
    ds = tiny_dataset()
    cfg = tiny_config(ablation="no_adaptation", beta_prime=0.0, iterations=1,
                      finetune_iterations=2)
    pre = pretrained_imputer(cfg, ds)
    before = [p.copy() for p in pre.net.params()]
    _, tuned, _ = joint_train(cfg, ds, imputer=pre)
    for a, b in zip(before, pre.net.params()):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b)
               for a, b in zip(tuned.net.params(), pre.net.params()))


def test_run_training_finetunes_frozen_runs(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(ablation="no_adaptation", beta_prime=0.0, iterations=2,
                      finetune_iterations=2)
    pre = pretrained_imputer(cfg, ds)
    out = tmp_path / "run"
    policy, imputer, record = joint_train(cfg, ds, imputer=pre, out_dir=out)
    # the fine-tuned imputer, not the frozen one, is returned and lands on disk
    assert any(not np.array_equal(a, b)
               for a, b in zip(imputer.net.params(), pre.net.params()))
    loaded = load_imputer(out / "imputer.ckpt")
    assert_params_equal(loaded.net, imputer.net)
    _, meta = load_run_csv(out / "run.csv")
    assert meta["checksums"]["imputer"] == params_checksum(imputer.net)


def test_run_training_full_mode_skips_finetune():
    ds = tiny_dataset()
    cfg = tiny_config(iterations=2, finetune_iterations=5)
    pre = pretrained_imputer(cfg, ds)
    a = joint_train(cfg, ds, imputer=pre)
    b = joint_train(dataclasses.replace(cfg, finetune_iterations=0), ds, imputer=pre)
    assert_params_equal(a[1].net, b[1].net)


def test_imputer_width_is_checked_before_the_run_directory_is_written(tmp_path):
    cfg = tiny_config()
    wide = build_imputer(D + 2, cfg.variant, noise_dim=cfg.noise_dim,
                         hidden=cfg.imputer_hidden, rng=np.random.default_rng(0))
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"imputer dimension {D + 2} != dataset dimension {D}"):
        joint_train(cfg, tiny_dataset(), imputer=wide, out_dir=out)
    assert not out.exists()
