import tracemalloc

import numpy as np
import pytest

from measim.episodes import (
    Episode,
    ExplicitSelector,
    RewardConfig,
    UniformSelector,
    generate_complete,
    horizon_for,
    rollout_batch,
    rollout_with_selector,
    run_episode,
    terminal_reward,
    terminal_rewards_batch,
    topk_rmse,
    write_episode_trace,
)
from measim.imputer import build_imputer
from measim.masks import MissingState
from measim.policy import actor_gradient, build_policy


def make_policy(d, seed=0, dropout=0.1):
    return build_policy(d, actor_hidden=(16,), critic_hidden=(8,), dropout=dropout,
                        rng=np.random.default_rng(seed))


def constant_imputer(d, variant, out_bias, noise_dim=2):
    model = build_imputer(d, variant, noise_dim=noise_dim, hidden=(4,),
                          rng=np.random.default_rng(0))
    for w in model.net.weights:
        w[:] = 0.0
    for b in model.net.biases:
        b[:] = 0.0
    model.net.biases[-1][:] = out_bias
    return model


# -------------------------------------------------------------------- horizon


def test_horizon_examples():
    assert horizon_for(100, 0.9) == 10
    assert horizon_for(144, 0.85) == 22
    assert horizon_for(100, 0.0) == 100
    assert horizon_for(3, 0.99) == 1
    with pytest.raises(ValueError):
        horizon_for(100, 1.0)
    with pytest.raises(ValueError):
        horizon_for(100, -0.1)


def test_reward_config_validation():
    RewardConfig(k=1)
    with pytest.raises(ValueError):
        RewardConfig(k=0)


# ---------------------------------------------------------------- x̄ sampling


def test_generate_complete_contracts():
    model = build_imputer(6, "sinusoid", rng=np.random.default_rng(1))
    full = MissingState(np.array([1.0, 2, 3, 4, 5, 6]), np.ones(6))
    assert np.array_equal(generate_complete(model, full, np.random.default_rng(2)),
                          full.values)

    mask = np.array([1.0, 0, 1, 0, 0, 1])
    vals = np.array([0.5, 0, -0.3, 0, 0, 0.9]) * mask
    x_m = MissingState(vals, mask)
    a = generate_complete(model, x_m, np.random.default_rng(3))
    b = generate_complete(model, x_m, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert np.array_equal(a[mask == 1.0], vals[mask == 1.0])


# ------------------------------------------------------------------- rollouts


def test_full_horizon_reveals_everything():
    d = 7
    policy = make_policy(d)
    x_bar = np.random.default_rng(4).normal(size=d)
    ep = run_episode(policy, x_bar, d, "stochastic", np.random.default_rng(5))
    assert np.array_equal(ep.terminal_state.mask, np.ones(d))
    assert np.array_equal(ep.terminal_state.values, x_bar)


def test_step_mask_cardinality_and_consistency():
    d = 9
    policy = make_policy(d)
    x_bar = np.random.default_rng(6).normal(size=d)
    ep = run_episode(policy, x_bar, 5, "explore", np.random.default_rng(7))
    assert len(ep.steps) == 5
    for t, (state, action, log_prob) in enumerate(ep.steps):
        assert state.observed_count() == t
        obs = state.mask == 1.0
        assert np.array_equal(state.values[obs], x_bar[obs])
        assert state.mask[action] == 0.0
        assert np.isfinite(log_prob) and log_prob <= 0.0
    assert ep.terminal_state.observed_count() == 5
    actions = [a for _, a, _ in ep.steps]
    assert len(set(actions)) == 5
    # revealing order reconstructs the terminal state
    rebuilt = np.zeros(d)
    for _, a, _ in ep.steps:
        rebuilt[a] = x_bar[a]
    assert np.array_equal(rebuilt, ep.terminal_state.values)


@pytest.mark.parametrize("mode", ["explore", "stochastic", "greedy"])
def test_step_records_keep_their_own_state(mode):
    # records share no memory with the state the rollout goes on to mutate
    b, d, horizon = 6, 8, 5
    policy = make_policy(d)
    x_bar = np.random.default_rng(8).normal(size=(b, d))
    roll = rollout_batch(policy, x_bar, horizon, mode, np.random.default_rng(9))
    for t, s in enumerate(roll.steps):
        assert np.array_equal(s.masks.sum(axis=1), np.full(b, float(t)))
        assert np.array_equal(s.values, np.where(s.masks == 1.0, x_bar, 0.0))
        assert np.shares_memory(s.values, s.state) and np.shares_memory(s.masks, s.state)
        assert np.all(s.masks[np.arange(b), s.actions] == 0.0)
    assert np.array_equal(roll.terminal_masks.sum(axis=1), np.full(b, float(horizon)))
    assert np.array_equal(roll.terminal_values,
                          np.where(roll.terminal_masks == 1.0, x_bar, 0.0))


@pytest.mark.parametrize("mode", ["explore", "stochastic", "greedy"])
def test_no_coordinate_measured_twice_any_mode(mode):
    d, t, b = 8, 6, 2000
    policy = make_policy(d, seed=8)
    x_bar = np.random.default_rng(9).normal(size=(b, d))
    roll = rollout_batch(policy, x_bar, t, mode, np.random.default_rng(10))
    assert np.array_equal(roll.terminal_masks.sum(axis=1), np.full(b, float(t)))
    seen = np.stack([s.actions for s in roll.steps], axis=1)
    for i in range(b):
        assert len(set(seen[i].tolist())) == t


def test_one_step_uniform_policy_frequencies():
    d = 4
    policy = make_policy(d, dropout=0.0)
    for w in policy.actor.weights:
        w[:] = 0.0
    for bias in policy.actor.biases:
        bias[:] = 0.0
    x_bar = np.zeros((100_000, d))
    roll = rollout_batch(policy, x_bar, 1, "stochastic", np.random.default_rng(11))
    freq = np.bincount(roll.steps[0].actions, minlength=d) / 100_000
    assert np.all(np.abs(freq - 0.25) < 0.01)


def test_only_train_mode_steps_keep_tapes():
    b, d = 4, 6
    policy = make_policy(d)
    x_bar = np.random.default_rng(16).normal(size=(b, d))
    adv = [np.ones(b)] * 3
    for mode in ("explore", "stochastic"):
        roll = rollout_batch(policy, x_bar, 3, mode, np.random.default_rng(17))
        assert all(s.tape is not None for s in roll.steps)
        actor_gradient(policy, roll.steps, adv)
    roll = rollout_batch(policy, x_bar, 3, "greedy", np.random.default_rng(17))
    assert all(s.tape is None for s in roll.steps)
    with pytest.raises(ValueError, match="step 0 has no actor tape"):
        actor_gradient(policy, roll.steps, adv)


def test_greedy_rollout_holds_states_probs_and_actions_only():
    # 20 step states + the terminal one + 20 (B, D) probs = 31 states; a kept
    # actor tape would add about 3 states per step (92 in all)
    b, d, horizon = 720, 100, 20
    policy = build_policy(d, rng=np.random.default_rng(18))
    x_bar = np.random.default_rng(19).normal(size=(b, d))
    one_state = b * 2 * d * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        roll = rollout_batch(policy, x_bar, horizon, "greedy", np.random.default_rng(20))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert roll.horizon == horizon
    assert held <= 32 * one_state, held / one_state


def test_greedy_rollout_deterministic():
    d = 6
    policy = make_policy(d, seed=12)
    x_bar = np.random.default_rng(13).normal(size=d)
    a = run_episode(policy, x_bar, 4, "greedy", np.random.default_rng(14))
    b = run_episode(policy, x_bar, 4, "greedy", np.random.default_rng(15))
    assert [s[1] for s in a.steps] == [s[1] for s in b.steps]


def test_rollout_validation():
    policy = make_policy(5)
    x_bar = np.zeros(5)
    with pytest.raises(ValueError):
        rollout_batch(policy, x_bar, 6, "stochastic", np.random.default_rng(0))
    with pytest.raises(ValueError):
        rollout_batch(policy, x_bar, 0, "stochastic", np.random.default_rng(0))
    with pytest.raises(ValueError):
        rollout_batch(policy, x_bar, 2, "thompson", np.random.default_rng(0))


# --------------------------------------------------------------------- reward


def test_topk_rmse_hand_example():
    x_bar = np.array([1.0, 0.0])
    cands = np.array([[0.0, 0.0], [1.0, 0.5]])
    r2 = topk_rmse(cands, x_bar)
    assert np.isclose(r2, np.sqrt(0.125), atol=1e-12)
    assert np.isclose(r2, 0.35355339059327373, atol=1e-12)
    # top-1 with only the first candidate is worse
    assert topk_rmse(cands[:1], x_bar) == np.sqrt(0.5)


def test_topk_rmse_nested_monotone():
    rng = np.random.default_rng(16)
    for _ in range(50):
        d = int(rng.integers(2, 20))
        x_bar = rng.normal(size=d)
        cands = rng.normal(size=(6, d))
        vals = [topk_rmse(cands[:k], x_bar) for k in range(1, 7)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_terminal_reward_zero_when_candidate_exact():
    d = 5
    x_bar = np.linspace(0.0, 1.0, d)
    model = constant_imputer(d, "sinusoid", x_bar)
    policy = make_policy(d, seed=17)
    ep = run_episode(policy, x_bar, 2, "stochastic", np.random.default_rng(18))
    r = terminal_reward(model, ep, RewardConfig(k=3), np.random.default_rng(19))
    assert r == 0.0


def test_terminal_reward_negative_on_mismatch():
    d = 5
    model = constant_imputer(d, "sinusoid", 0.0)
    x_bar = np.ones(d)
    policy = make_policy(d, seed=20)
    ep = run_episode(policy, x_bar, 2, "stochastic", np.random.default_rng(21))
    r = terminal_reward(model, ep, RewardConfig(k=2), np.random.default_rng(22))
    # three unobserved ones against constant-zero imputations
    assert np.isclose(r, -np.sqrt(3.0 / 5.0), atol=1e-12)


def test_batch_rewards_match_shape_and_sign():
    d = 10
    model = build_imputer(d, "sinusoid", rng=np.random.default_rng(23))
    policy = make_policy(d, seed=24)
    x_bar = np.random.default_rng(25).normal(size=(8, d))
    roll = rollout_batch(policy, x_bar, 3, "explore", np.random.default_rng(26))
    rewards = terminal_rewards_batch(model, roll, RewardConfig(k=3),
                                     np.random.default_rng(27))
    assert rewards.shape == (8,)
    assert np.all(rewards <= 0.0)
    assert np.all(np.isfinite(rewards))


# ------------------------------------------------------------------ baselines


def test_uniform_selector_matches_mcar_marginals():
    d, t, b = 10, 4, 30_000
    x_bar = np.zeros((b, d))
    roll = rollout_with_selector(UniformSelector(), x_bar, t, np.random.default_rng(28))
    freq = roll.terminal_masks.mean(axis=0)
    p = t / d
    sigma = np.sqrt(p * (1 - p) / b)
    assert np.all(np.abs(freq - p) < 4 * sigma)
    assert np.array_equal(roll.terminal_masks.sum(axis=1), np.full(b, float(t)))


def test_uniform_selector_full_horizon_is_permutation():
    d = 6
    roll = rollout_with_selector(UniformSelector(), np.zeros((50, d)), d,
                                 np.random.default_rng(29))
    assert np.array_equal(roll.terminal_masks, np.ones((50, d)))


def test_explicit_selector_zero_variance_tie_breaks_low():
    d = 5
    model = constant_imputer(d, "sinusoid", 0.7)
    sel = ExplicitSelector(model, k=3)
    actions = sel(np.zeros((4, d)), np.zeros((4, d)), np.random.default_rng(30))
    assert np.array_equal(actions, np.zeros(4, dtype=int))


def test_explicit_selector_prefers_noisy_coordinate():
    d = 5
    # output depends on noise only at coordinate 3
    model = build_imputer(d, "sinusoid", noise_dim=1, hidden=(4,),
                          rng=np.random.default_rng(31))
    for w in model.net.weights:
        w[:] = 0.0
    for b in model.net.biases:
        b[:] = 0.0
    model.net.weights[0][0, -1] = 1.0   # hidden unit 0 reads the noise column
    model.net.weights[-1][3, 0] = 5.0   # coordinate 3 reads hidden unit 0
    sel = ExplicitSelector(model, k=4)
    actions = sel(np.zeros((6, d)), np.zeros((6, d)), np.random.default_rng(32))
    assert np.array_equal(actions, np.full(6, 3))


def test_explicit_selector_never_picks_observed():
    d = 6
    model = build_imputer(d, "sinusoid", rng=np.random.default_rng(33))
    sel = ExplicitSelector(model, k=3)
    rng = np.random.default_rng(34)
    for _ in range(30):
        masks = np.zeros((5, d))
        for i in range(5):
            masks[i, rng.choice(d, size=3, replace=False)] = 1.0
        values = rng.normal(size=(5, d)) * masks
        actions = sel(values, masks, rng)
        assert np.all(masks[np.arange(5), actions] == 0.0)
    with pytest.raises(ValueError):
        ExplicitSelector(model, k=1)


def test_selector_rollout_rejects_observed_choice():
    class BadSelector:
        def __call__(self, values, masks, rng):
            return np.zeros(masks.shape[0], dtype=int)

    with pytest.raises(RuntimeError):
        rollout_with_selector(BadSelector(), np.zeros((2, 4)), 2,
                              np.random.default_rng(35))


# --------------------------------------------------------------------- traces


def test_episode_trace_csv(tmp_path):
    d = 5
    policy = make_policy(d, seed=36)
    x_bar = np.random.default_rng(37).normal(size=(3, d))
    roll = rollout_batch(policy, x_bar, 2, "stochastic", np.random.default_rng(38))
    rewards = np.array([-0.1, -0.2, -0.3])
    path = tmp_path / "episodes.csv"
    write_episode_trace(path, roll, rewards)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "episode_id,t,action,reward_at_terminal"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[3]) == -0.1
