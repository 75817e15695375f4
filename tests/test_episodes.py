import tracemalloc

import numpy as np
import pytest

from measim.episodes import (
    ExplicitSelector,
    UniformSelector,
    horizon_for,
    rollout_batch,
    rollout_with_selector,
    terminal_rewards_batch,
    topk_rmse,
    write_episode_trace,
)
from measim.imputer import build_imputer, impute_batch
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


def test_terminal_rewards_reject_k_below_one():
    d = 5
    model = constant_imputer(d, "sinusoid", 0.0)
    roll = rollout_batch(make_policy(d, seed=17), np.ones((2, d)), 2, "stochastic",
                         np.random.default_rng(18))
    assert terminal_rewards_batch(model, roll, 1, np.random.default_rng(19)).shape == (2,)
    with pytest.raises(ValueError, match="k must be >= 1"):
        terminal_rewards_batch(model, roll, 0, np.random.default_rng(19))


# ---------------------------------------------------------------- x̄ sampling


def test_generate_complete_contracts():
    # x̄ for an episode is one imputation draw of a training row
    model = build_imputer(6, "sinusoid", rng=np.random.default_rng(1))
    full = np.array([[1.0, 2, 3, 4, 5, 6]])
    assert np.array_equal(impute_batch(model, full, np.ones((1, 6)), np.random.default_rng(2)),
                          full)

    mask = np.array([[1.0, 0, 1, 0, 0, 1]])
    vals = np.array([[0.5, 0, -0.3, 0, 0, 0.9]]) * mask
    a = impute_batch(model, vals, mask, np.random.default_rng(3))
    b = impute_batch(model, vals, mask, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert np.array_equal(a[mask == 1.0], vals[mask == 1.0])


# ------------------------------------------------------------------- rollouts


def test_full_horizon_reveals_everything():
    d = 7
    policy = make_policy(d)
    x_bar = np.random.default_rng(4).normal(size=(1, d))
    roll = rollout_batch(policy, x_bar, d, "stochastic", np.random.default_rng(5))
    assert np.array_equal(roll.terminal_masks, np.ones((1, d)))
    assert np.array_equal(roll.terminal_values, x_bar)


def test_step_mask_cardinality_and_consistency():
    d = 9
    policy = make_policy(d)
    x_bar = np.random.default_rng(6).normal(size=(1, d))
    roll = rollout_batch(policy, x_bar, 5, "explore", np.random.default_rng(7))
    assert roll.horizon == 5
    for t, s in enumerate(roll.steps):
        assert_kept_state(s, policy, roll)
        a = int(s.actions[0])
        assert s.masks.sum() == t
        obs = s.masks == 1.0
        assert np.array_equal(s.values[obs], x_bar.astype(policy.actor.dtype)[obs])
        assert s.masks[0, a] == 0.0
        log_prob = np.log(s.sample_probs[0, a])
        assert np.isfinite(log_prob) and log_prob <= 0.0
    assert roll.terminal_masks.sum() == 5
    actions = [int(s.actions[0]) for s in roll.steps]
    assert len(set(actions)) == 5
    # revealing order reconstructs the terminal state
    rebuilt = np.zeros((1, d))
    for a in actions:
        rebuilt[0, a] = x_bar[0, a]
    assert np.array_equal(rebuilt, roll.terminal_values)


def assert_kept_state(s, policy, roll):
    """A kept step's state is its actor input, in the actor's dtype, and
    shares no memory with the state the rollout went on to mutate."""
    assert s.state is s.tape.inputs[0]
    assert s.state.dtype == policy.actor.dtype
    assert not np.shares_memory(s.state, roll.terminal_values)


@pytest.mark.parametrize("mode", ["explore", "stochastic", "greedy"])
def test_step_records_keep_their_own_state(mode):
    # records share no memory with the state the rollout goes on to mutate;
    # greedy steps take no gradient and keep no state at all
    b, d, horizon = 6, 8, 5
    policy = make_policy(d)
    x_bar = np.random.default_rng(8).normal(size=(b, d))
    roll = rollout_batch(policy, x_bar, horizon, mode, np.random.default_rng(9))
    for t, s in enumerate(roll.steps):
        if mode == "greedy":
            assert s.state is None and s.actions.shape == (b,)
            continue
        assert_kept_state(s, policy, roll)
        assert np.array_equal(s.masks.sum(axis=1), np.full(b, float(t)))
        assert np.array_equal(s.values,
                              np.where(s.masks == 1.0, x_bar.astype(policy.actor.dtype), 0.0))
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
    rolls = [rollout_batch(policy, x_bar, 3, "greedy", np.random.default_rng(17))]
    rolls += [rollout_batch(policy, x_bar, 3, mode, np.random.default_rng(17), grad=False)
              for mode in ("explore", "stochastic")]
    for roll in rolls:
        assert all(s.tape is None for s in roll.steps)
        with pytest.raises(ValueError, match="step 0 has no actor tape"):
            actor_gradient(policy, roll.steps, adv)


@pytest.mark.parametrize("mode", ["explore", "stochastic"])
def test_grad_false_rollout_keeps_actions_only_and_same_bits(mode):
    # the same draws run with or without the records, so every output bit
    # and the generator's final state match
    b, d, horizon = 7, 9, 6
    policy = make_policy(d, seed=21)
    x_bar = np.random.default_rng(22).normal(size=(b, d))
    rng_full, rng_bare = np.random.default_rng(23), np.random.default_rng(23)
    full = rollout_batch(policy, x_bar, horizon, mode, rng_full)
    bare = rollout_batch(policy, x_bar, horizon, mode, rng_bare, grad=False)
    assert bare.horizon == horizon
    for f, s in zip(full.steps, bare.steps):
        assert np.array_equal(f.actions, s.actions)
        assert all(x is None for x in (s.state, s.tape, s.probs, s.sample_probs))
    assert np.array_equal(full.terminal_values, bare.terminal_values)
    assert np.array_equal(full.terminal_masks, bare.terminal_masks)
    assert rng_full.bit_generator.state == rng_bare.bit_generator.state


def held_states(mode, b=720, **kwargs):
    """(B, 2D) float64 states' worth of memory a B-row, D=100, 20-step
    rollout holds."""
    d, horizon = 100, 20
    policy = build_policy(d, rng=np.random.default_rng(18))
    x_bar = np.random.default_rng(19).normal(size=(b, d))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        roll = rollout_batch(policy, x_bar, horizon, mode, np.random.default_rng(20),
                             **kwargs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert roll.horizon == horizon
    return held / (b * 2 * d * 8)


def test_kept_rollout_holds_one_state_per_step():
    # each kept step holds its actor input alone, in the actor's float32
    # (half a float64 state), beside its tape and probabilities; a second,
    # float64 copy of every step's state would add 20 states' worth
    assert held_states("explore", b=64) <= 75


def test_greedy_rollout_holds_actions_only():
    # the terminal state plus 20 (B,) action arrays; a state per step would
    # add 20 more, a kept actor tape about 3 per step
    assert held_states("greedy") <= 2


@pytest.mark.parametrize("mode", ["explore", "stochastic"])
def test_grad_false_rollout_holds_actions_only(mode):
    assert held_states(mode, grad=False) <= 2


def test_greedy_rollout_deterministic():
    d = 6
    policy = make_policy(d, seed=12)
    x_bar = np.random.default_rng(13).normal(size=(1, d))
    a = rollout_batch(policy, x_bar, 4, "greedy", np.random.default_rng(14))
    b = rollout_batch(policy, x_bar, 4, "greedy", np.random.default_rng(15))
    assert [int(s.actions[0]) for s in a.steps] == [int(s.actions[0]) for s in b.steps]


def test_rollout_validation():
    policy = make_policy(5)
    x_bar = np.zeros((1, 5))
    with pytest.raises(ValueError):
        rollout_batch(policy, x_bar, 6, "stochastic", np.random.default_rng(0))
    with pytest.raises(ValueError):
        rollout_batch(policy, x_bar, 0, "stochastic", np.random.default_rng(0))
    with pytest.raises(ValueError):
        rollout_batch(policy, x_bar, 2, "thompson", np.random.default_rng(0))
    # one episode is a one-row batch, not a vector
    with pytest.raises(ValueError, match=r"\(batch, D\) matrix, got shape \(5,\)"):
        rollout_batch(policy, np.zeros(5), 2, "stochastic", np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"\(batch, D\) matrix, got shape \(5,\)"):
        rollout_with_selector(UniformSelector(), np.zeros(5), 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"horizon must lie in \[1, 5\], got 6"):
        rollout_with_selector(UniformSelector(), x_bar, 6, np.random.default_rng(0))


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


def test_topk_rmse_broadcasts_over_rows():
    rng = np.random.default_rng(17)
    x_bar = rng.normal(size=(4, 7))
    cands = rng.normal(size=(3, 4, 7))
    errs = topk_rmse(cands, x_bar)
    assert errs.shape == (4,)
    for i in range(4):
        assert errs[i] == topk_rmse(cands[:, i], x_bar[i])


def test_terminal_reward_zero_when_candidate_exact():
    d = 5
    x_bar = np.linspace(0.0, 1.0, d)[None, :]
    model = constant_imputer(d, "sinusoid", x_bar[0])
    policy = make_policy(d, seed=17)
    roll = rollout_batch(policy, x_bar, 2, "stochastic", np.random.default_rng(18))
    r = terminal_rewards_batch(model, roll, 3, np.random.default_rng(19))
    assert np.array_equal(r, [0.0])


def test_terminal_reward_negative_on_mismatch():
    d = 5
    model = constant_imputer(d, "sinusoid", 0.0)
    x_bar = np.ones((1, d))
    policy = make_policy(d, seed=20)
    roll = rollout_batch(policy, x_bar, 2, "stochastic", np.random.default_rng(21))
    r = terminal_rewards_batch(model, roll, 2, np.random.default_rng(22))
    # three unobserved ones against constant-zero imputations
    assert r.shape == (1,)
    assert np.isclose(r[0], -np.sqrt(3.0 / 5.0), atol=1e-12)


def test_batch_rewards_match_shape_and_sign():
    d = 10
    model = build_imputer(d, "sinusoid", rng=np.random.default_rng(23))
    policy = make_policy(d, seed=24)
    x_bar = np.random.default_rng(25).normal(size=(8, d))
    roll = rollout_batch(policy, x_bar, 3, "explore", np.random.default_rng(26))
    rewards = terminal_rewards_batch(model, roll, 3,
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


def test_explicit_baseline_runs_and_respects_masks():
    d = 8
    rng = np.random.default_rng(2)
    imputer = build_imputer(d, "sinusoid", noise_dim=3, hidden=(8,), rng=rng)
    data = rng.normal(size=(6, d))
    roll = rollout_with_selector(ExplicitSelector(imputer, k=4), data, 3,
                                 np.random.default_rng(3))
    assert roll.terminal_masks.sum() == 6 * 3
    obs = roll.terminal_masks == 1.0
    assert np.array_equal(roll.terminal_values[obs], roll.x_bar[obs])


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


@pytest.mark.parametrize("variant", ["sinusoid", "image"])
def test_explicit_selector_equals_the_variance_of_completions(variant):
    # the raw draws and impute_batch's completions agree where a coordinate
    # is unobserved, and the in-place variance keeps np.var's bits; the same
    # noise is drawn, so rng ends where impute_batch leaves it
    d = 12
    model = build_imputer(d, variant, noise_dim=3, hidden=(16,), rng=np.random.default_rng(36))
    sel = ExplicitSelector(model, k=5)
    rng = np.random.default_rng(37)
    for n_obs in (0, 1, 6, 11):
        masks = np.zeros((40, d))
        for i in range(40):
            masks[i, rng.choice(d, size=n_obs, replace=False)] = 1.0
        values = rng.uniform(size=(40, d)) * masks
        ours, theirs = np.random.default_rng(n_obs), np.random.default_rng(n_obs)
        actions = sel(values, masks, ours)
        var = impute_batch(model, values, masks, theirs, k=5).var(axis=0)
        assert np.array_equal(actions, np.argmax(np.where(masks == 0.0, var, -1.0), axis=1))
        assert ours.random() == theirs.random()


def test_selector_rollout_rejects_observed_choice():
    class BadSelector:
        def __call__(self, values, masks, rng):
            return np.zeros(masks.shape[0], dtype=int)

    with pytest.raises(RuntimeError, match="step 1 chose an already observed coordinate"):
        rollout_with_selector(BadSelector(), np.zeros((2, 4)), 2,
                              np.random.default_rng(35))


def test_selector_rollout_reports_its_horizon(tmp_path):
    # baseline steps keep their actions, as a grad=False policy step does
    b, d, t = 3, 6, 4
    x_bar = np.random.default_rng(39).normal(size=(b, d))
    roll = rollout_with_selector(UniformSelector(), x_bar, t, np.random.default_rng(40))
    assert roll.horizon == t
    rebuilt = np.zeros((b, d))
    for s in roll.steps:
        assert all(x is None for x in (s.state, s.tape, s.probs, s.sample_probs))
        assert s.actions.shape == (b,)
        rebuilt[np.arange(b), s.actions] = 1.0
    assert np.array_equal(rebuilt, roll.terminal_masks)
    path = tmp_path / "episodes.csv"
    write_episode_trace(path, roll, np.zeros(b))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + t * b


def separate_array_selector_rollout(selector, x_bar, horizon, rng):
    """Reference: the baseline loop as it stood before policy and baseline
    rollouts shared one loop, with separate values and masks arrays.

    Returns the per-step actions and the terminal values and masks.
    """
    b, d = x_bar.shape
    values = np.zeros((b, d))
    masks = np.zeros((b, d))
    rows = np.arange(b)
    steps = []
    for _ in range(horizon):
        actions = np.asarray(selector(values, masks, rng))
        if np.any(masks[rows, actions] == 1.0):
            raise RuntimeError("selector chose an already observed coordinate")
        masks[rows, actions] = 1.0
        values[rows, actions] = x_bar[rows, actions]
        steps.append(actions)
    return steps, values, masks


@pytest.mark.parametrize("kind", ["uniform", "explicit"])
def test_selector_rollout_matches_separate_array_loop_bitwise(kind):
    b, d = 360, 100
    horizon = horizon_for(d, 0.8)
    model = build_imputer(d, "sinusoid", rng=np.random.default_rng(41))
    x_bar = np.sin(np.linspace(0.0, 6.0, d) + np.random.default_rng(42).uniform(
        0.0, 2 * np.pi, size=(b, 1)))
    selector = UniformSelector() if kind == "uniform" else ExplicitSelector(model, k=3)
    rng_ref, rng_new = np.random.default_rng(43), np.random.default_rng(43)
    ref_steps, ref_values, ref_masks = separate_array_selector_rollout(
        selector, x_bar, horizon, rng_ref)
    roll = rollout_with_selector(selector, x_bar, horizon, rng_new)
    assert roll.horizon == horizon
    for ref, s in zip(ref_steps, roll.steps):
        assert np.array_equal(ref, s.actions)
    assert np.array_equal(ref_values.view(np.uint64), roll.terminal_values.view(np.uint64))
    assert np.array_equal(ref_masks.view(np.uint64), roll.terminal_masks.view(np.uint64))
    assert rng_ref.bit_generator.state == rng_new.bit_generator.state


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
