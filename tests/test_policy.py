import copy

import numpy as np
import pytest

from measim import nn
from measim.episodes import rollout_batch
from measim.imputer import build_imputer, load_imputer, save_imputer
from measim.policy import (
    PolicyModel,
    StepBatch,
    actor_gradient,
    advantages_for,
    build_policy,
    critic_update,
    explore_coefficient,
    flatten_explore,
    load_policy,
    masked_softmax,
    reinforce_update,
    sample_actions,
    save_policy,
    unobserved_normalizer,
)


def fixed_score_policy(scores, critic_bias=0.0, dropout=0.0):
    """Policy whose actor always outputs `scores` and critic outputs a constant."""
    d = len(scores)
    model = build_policy(d, actor_hidden=(4,), critic_hidden=(4,),
                         dropout=dropout, rng=np.random.default_rng(0))
    for w in model.actor.weights:
        w[:] = 0.0
    for b in model.actor.biases:
        b[:] = 0.0
    model.actor.biases[-1][:] = scores
    for w in model.critic.weights:
        w[:] = 0.0
    for b in model.critic.biases:
        b[:] = 0.0
    model.critic.biases[-1][:] = critic_bias
    return model


def naive_masked_softmax(scores, mask):
    """Unshifted reference: exp(s) restricted to unobserved, normalized."""
    w = np.where(mask == 0.0, np.exp(scores), 0.0)
    return w / w.sum()


def action_probs(model, masks, values=None):
    """Dropout-free action distribution at a (B, D) block of states."""
    values = np.zeros_like(masks) if values is None else values
    scores, _ = nn.forward(model.actor, np.concatenate([values, masks], axis=1),
                           mode="eval")
    return masked_softmax(scores, masks)


def greedy_actions(model, x_bar, horizon):
    """(horizon, B) actions of a greedy rollout."""
    roll = rollout_batch(model, x_bar, horizon, "greedy", np.random.default_rng(0))
    return np.stack([s.actions for s in roll.steps])


# ------------------------------------------------------------- distribution


def test_single_unobserved_coordinate_is_forced():
    model = fixed_score_policy([0.3, -2.0, 4.0])
    dist = action_probs(model, np.array([[1.0, 1.0, 0.0]]))
    assert np.array_equal(dist, [[0.0, 0.0, 1.0]])


def test_equal_scores_symmetric_split():
    model = fixed_score_policy([0.0, 0.0, 0.0])
    dist = action_probs(model, np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(dist, [[0.0, 0.5, 0.5]], atol=1e-15)
    assert dist[0, 0] == 0.0


def test_hand_softmax_ln2():
    model = fixed_score_policy([np.log(2.0), 0.0, 0.0])
    dist = action_probs(model, np.zeros((1, 3)))
    assert np.allclose(dist, [[0.5, 0.25, 0.25]], atol=1e-15)


def test_fully_observed_state_rejected():
    model = fixed_score_policy([0.0, 0.0])
    with pytest.raises(ValueError, match="no legal action"):
        action_probs(model, np.ones((1, 2)), np.ones((1, 2)))
    # nor can a rollout reach one: the horizon is capped at D
    with pytest.raises(ValueError, match="horizon"):
        greedy_actions(model, np.ones((1, 2)), 3)


def test_masked_softmax_matches_naive_form():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = int(rng.integers(2, 12))
        scores = rng.normal(scale=3.0, size=(1, d))
        mask = np.zeros((1, d))
        n_obs = int(rng.integers(0, d))
        if n_obs:
            mask[0, rng.choice(d, size=n_obs, replace=False)] = 1.0
        got = masked_softmax(scores, mask)
        expect = naive_masked_softmax(scores, mask)
        assert np.allclose(got, expect, atol=1e-12)
        assert np.all(got[mask == 1.0] == 0.0)
        assert abs(got.sum() - 1.0) <= 1e-12


def test_masked_softmax_extreme_scores_stable():
    scores = np.array([[1000.0, 999.0, -1000.0]])
    dist = masked_softmax(scores, np.zeros((1, 3)))[0]
    assert np.all(np.isfinite(dist))
    assert abs(dist.sum() - 1.0) <= 1e-12
    assert dist[0] > dist[1] > dist[2]


def test_masked_softmax_returns_float64_from_float32_scores():
    scores = np.random.default_rng(4).normal(size=(64, 100)).astype(np.float32)
    masks = np.zeros((64, 100))
    masks[:, :30] = 1.0
    probs = masked_softmax(scores, masks)
    assert probs.dtype == np.float64
    assert np.array_equal(probs, masked_softmax(scores.astype(np.float64), masks))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)


# ---------------------------------------------------------------- flattening


def test_flatten_identity_at_zero():
    p = np.array([[0.7, 0.0, 0.3]])
    m = np.array([[0.0, 1.0, 0.0]])
    assert np.array_equal(flatten_explore(p, m, 0.0), p)


def test_flatten_half_gives_uniform():
    p = np.array([[0.9, 0.0, 0.05, 0.05]])
    m = np.array([[0.0, 1.0, 0.0, 0.0]])
    out = flatten_explore(p, m, 0.5)
    assert np.allclose(out, [[1 / 3, 0.0, 1 / 3, 1 / 3]], atol=1e-15)


def test_flatten_hand_example():
    p = np.array([[0.5, 0.25, 0.25]])
    out = flatten_explore(p, np.zeros((1, 3)), 0.1)
    assert np.allclose(out, [[5 / 11, 3 / 11, 3 / 11]], atol=1e-15)


def test_flatten_range_validation():
    p = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        flatten_explore(p, np.zeros((1, 2)), 0.6)
    with pytest.raises(ValueError):
        flatten_explore(p, np.zeros((1, 2)), -0.01)


def test_flatten_preserves_ranking_and_constraint():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(3, 10))
        mask = np.zeros((1, d))
        mask[0, rng.choice(d, size=int(rng.integers(0, d - 2)), replace=False)] = 1.0
        p = masked_softmax(rng.normal(size=(1, d)), mask)
        e = float(rng.uniform(0.01, 0.49))
        q = flatten_explore(p, mask, e)
        assert np.all(q[mask == 1.0] == 0.0)
        assert abs(q.sum() - 1.0) <= 1e-12
        unobs = np.flatnonzero(mask[0] == 0.0)
        for i in unobs:
            for j in unobs:
                if p[0, i] > p[0, j]:
                    assert q[0, i] > q[0, j]


def test_normalizer_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        mask = np.zeros((1, d))
        mask[0, rng.choice(d, size=int(rng.integers(0, d - 1)), replace=False)] = 1.0
        p = masked_softmax(rng.normal(size=(1, d)), mask)
        e = float(rng.uniform(0.0, 0.5))
        u = np.where(mask == 0.0, (1 - e) * p + e * (1 - p), 0.0)
        assert np.isclose(unobserved_normalizer(mask, e)[0], u.sum(), atol=1e-12)


def test_explore_coefficient_matches_score_derivative():
    # numeric check of d log pi_e(a) / d scores = coef * (onehot - pi)
    rng = np.random.default_rng(4)
    d = 5
    mask = np.array([[0.0, 1.0, 0.0, 0.0, 0.0]])
    scores = rng.normal(size=(1, d))
    e = 0.17
    action = 3

    def log_pe(s):
        p = masked_softmax(s, mask)
        return np.log(flatten_explore(p, mask, e)[0, action])

    h = 1e-6
    fd = np.zeros((1, d))
    for j in range(d):
        sp, sm = scores.copy(), scores.copy()
        sp[0, j] += h
        sm[0, j] -= h
        fd[0, j] = (log_pe(sp) - log_pe(sm)) / (2 * h)

    p = masked_softmax(scores, mask)
    pe = flatten_explore(p, mask, e)
    coef = explore_coefficient(p, pe, np.array([action]), mask, e)[0]
    onehot = np.zeros((1, d))
    onehot[0, action] = 1.0
    assert np.allclose(fd, coef * (onehot - p), atol=1e-6)
    # e = 0 reduces to the plain log-softmax coefficient
    assert explore_coefficient(p, p, np.array([action]), mask, 0.0)[0] == 1.0


# ------------------------------------------------------------------ sampling


def test_sample_deterministic_distribution():
    dist = np.array([[0.0, 0.0, 1.0, 0.0]])
    rng = np.random.default_rng(5)
    assert all(sample_actions(dist, rng)[0] == 2 for _ in range(20))


def test_sample_uniform_frequencies():
    dist = np.tile(np.array([0.25, 0.0, 0.25, 0.25, 0.25]), (100_000, 1))
    actions = sample_actions(dist, np.random.default_rng(6))
    freq = np.bincount(actions, minlength=5) / 100_000
    assert freq[1] == 0.0
    assert np.all(np.abs(freq[[0, 2, 3, 4]] - 0.25) < 0.005)


def test_sample_never_hits_observed_million_draws():
    rng = np.random.default_rng(7)
    d = 8
    masks = np.zeros((20, d))
    for i in range(20):
        masks[i, rng.choice(d, size=int(rng.integers(1, d - 1)), replace=False)] = 1.0
    probs = masked_softmax(rng.normal(size=(20, d)), masks)
    tiled_p = np.tile(probs, (50_000, 1))
    tiled_m = np.tile(masks, (50_000, 1))
    actions = sample_actions(tiled_p, rng)
    assert actions.shape == (1_000_000,)
    assert np.all(tiled_m[np.arange(actions.size), actions] == 0.0)


# -------------------------------------------------------------------- greedy


def test_greedy_hand_examples():
    # from nothing observed: the top score, then the top one left unobserved
    model = fixed_score_policy([3.0, 1.0, 2.0])
    assert np.array_equal(greedy_actions(model, np.zeros((1, 3)), 2), [[0], [2]])
    tied = fixed_score_policy([1.0, 1.0])
    assert np.array_equal(greedy_actions(tied, np.zeros((1, 2)), 1), [[0]])


def test_greedy_invariant_to_constant_shift():
    rng = np.random.default_rng(8)
    model = build_policy(6, actor_hidden=(8,), dropout=0.0, rng=rng)
    x_bar = rng.normal(size=(5, 6))
    before = greedy_actions(model, x_bar, 4)
    model.actor.biases[-1] += 17.5
    assert np.array_equal(greedy_actions(model, x_bar, 4), before)


# ------------------------------------------------------------------- critics


def test_advantages_hand_computation():
    model = fixed_score_policy([0.0, 0.0], critic_bias=0.3)
    steps = [make_step_batch(model, n=4, e=0.0, rng=np.random.default_rng(9))]
    rewards = np.array([1.0, 0.5, -0.5, 0.3])
    adv = advantages_for(model, steps, rewards, normalize=False)
    # the float32 critic's bias holds float32(0.3)
    assert np.allclose(adv[0], rewards - float(np.float32(0.3)), atol=1e-15)
    normed = advantages_for(model, steps, rewards, normalize=True)[0]
    assert abs(normed.mean()) < 1e-12
    assert abs(normed.std() - 1.0) < 1e-6


def test_critic_update_fits_constant_reward():
    model = build_policy(3, actor_hidden=(4,), critic_hidden=(8,), dropout=0.0,
                         rng=np.random.default_rng(10))
    model.critic_opt = nn.OptimizerState(kind="adam", lr=1e-2)
    rng = np.random.default_rng(11)
    rewards = np.full(8, -0.7)
    first = None
    for _ in range(300):
        steps = [make_step_batch(model, n=8, e=0.0, rng=rng)]
        loss, _ = critic_update(model, steps, rewards, normalize=True)
        if first is None:
            first = loss
    assert loss < first * 0.01
    v, _ = nn.forward(model.critic, steps[0].state, mode="eval")
    assert np.all(np.abs(v[:, 0] - (-0.7)) < 0.05)


def test_critic_update_returns_advantages_of_its_one_forward(monkeypatch):
    model = build_policy(5, actor_hidden=(8,), critic_hidden=(6,), dropout=0.1,
                         rng=np.random.default_rng(30))
    rng = np.random.default_rng(31)
    steps = rollout_batch(model, rng.normal(size=(6, 5)), 3, "explore", rng).steps
    rewards = rng.normal(size=6)
    before = copy.deepcopy(model)
    separate = copy.deepcopy(model)

    critic_rows = []
    forward = nn.forward

    def counting_forward(net, x, *args, **kwargs):
        if net.out_dim == 1:
            critic_rows.append(x.shape[0])
        return forward(net, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting_forward)
    loss, adv = critic_update(model, steps, rewards, normalize=True)
    assert sum(critic_rows) == 6 * len(steps)       # one forward per state

    # reference: advantages from the critic before the update, and the same
    # update taken on its own
    adv_ref = advantages_for(before, steps, rewards, normalize=True)
    loss_ref, _ = critic_update(separate, steps, rewards, normalize=False)

    def same_bits(xs, ys):
        return all(np.asarray(x).dtype == np.asarray(y).dtype
                   and np.asarray(x).tobytes() == np.asarray(y).tobytes()
                   for x, y in zip(xs, ys, strict=True))

    assert same_bits(adv, adv_ref)
    assert same_bits([loss], [loss_ref])
    assert same_bits(model.critic.params(), separate.critic.params())
    assert same_bits(model.critic_opt.m + model.critic_opt.v,
                     separate.critic_opt.m + separate.critic_opt.v)
    raw = advantages_for(before, steps, rewards, normalize=False)
    assert same_bits(critic_update(copy.deepcopy(before), steps, rewards, normalize=False)[1], raw)

    # advantages_for reads the critic as it stands now, after the update
    after = advantages_for(model, steps, rewards, normalize=False)
    assert same_bits(after, advantages_for(separate, steps, rewards, normalize=False))
    assert not np.array_equal(after[0], raw[0])


# ----------------------------------------------------------------- REINFORCE


def make_step_batch(model, n, e, rng, d=None):
    """Roll one lockstep step from the all-unobserved start state."""
    d = d or model.d
    x = np.zeros((n, 2 * d))
    masks = x[:, d:]
    scores, tape = nn.forward(model.actor, x, mode="train", rng=rng)
    probs = masked_softmax(scores, masks)
    sample_probs = flatten_explore(probs, masks, e)
    actions = sample_actions(sample_probs, rng)
    return StepBatch(x, tape, probs, sample_probs, actions, explore_e=e)


def surrogate_loss(model, steps, advantages):
    """-mean over steps of A * log p_sample(a | state), recomputed from scratch."""
    total, n = 0.0, 0
    for s, a in zip(steps, advantages):
        x = np.concatenate([s.values, s.masks], axis=1)
        scores, _ = nn.forward(model.actor, x, mode="eval")
        probs = masked_softmax(scores, s.masks)
        spr = flatten_explore(probs, s.masks, s.explore_e)
        rows = np.arange(s.actions.shape[0])
        total -= float(np.sum(a * np.log(spr[rows, s.actions])))
        n += s.actions.shape[0]
    return total / n


@pytest.mark.parametrize("e", [0.0, 0.2])
def test_actor_gradient_matches_finite_differences(e):
    model = build_policy(4, actor_hidden=(6,), critic_hidden=(4,), dropout=0.0,
                         rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    steps = [make_step_batch(model, n=5, e=e, rng=rng) for _ in range(2)]
    advantages = [rng.normal(size=5) for _ in range(2)]

    grads = actor_gradient(model, steps, advantages)
    analytic = np.concatenate([g.reshape(-1) for g in grads])

    params = model.actor.params()
    fd = np.zeros_like(analytic)
    h = 1e-5
    off = 0
    for p in params:
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = surrogate_loss(model, steps, advantages)
            flat[j] = orig - h
            dn = surrogate_loss(model, steps, advantages)
            flat[j] = orig
            fd[off + j] = (up - dn) / (2 * h)
        off += flat.size

    err = np.max(np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd)))
    assert err < 1e-4


def test_zero_advantage_leaves_actor_unchanged():
    model = build_policy(3, actor_hidden=(5,), dropout=0.1, rng=np.random.default_rng(14))
    rng = np.random.default_rng(15)
    steps = [make_step_batch(model, n=6, e=0.1, rng=rng)]
    before = [p.copy() for p in model.actor.params()]
    grads = actor_gradient(model, steps, [np.zeros(6)])
    model.actor.step(grads, nn.OptimizerState(kind="sgd", lr=0.5))
    assert all(np.array_equal(a, b) for a, b in zip(before, model.actor.params()))


def test_actor_gradient_shape_validation():
    model = build_policy(3, actor_hidden=(5,), dropout=0.0, rng=np.random.default_rng(16))
    steps = [make_step_batch(model, n=4, e=0.0, rng=np.random.default_rng(17))]
    with pytest.raises(ValueError):
        actor_gradient(model, steps, [])
    with pytest.raises(ValueError):
        actor_gradient(model, steps, [np.zeros(3)])


def test_bandit_convergence():
    # two-armed bandit: reward +1 for action 0, -1 for action 1
    model = build_policy(2, actor_hidden=(16,), critic_hidden=(8,), dropout=0.1,
                         rng=np.random.default_rng(18))
    rng = np.random.default_rng(19)
    for _ in range(500):
        step = make_step_batch(model, n=16, e=0.1, rng=rng)
        rewards = np.where(step.actions == 0, 1.0, -1.0)
        reinforce_update(model, [step], rewards, beta=0.3, normalize=True)
    dist = action_probs(model, np.zeros((1, 2)))
    assert dist[0, 0] > 0.9


# ------------------------------------------------------------- serialization


def test_policy_checkpoint_round_trip(tmp_path):
    model = build_policy(5, actor_hidden=(7, 3), critic_hidden=(6,), dropout=0.2,
                         rng=np.random.default_rng(20))
    save_policy(model, tmp_path / "actor.ckpt", tmp_path / "critic.ckpt")
    back = load_policy(tmp_path / "actor.ckpt", tmp_path / "critic.ckpt")
    for a, b in zip(back.actor.params(), model.actor.params()):
        assert np.array_equal(a, b)
    for a, b in zip(back.critic.params(), model.critic.params()):
        assert np.array_equal(a, b)
    assert back.actor.dropout_rates == model.actor.dropout_rates


def test_policy_and_imputer_nets_are_float32(tmp_path):
    model = build_policy(5, actor_hidden=(7,), critic_hidden=(6,),
                         rng=np.random.default_rng(22))
    assert model.actor.dtype == model.critic.dtype == np.float32
    save_policy(model, tmp_path / "actor.ckpt", tmp_path / "critic.ckpt")
    back = load_policy(tmp_path / "actor.ckpt", tmp_path / "critic.ckpt")
    assert back.actor.dtype == back.critic.dtype == np.float32
    imputer = build_imputer(5, "sinusoid", noise_dim=2, hidden=(6,),
                            rng=np.random.default_rng(23))
    assert imputer.net.dtype == np.float32
    save_imputer(imputer, tmp_path / "imputer.ckpt")
    assert load_imputer(tmp_path / "imputer.ckpt").net.dtype == np.float32


def test_load_policy_rejects_swapped_roles(tmp_path):
    model = build_policy(4, actor_hidden=(5,), rng=np.random.default_rng(21))
    save_policy(model, tmp_path / "actor.ckpt", tmp_path / "critic.ckpt")
    with pytest.raises(ValueError, match="role"):
        load_policy(tmp_path / "critic.ckpt", tmp_path / "actor.ckpt")


def test_policy_model_validation():
    actor = nn.DenseNet([6, 4, 3])
    critic = nn.DenseNet([6, 4, 1])
    PolicyModel(actor, critic, nn.OptimizerState())
    with pytest.raises(ValueError):
        PolicyModel(nn.DenseNet([5, 4, 3]), critic, nn.OptimizerState())
    with pytest.raises(ValueError):
        PolicyModel(actor, nn.DenseNet([6, 4, 2]), nn.OptimizerState())
