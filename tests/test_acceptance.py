"""Release gates for the trained system plus large-sample property suites.

Each test prints one `[accept NN] PASS/FAIL/SKIP` line so a verbose run reads
as a scorecard.  The two sinusoid training fixtures dominate the runtime;
budget a few minutes for the whole module.  The mnist12 gates skip unless
MEASIM_MNIST_DIR points at the raw IDX files.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from measim import helper, nn, rngs, training
from measim.data import MNIST_STEMS, find_mnist_file, gen_sinusoid_dataset, mnist12_dataset
from measim.episodes import ExplicitSelector, UniformSelector, rollout_batch, topk_rmse
from measim.evaluate import eval_policy
from measim.masks import mask_dataset, mcar_spec, sample_mcar_mask
from measim.policy import (
    build_policy,
    flatten_explore,
    load_policy,
    masked_softmax,
    reinforce_update,
    sample_actions,
)
from measim.training import (
    JointConfig,
    joint_train,
    plain_reinforce_train,
    pretrain_imputer,
)

SIN_TRAIN, SIN_TEST = 2880, 720


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[accept {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"gate {num}: {detail}"


def skip(num: int, reason: str) -> None:
    print(f"[accept {num:02d}] SKIP: {reason}")
    pytest.skip(reason)


def params_match(a, b) -> bool:
    pa, pb = a.params(), b.params()
    return len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb))


# ---------------------------------------------------------------------------
# numeric oracle: chi-square survival function via the regularized upper
# incomplete gamma function (series for x < a+1, Lentz continued fraction
# above), good to ~1e-10 relative


def gamma_q(a: float, x: float) -> float:
    if x < 0 or a <= 0:
        raise ValueError("gamma_q needs x >= 0, a > 0")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return 1.0 - total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(stat: float, dof: int) -> float:
    return gamma_q(dof / 2.0, stat / 2.0)


# ---------------------------------------------------------------------------
# shared fixtures: the expensive sinusoid training runs happen once per module


@pytest.fixture(scope="module")
def sin_single():
    return gen_sinusoid_dataset(n_train=SIN_TRAIN, n_test=SIN_TEST,
                                mode="single", seed=0)


def _train_at(rate: float, train: np.ndarray) -> dict:
    cfg = JointConfig(missing_rate=rate)
    ds = mask_dataset(train, mcar_spec(train.shape[1], rate),
                      rngs.substream(cfg.seed, rngs.DATA_MASK, 0))
    t0 = time.perf_counter()
    pre, _ = pretrain_imputer(cfg, ds)
    policy, imputer, record = joint_train(cfg, ds, imputer=pre)
    wall = time.perf_counter() - t0
    return {"cfg": cfg, "ds": ds, "pre": pre, "policy": policy, "imputer": imputer,
            "record": record, "wall": wall}


@pytest.fixture(scope="module")
def trained_90(sin_single):
    return _train_at(0.9, sin_single[0])


@pytest.fixture(scope="module")
def trained_80(sin_single):
    return _train_at(0.8, sin_single[0])


def _headline_reports(bundle, test: np.ndarray, rate: float):
    prop = eval_policy(bundle["policy"], bundle["imputer"], test, rate,
                       k=3, n_seeds=3)
    uni = eval_policy(UniformSelector(), bundle["pre"], test, rate,
                      k=3, n_seeds=3)
    return prop, uni


@pytest.fixture(scope="module")
def eval_90(trained_90, sin_single):
    return _headline_reports(trained_90, sin_single[1], 0.9)


@pytest.fixture(scope="module")
def eval_80(trained_80, sin_single):
    return _headline_reports(trained_80, sin_single[1], 0.8)


# mnist12 gates need the raw IDX files; everything else is self-generated
def _mnist_paths(num: int) -> tuple[str, str]:
    directory = os.environ.get("MEASIM_MNIST_DIR")
    if not directory:
        skip(num, "MNIST IDX data unavailable; set MEASIM_MNIST_DIR to a "
                  f"directory holding {MNIST_STEMS[0]} and {MNIST_STEMS[1]}")
    try:
        return tuple(find_mnist_file(directory, stem) for stem in MNIST_STEMS)
    except FileNotFoundError as e:
        skip(num, str(e))


@pytest.fixture(scope="module")
def mnist_trained():
    train_path, test_path = _mnist_paths(8)
    train = mnist12_dataset(train_path, n_limit=10_000)
    test = mnist12_dataset(test_path, n_limit=2_000)
    cfg = JointConfig(missing_rate=0.85, variant="image", smoothness_weight=0.0)
    ds = mask_dataset(train, mcar_spec(train.shape[1], 0.85),
                      rngs.substream(cfg.seed, rngs.DATA_MASK, 0))
    t0 = time.perf_counter()
    pre, _ = pretrain_imputer(cfg, ds)
    policy, imputer, _ = joint_train(cfg, ds, imputer=pre)
    wall = time.perf_counter() - t0
    return {"cfg": cfg, "ds": ds, "test": test, "pre": pre, "policy": policy,
            "imputer": imputer, "wall": wall}


# ---------------------------------------------------------------------------
# 1. analytic gradients agree with central finite differences


def _kink_clear(net, x, margin=1e-3) -> bool:
    # central differences are only valid away from relu kinks: require every
    # hidden pre-activation to sit at least `margin` from zero (step is 1e-4)
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ h + b
        if i == len(net.weights) - 1:
            return True
        if np.abs(z).min() < margin:
            return False
        h = np.maximum(z, 0.0)
    return True


def test_01_gradient_fidelity():
    rng = np.random.default_rng(17)
    shapes = [[288, 64, 64, 144], [288, 64, 64, 144]]
    while len(shapes) < 10:
        depth = int(rng.integers(1, 3))
        dims = [int(rng.integers(4, 33))]
        dims += [int(rng.integers(8, 65)) for _ in range(depth)]
        dims.append(int(rng.integers(2, 25)))
        shapes.append(dims)

    t0 = time.perf_counter()
    worst = 0.0
    for i, dims in enumerate(shapes):
        activation = "tanh" if i % 2 == 0 else "relu"
        net = nn.DenseNet(dims, hidden_activation=activation, rng=rng)
        x = rng.normal(size=dims[0])
        if activation == "relu":
            for _ in range(50):
                if _kink_clear(net, x):
                    break
                x = rng.normal(size=dims[0])
        target = rng.normal(size=dims[-1])

        def loss(out, target=target):
            diff = out - target
            return 0.5 * float(diff @ diff), diff

        # the wide nets carry O(100) losses; balance cancellation against
        # truncation with a correspondingly wider step
        worst = max(worst, nn.grad_check(net, x, loss, h=1e-4))
    wall = time.perf_counter() - t0
    check(1, worst < 1e-4 and wall < 60.0,
          f"10 nets, worst rel err {worst:.3e} < 1e-4, {wall:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. action distributions put zero mass on observed coordinates, normalize to
#    machine precision, and the exploration flattener hits its two endpoints


def test_02_policy_constraint_suite():
    d, n_states, draws = 20, 1000, 334
    rng = np.random.default_rng(23)
    policy = build_policy(d=d, actor_hidden=(32,), critic_hidden=(8,),
                          dropout=0.0, rng=rng)

    masks = np.zeros((n_states, d), dtype=bool)
    values = np.zeros((n_states, d))
    for i in range(n_states):
        n_obs = int(rng.integers(0, d))  # always at least one unobserved
        masks[i] = sample_mcar_mask(d, n_obs, rng)
        values[i] = np.where(masks[i], rng.normal(size=d), 0.0)
    # all 1000 states in one dropout-free actor forward
    bits = masks.astype(np.float64)
    scores, _ = nn.forward(policy.actor, np.concatenate([values, bits], axis=1),
                           mode="eval")
    probs = masked_softmax(scores, bits)

    sampled = 0
    observed_hits = 0
    bad_mass = 0
    bad_sum = 0
    for e in (0.0, 0.1, 0.5):
        flat = flatten_explore(probs, masks, e)
        bad_mass += int(np.count_nonzero(flat[masks]))
        bad_sum += int(np.count_nonzero(np.abs(flat.sum(axis=1) - 1.0) > 1e-12))
        rep = np.repeat(flat, draws, axis=0)
        actions = sample_actions(rep, np.random.default_rng(29))
        sampled += actions.size
        observed_hits += int(np.repeat(masks, draws, axis=0)[
            np.arange(actions.size), actions].sum())

    identity_ok = np.array_equal(flatten_explore(probs, masks, 0.0), probs)
    unobs = ~masks
    uniform = unobs / unobs.sum(axis=1, keepdims=True)
    half_dev = float(np.abs(flatten_explore(probs, masks, 0.5) - uniform).max())

    ok = (sampled >= 1_000_000 and observed_hits == 0 and bad_mass == 0
          and bad_sum == 0 and identity_ok and half_dev < 1e-12)
    check(2, ok,
          f"{sampled} sampled actions, {observed_hits} on observed coords; "
          f"{bad_sum} bad sums; e=0 identity {identity_ok}; "
          f"e=0.5 max dev {half_dev:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# 3. MCAR masks include every coordinate equally often


def test_03_mcar_uniformity():
    d, n_obs, n_masks = 20, 10, 100_000
    rng = np.random.default_rng(31)
    counts = np.zeros(d)
    for _ in range(n_masks):
        counts += sample_mcar_mask(d, n_obs, rng)
    freq = counts / n_masks
    expected = n_masks * n_obs / d
    stat = float(((counts - expected) ** 2 / expected).sum())
    p = chi2_sf(stat, d - 1)
    ok = bool(np.all(np.abs(freq - 0.5) <= 0.01)) and p > 0.001
    check(3, ok,
          f"coordinate frequencies in [{freq.min():.4f}, {freq.max():.4f}] "
          f"(0.5 +/- 0.01); chi2({d - 1} dof) = {stat:.1f}, p = {p:.4f} > 0.001")


# ---------------------------------------------------------------------------
# 4. top-k error laws: monotone in k over nested candidate sets, zero exactly
#    when a candidate matches, and top-3 <= top-1 in every evaluation row


def test_04_topk_reward_laws(eval_90):
    rng = np.random.default_rng(37)
    monotone = exact_zero = positive = True
    for _ in range(1000):
        target = rng.normal(size=8)
        cands = rng.normal(size=(5, 8))
        errs = [topk_rmse(cands[:k], target) for k in range(1, 6)]
        monotone &= all(a >= b for a, b in zip(errs, errs[1:]))
        positive &= all(e > 0 for e in errs)
        j = int(rng.integers(5))
        cands[j] = target
        errs = [topk_rmse(cands[:k], target) for k in range(1, 6)]
        exact_zero &= all((e == 0.0) == (k > j)
                          for k, e in zip(range(1, 6), errs))
    rows = eval_90[0].rows + eval_90[1].rows
    row_law = all(r.top3_rmse <= r.top1_rmse for r in rows)
    ok = monotone and exact_zero and positive and row_law
    check(4, ok,
          f"1000 fixtures: monotone {monotone}, zero-iff-match {exact_zero}, "
          f"positive-without-match {positive}; top3<=top1 in {len(rows)} "
          f"eval rows {row_law}")


# ---------------------------------------------------------------------------
# 5. the update rule solves a two-action bandit quickly and reliably


def test_05_bandit_sanity():
    t0 = time.perf_counter()
    finals = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        policy = build_policy(d=2, actor_hidden=(16,), critic_hidden=(8,),
                              dropout=0.0, rng=rng)
        x_bar = np.zeros((32, 2))
        empty = np.zeros((1, 4))   # [values, masks] with nothing observed

        def p_best():
            scores, _ = nn.forward(policy.actor, empty, mode="eval")
            return masked_softmax(scores, empty[:, 2:])[0, 0]

        prob = p_best()
        for _ in range(500):
            roll = rollout_batch(policy, x_bar, horizon=1, mode="stochastic",
                                 rng=rng)
            rewards = (roll.steps[0].actions == 0).astype(float)
            reinforce_update(policy, roll.steps, rewards, beta=0.3, normalize=True)
            prob = p_best()
            if prob > 0.9:
                break
        finals.append(prob)
    wall = time.perf_counter() - t0
    ok = all(p > 0.9 for p in finals) and wall < 60.0
    check(5, ok, f"5/5 seeds reached P(best) > 0.9 within 500 updates "
                 f"(finals {', '.join(f'{p:.3f}' for p in finals)}), {wall:.1f}s")


# ---------------------------------------------------------------------------
# 6. trained policy beats uniform measurement on sin-single at 90% and 80%


def test_06_sinusoid_headline(trained_90, trained_80, eval_90, eval_80):
    r90 = eval_90[0].mean_top1() / eval_90[1].mean_top1()
    r80 = eval_80[0].mean_top1() / eval_80[1].mean_top1()
    budget_ok = trained_90["wall"] < 1800 and trained_80["wall"] < 1800
    ok = r90 <= 0.85 and r80 <= 0.90 and budget_ok
    check(6, ok,
          f"90%: trained {eval_90[0].mean_top1():.4f} vs uniform "
          f"{eval_90[1].mean_top1():.4f}, ratio {r90:.3f} <= 0.85; "
          f"80%: ratio {r80:.3f} <= 0.90; "
          f"walls {trained_90['wall']:.0f}s/{trained_80['wall']:.0f}s < 1800s")


# ---------------------------------------------------------------------------
# 7. uniform-policy error grows steeply with the missing rate on both variants


def test_07_sinusoid_monotonicity(eval_90, eval_80):
    single = eval_90[1].mean_top1() / eval_80[1].mean_top1()

    train, test = gen_sinusoid_dataset(n_train=SIN_TRAIN, n_test=SIN_TEST,
                                       mode="double", seed=0)
    doubles = {}
    for rate in (0.9, 0.8):
        cfg = JointConfig(missing_rate=rate)
        ds = mask_dataset(train, mcar_spec(train.shape[1], rate),
                          rngs.substream(cfg.seed, rngs.DATA_MASK, 0))
        pre, _ = pretrain_imputer(cfg, ds)
        doubles[rate] = eval_policy(UniformSelector(), pre, test, rate,
                                    k=3, n_seeds=3).mean_top1()
    double = doubles[0.9] / doubles[0.8]
    ok = single >= 1.5 and double >= 1.5
    check(7, ok, f"uniform-policy error 90% vs 80%: single x{single:.2f}, "
                 f"double x{double:.2f}, both >= 1.5")


# ---------------------------------------------------------------------------
# 8. mnist12 at 85%: trained < greedy-variance < uniform, with margin


def test_08_mnist12_ordering(mnist_trained):
    b = mnist_trained
    prop = eval_policy(b["policy"], b["imputer"], b["test"], 0.85, k=3, n_seeds=3)
    expl = eval_policy(ExplicitSelector(b["pre"], k=5), b["pre"], b["test"],
                       0.85, k=3, n_seeds=3)
    uni = eval_policy(UniformSelector(), b["pre"], b["test"], 0.85, k=3, n_seeds=3)
    p, e, u = prop.mean_topk(), expl.mean_topk(), uni.mean_topk()
    se = max(float(np.std([r.top3_rmse for r in rep.rows], ddof=1))
             / math.sqrt(len(rep.rows))
             for rep in (prop, expl, uni))
    margin_ok = p <= 0.95 * u
    # the middle position is a soft expectation: ties within one standard
    # error do not fail the gate
    order_ok = p <= e + se and e <= u + se
    ok = margin_ok and order_ok and b["wall"] < 7200
    check(8, ok, f"top-3: trained {p:.4f} <= variance-greedy {e:.4f} <= "
                 f"uniform {u:.4f} (se {se:.4f}); margin {p / u:.3f} <= 0.95; "
                 f"train wall {b['wall']:.0f}s < 7200s")


# 9. the policy trained at 85% still beats uniform when evaluated at 90%


def test_09_mnist12_cross_rate(mnist_trained):
    b = mnist_trained
    prop = eval_policy(b["policy"], b["imputer"], b["test"], 0.90,
                       k=3, n_seeds=3).mean_topk()
    uni = eval_policy(UniformSelector(), b["pre"], b["test"], 0.90,
                      k=3, n_seeds=3).mean_topk()
    check(9, prop < uni,
          f"trained-at-85% evaluated at 90%: {prop:.4f} < uniform {uni:.4f}")


# 10. ablation ordering, report-only: differences sit within desk-scale noise


def test_10_mnist12_ablations(mnist_trained):
    b = mnist_trained
    means = {}
    for ablation in ("full", "no_meta", "no_adaptation"):
        scores = []
        for seed in range(3):
            cfg = JointConfig(missing_rate=0.85, variant="image",
                              smoothness_weight=0.0, seed=seed,
                              ablation=ablation,
                              beta_prime=0.0 if ablation != "full" else 1.0,
                              iterations=600)
            policy, imputer, _ = joint_train(cfg, b["ds"], imputer=b["pre"])
            scores.append(eval_policy(policy, imputer, b["test"], 0.85,
                                      k=3, n_seeds=1).mean_topk())
        means[ablation] = (float(np.mean(scores)),
                           float(np.std(scores, ddof=1) / math.sqrt(3)))
    detail = "; ".join(f"{k} {m:.4f}+/-{s:.4f}" for k, (m, s) in means.items())
    check(10, all(np.isfinite(m) for m, _ in means.values()),
          f"report only: {detail}")


# ---------------------------------------------------------------------------
# 11. with the second actor term and generated-truth rate off, the joint loop
#     is bit-identical to plain policy-gradient training against a frozen
#     imputer, and the hypothetical imputer update never leaks


def _small_config(**overrides) -> JointConfig:
    base = dict(missing_rate=0.75, seed=3, alpha=1e-3, alpha_prime=1e-3,
                beta=0.05, beta_prime=0.05, explore_e=0.1, k_reward=2,
                batch_size=8, iterations=6, early_stop_window=0, noise_dim=3,
                imputer_hidden=(16,), smoothness_weight=0.05,
                pretrain_epochs=2, pretrain_batch=16, actor_hidden=(16,),
                critic_hidden=(8,), finetune_iterations=0)
    base.update(overrides)
    return JointConfig(**base)


def _small_dataset(n=40, d=12, seed=9):
    rng = np.random.default_rng(seed)
    complete = np.cumsum(rng.normal(scale=0.2, size=(n, d)), axis=1)
    return mask_dataset(complete, mcar_spec(d, 0.75), rng)


def test_11_reduction_to_plain_reinforce(monkeypatch):
    ds = _small_dataset()
    frozen_cfg = _small_config(ablation="no_adaptation", beta_prime=0.0)
    pre, _ = pretrain_imputer(frozen_cfg, ds)

    joint_pol, _, _ = joint_train(frozen_cfg, ds, imputer=pre)
    plain_pol, _ = plain_reinforce_train(frozen_cfg, ds, pre)
    frozen_ok = (params_match(joint_pol.actor, plain_pol.actor)
                 and params_match(joint_pol.critic, plain_pol.critic))

    zeroed_cfg = _small_config(ablation="full", alpha=0.0, alpha_prime=0.0,
                               beta_prime=0.0)
    zero_pol, _, _ = joint_train(zeroed_cfg, ds, imputer=pre)
    zeroed_ok = params_match(zero_pol.actor, plain_pol.actor)

    # poison the hypothetical imputer update; with its actor weight at zero
    # the final parameters must not move by a single bit
    meta_cfg = _small_config(ablation="full", beta_prime=0.0)
    ref_pol, ref_imp, _ = joint_train(meta_cfg, ds, imputer=pre)

    real_adapt = training.adapt_step
    calls = {"n": 0}

    def poisoned(model, *args, **kwargs):
        k = calls["n"]
        calls["n"] += 1
        if k % 2 == 0:  # the first adapt call per iteration is hypothetical
            bad = model.copy()
            for p in bad.net.params():
                p += 10.0
            bad.net.version += 1
            return bad, {"unsupervised": 0.0, "supervised": 0.0}
        return real_adapt(model, *args, **kwargs)

    # E2's requests run in this process, so both adapt_step calls are seen
    monkeypatch.setattr(helper, "core_for_helper", lambda: False)
    helper.stop()
    monkeypatch.setattr(training, "adapt_step", poisoned)
    stub_pol, stub_imp, _ = joint_train(meta_cfg, ds, imputer=pre)
    monkeypatch.setattr(training, "adapt_step", real_adapt)

    discard_ok = (calls["n"] == 2 * meta_cfg.iterations
                  and params_match(stub_pol.actor, ref_pol.actor)
                  and params_match(stub_imp.net, ref_imp.net))

    ok = frozen_ok and zeroed_ok and discard_ok
    check(11, ok, f"frozen-imputer loop bitwise equal {frozen_ok}; "
                  f"zero-rate loop equal {zeroed_ok}; poisoned hypothetical "
                  f"update changed nothing {discard_ok}")


# ---------------------------------------------------------------------------
# 12. reruns are bit-identical and checkpoints round-trip exactly


def test_12_determinism_and_serialization(tmp_path):
    ds = _small_dataset(seed=21)
    cfg = _small_config(seed=1, iterations=8)
    dirs = [tmp_path / "a", tmp_path / "b"]
    models = [joint_train(cfg, ds, out_dir=str(d)) for d in dirs]

    runs_equal = ((dirs[0] / "run.csv").read_bytes()
                  == (dirs[1] / "run.csv").read_bytes())

    roundtrip = True
    for name in ("actor.ckpt", "critic.ckpt", "imputer.ckpt"):
        original = dirs[0] / name
        net, role = nn.load_checkpoint(str(original))
        resaved = tmp_path / f"resaved-{name}"
        nn.save_checkpoint(net, str(resaved), role=role)
        roundtrip &= original.read_bytes() == resaved.read_bytes()
        roundtrip &= original.read_bytes() == (dirs[1] / name).read_bytes()

    policy = load_policy(str(dirs[0] / "actor.ckpt"), str(dirs[0] / "critic.ckpt"))
    loaded_ok = (params_match(policy.actor, models[0][0].actor)
                 and params_match(policy.critic, models[0][0].critic))

    ok = runs_equal and roundtrip and loaded_ok
    check(12, ok, f"run.csv bytes identical across reruns {runs_equal}; "
                  f"checkpoint bytes round-trip {roundtrip}; "
                  f"loaded params match trained params {loaded_ok}")


# ---------------------------------------------------------------------------
# 13. the paper's central claim on sin-single at 90%: adapting the imputer
#     inside the loop (the E2 term) teaches the policy more than training it
#     against a fixed reward model does


def test_13_meta_term_beats_no_meta(trained_90, eval_90, sin_single):
    b, test = trained_90, sin_single[1]
    cfg = dataclasses.replace(b["cfg"], ablation="no_meta", beta_prime=0.0)
    policy, imputer, _ = joint_train(cfg, b["ds"], imputer=b["pre"])
    full = eval_90[0].mean_top1()
    no_meta = eval_policy(policy, imputer, test, 0.9, k=3, n_seeds=3).mean_top1()
    explicit = eval_policy(ExplicitSelector(b["pre"], k=5), b["pre"], test, 0.9,
                           k=3, n_seeds=3).mean_top1()
    ratio = full / no_meta
    check(13, ratio <= 0.90,
          f"90% top-1: full {full:.4f} vs no_meta {no_meta:.4f}, ratio {ratio:.3f} "
          f"<= 0.90; report only, pretrained imputer: uniform "
          f"{eval_90[1].mean_top1():.4f}, explicit {explicit:.4f}")
