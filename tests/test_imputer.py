import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter1d
from scipy.stats import chisquare

from measim import nn
from measim.data import gen_sinusoid_dataset
from measim.imputer import (
    ImputerLossConfig,
    ImputerModel,
    adapt_step,
    build_imputer,
    gaussian_smoother_matrix,
    impute_batch,
    interpolate_batch,
    load_imputer,
    loss_supervised_batch,
    loss_unsupervised,
    net_inputs,
    pretrain,
    save_imputer,
    self_mask,
)
from measim.masks import mask_dataset, round_half_up


def constant_output_imputer(d, variant, out_bias, noise_dim=2):
    """Imputer whose net ignores its input and returns out_bias exactly."""
    model = build_imputer(d, variant, noise_dim=noise_dim, hidden=(4,),
                          rng=np.random.default_rng(0))
    for w in model.net.weights:
        w[:] = 0.0
    for b in model.net.biases:
        b[:] = 0.0
    model.net.biases[-1][:] = out_bias
    return model


def float64_imputer(d, variant, noise_dim, hidden, rng):
    """build_imputer's layout as a float64 net: the same code path as the
    float32 imputer, at a precision where 1e-12 agreement and central
    differences at h=1e-5 are meaningful."""
    in_dim = (3 if variant == "sinusoid" else 2) * d + noise_dim
    out_act = "sigmoid" if variant == "image" else "identity"
    net = nn.DenseNet([in_dim, *hidden, d], hidden_activation="tanh",
                      output_activation=out_act, rng=rng, dtype=np.float64)
    return ImputerModel(net, noise_dim, variant)


def params_vector(net):
    return np.concatenate([p.reshape(-1) for p in net.params()])


def set_params_vector(net, vec):
    off = 0
    for p in net.params():
        p.reshape(-1)[:] = vec[off:off + p.size]
        off += p.size
    net.version += 1


def fd_loss_grad(model, loss_of_model, h=1e-5):
    """Central differences of a deterministic scalar loss over all params."""
    base = params_vector(model.net).copy()
    grad = np.zeros_like(base)
    for j in range(base.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            vec = base.copy()
            vec[j] += sign * h
            set_params_vector(model.net, vec)
            val = loss_of_model(model)
            if slot == 0:
                up = val
            else:
                grad[j] = (up - val) / (2 * h)
    set_params_vector(model.net, base)
    return grad


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b)))


# ---------------------------------------------------------------- structure


def test_model_layout_validation():
    m = build_imputer(10, "image", noise_dim=4)
    assert m.net.in_dim == 24 and m.net.out_dim == 10
    assert m.net.output_activation == "sigmoid"
    s = build_imputer(10, "sinusoid", noise_dim=4)
    assert s.net.in_dim == 34
    assert s.net.output_activation == "identity"
    with pytest.raises(ValueError):
        ImputerModel(m.net, noise_dim=5, variant="image")
    with pytest.raises(ValueError):
        ImputerModel(m.net, noise_dim=4, variant="wavelet")


def test_loss_config_validation():
    ImputerLossConfig(self_mask_fraction=0.5)
    with pytest.raises(ValueError):
        ImputerLossConfig(self_mask_fraction=0.0)
    with pytest.raises(ValueError):
        ImputerLossConfig(self_mask_fraction=1.0)
    with pytest.raises(ValueError):
        ImputerLossConfig(smoothness_weight=-0.1)
    with pytest.raises(ValueError):
        ImputerLossConfig(gaussian_kernel_sigma=0.0)


# ---------------------------------------------------------------- sampling


def test_impute_fully_observed_returns_values():
    model = build_imputer(5, "image", rng=np.random.default_rng(1))
    values = np.array([[0.1, 0.9, 0.4, 0.0, 1.0]])
    out = impute_batch(model, values, np.ones((1, 5)), np.random.default_rng(2))
    assert np.array_equal(out, values)


def test_impute_observed_preserved_bitwise():
    rng = np.random.default_rng(3)
    model = build_imputer(8, "sinusoid", rng=rng)
    for _ in range(20):
        vals = rng.normal(size=(1, 8))
        mask = (rng.random((1, 8)) < 0.5).astype(np.float64)
        out = impute_batch(model, vals * mask, mask, rng)
        obs = mask == 1.0
        assert np.array_equal(out[obs], (vals * mask)[obs])


def test_impute_sample_deterministic():
    model = build_imputer(6, "image", rng=np.random.default_rng(4))
    empty = np.zeros((1, 6))
    a = impute_batch(model, empty, empty, np.random.default_rng(7))
    b = impute_batch(model, empty, empty, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_impute_multiple_contracts():
    model = build_imputer(6, "image", rng=np.random.default_rng(5))
    empty = np.zeros((1, 6))
    one = impute_batch(model, empty, empty, np.random.default_rng(8), k=1)
    single = impute_batch(model, empty, empty, np.random.default_rng(8))
    assert one.shape == (1, 1, 6)
    assert np.array_equal(one[0], single)

    full = np.array([[1.0, 2, 3, 4, 5, 6]])
    three = impute_batch(model, full, np.ones((1, 6)), np.random.default_rng(9), k=3)
    assert three.shape == (3, 1, 6)
    assert all(np.array_equal(draw, full) for draw in three)

    a = impute_batch(model, empty, empty, np.random.default_rng(10), k=5)
    b = impute_batch(model, empty, empty, np.random.default_rng(10), k=5)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        impute_batch(model, empty, empty, np.random.default_rng(0), k=0)


def test_impute_batch_preserves_observed():
    rng = np.random.default_rng(11)
    model = build_imputer(7, "image", rng=rng)
    vals = rng.random((9, 7))
    masks = (rng.random((9, 7)) < 0.4).astype(np.float64)
    vals = vals * masks
    out = impute_batch(model, vals, masks, rng)
    assert np.array_equal(out * masks, vals)
    assert out.shape == (9, 7)


@pytest.mark.parametrize("variant", ["sinusoid", "image"])
def test_impute_batch_k_draws_equal_sequential_calls(variant):
    rng = np.random.default_rng(12)
    model = build_imputer(7, variant, noise_dim=3, hidden=(8,), rng=rng)
    masks = (rng.random((9, 7)) < 0.4).astype(np.float64)
    vals = rng.normal(size=(9, 7)) * masks
    shared_rng, seq_rng = np.random.default_rng(13), np.random.default_rng(13)
    draws = impute_batch(model, vals, masks, shared_rng, k=4)
    seq = np.stack([impute_batch(model, vals, masks, seq_rng) for _ in range(4)])
    assert draws.shape == (4, 9, 7)
    assert np.array_equal(draws.view(np.uint64), seq.view(np.uint64))
    # both generators consumed exactly the same noise
    assert shared_rng.random() == seq_rng.random()
    with pytest.raises(ValueError, match="k"):
        impute_batch(model, vals, masks, shared_rng, k=0)


def test_impute_batch_rejects_wrong_width():
    model = build_imputer(7, "sinusoid", noise_dim=3, hidden=(8,),
                          rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="state has 6 coordinates, imputer expects 7"):
        impute_batch(model, np.zeros((2, 6)), np.zeros((2, 6)), np.random.default_rng(1))


def test_impute_batch_k_draws_hold_each_candidate_once():
    # k=3 at B=720, D=100 (sinusoid): the input block, the (k, B, D) result
    # and one draw's forward are about 6 (B, 2D) states; collecting the draws
    # and stacking them, with the previous draw's eval tape still alive while
    # the next forward ran, peaked at 7.8
    b, d = 720, 100
    model = build_imputer(d, "sinusoid", rng=np.random.default_rng(7))
    rng = np.random.default_rng(3)
    masks = (rng.random((b, d)) < 0.2).astype(np.float64)
    vals = rng.normal(size=(b, d)) * masks
    one_state = b * 2 * d * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        draws = impute_batch(model, vals, masks, np.random.default_rng(1), k=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert draws.shape == (3, b, d)
    assert peak <= 6.5 * one_state, peak / one_state


@pytest.mark.parametrize("variant", ["sinusoid", "image"])
def test_impute_batch_matches_forward_on_concatenated_input(variant):
    # the shared state term splits the first layer's sum, so agreement with
    # one forward on [state inputs ++ noise] is to rounding, not bitwise
    rng = np.random.default_rng(19)
    model = float64_imputer(12, variant, noise_dim=4, hidden=(16, 16), rng=rng)
    masks = (rng.random((30, 12)) < 0.3).astype(np.float64)
    vals = rng.random((30, 12)) * masks
    draws = impute_batch(model, vals, masks, np.random.default_rng(5), k=3)
    noise_rng = np.random.default_rng(5)
    for draw in draws:
        x = np.concatenate([net_inputs(model, vals, masks),
                            noise_rng.standard_normal((30, 4))], axis=1)
        y = nn.forward(model.net, x, mode="eval")[0]
        free = masks == 0.0
        assert np.allclose(draw[free], y[free], rtol=1e-12, atol=0.0)
        assert np.array_equal(draw[~free].view(np.uint64), vals[~free].view(np.uint64))


@pytest.mark.parametrize("variant", ["sinusoid", "image"])
def test_impute_batch_on_a_float32_net_multiplies_in_float32(variant, monkeypatch):
    # the first layer's pre-activation is float32 only if both its products
    # were: a float64 operand would promote the sum; the later layers then
    # run on float32 activations.  Completions stay float64.
    model = build_imputer(12, variant, noise_dim=4, hidden=(16, 16),
                          rng=np.random.default_rng(19))
    assert model.net.dtype == np.float32
    seen = []
    forward_from = nn.forward_from

    def spy(net, z0):
        seen.append(z0.dtype)
        out = forward_from(net, z0)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(nn, "forward_from", spy)
    rng = np.random.default_rng(20)
    masks = (rng.random((30, 12)) < 0.3).astype(np.float64)
    vals = rng.random((30, 12)) * masks
    draws = impute_batch(model, vals, masks, np.random.default_rng(5), k=3)
    assert seen == [np.float32] * 6
    assert draws.dtype == np.float64
    # the same initial draw as a float64 net computes the same function
    wide = float64_imputer(12, variant, noise_dim=4, hidden=(16, 16),
                           rng=np.random.default_rng(19))
    ref = impute_batch(wide, vals, masks, np.random.default_rng(5), k=3)
    assert np.allclose(draws, ref, rtol=1e-5, atol=1e-6)
    assert not np.array_equal(draws, ref)


# ------------------------------------------------------------ interpolation


def interp_rows(values, masks):
    """The reference: np.interp row by row."""
    grid = np.arange(values.shape[1], dtype=np.float64)
    out = np.zeros_like(values)
    for i in range(values.shape[0]):
        obs = np.flatnonzero(masks[i] == 1.0)
        if obs.size:
            out[i] = np.interp(grid, grid[obs], values[i, obs])
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.floats(0.0, 1.0),
       st.integers(-300, 300), st.integers(0, 2**32 - 1))
def test_interpolate_batch_equals_rowwise_interp_bitwise(b, d, p_obs, exponent, seed):
    rng = np.random.default_rng(seed)
    masks = (rng.random((b, d)) < p_obs).astype(np.float64)
    if seed % 3 == 0:
        masks[0] = 0.0  # a row with nothing observed
    if seed % 5 == 0:
        masks[-1] = 1.0  # a fully observed row
    values = rng.normal(size=(b, d)) * 10.0 ** exponent * masks
    got, want = interpolate_batch(values, masks), interp_rows(values, masks)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_interpolate_batch_holds_few_arrays():
    # the row loop held one (B, D) result; the one flat np.interp call holds
    # the result and its (B*D,) grid, with the knots and tail masks below one
    # more (B, D) array at 20% observed
    b, d = 720, 100
    rng = np.random.default_rng(4)
    masks = (rng.random((b, d)) < 0.2).astype(np.float64)
    vals = rng.normal(size=(b, d)) * masks
    one_array = b * d * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = interpolate_batch(vals, masks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (b, d)
    assert peak <= 3.5 * one_array, peak / one_array


def test_interpolate_two_point_ramp():
    vals = np.zeros((1, 100))
    mask = np.zeros((1, 100))
    mask[0, 0], mask[0, 99] = 1.0, 1.0
    vals[0, 99] = 1.0
    out = interpolate_batch(vals, mask)
    assert np.allclose(out[0], np.arange(100) / 99.0, atol=1e-15)


def test_interpolate_single_observation_constant():
    vals = np.zeros((1, 10))
    mask = np.zeros((1, 10))
    vals[0, 4], mask[0, 4] = 3.5, 1.0
    out = interpolate_batch(vals, mask)
    assert np.array_equal(out, np.full((1, 10), 3.5))


def test_interpolate_fully_observed_identity():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(1, 10))
    out = interpolate_batch(vals, np.ones((1, 10)))
    assert np.array_equal(out, vals)


def test_interpolate_zero_observed_gives_zeros():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(3, 5))
    masks = np.ones((3, 5))
    masks[1] = 0.0
    vals[1] = 0.0
    out = interpolate_batch(vals, masks)
    assert np.array_equal(out[1], np.zeros(5))
    # the empty row leaves its neighbours alone
    assert np.array_equal(out[[0, 2]], vals[[0, 2]])


# ---------------------------------------------------------------- smoothing


def test_smoother_matrix_matches_scipy():
    rng = np.random.default_rng(13)
    for d, sigma in ((10, 1.0), (100, 1.0), (50, 2.0)):
        s = gaussian_smoother_matrix(d, sigma)
        y = rng.normal(size=d)
        expect = gaussian_filter1d(y, sigma, mode="reflect", truncate=3.0)
        assert np.allclose(s @ y, expect, atol=1e-12)
        # rows are convex weights
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)


def test_smoothness_zero_for_constant_vector():
    s = gaussian_smoother_matrix(20, 1.0)
    y = np.full(20, 0.37)
    assert np.allclose(s @ y, y, atol=1e-12)


# -------------------------------------------------------------------- losses


def test_self_mask_hides_round_half_up_of_observed():
    rng = np.random.default_rng(21)
    masks = (rng.random((200, 15)) < rng.random((200, 1))).astype(np.float64)
    for fraction in (0.1, 0.5, 0.7, 0.99):
        hidden = self_mask(masks, fraction, rng)
        n_obs = masks.sum(axis=1)
        want = [round_half_up(fraction * n) for n in n_obs.astype(int)]
        assert np.array_equal(hidden.sum(axis=1), np.array(want, dtype=np.float64))
        assert np.all(hidden <= masks)
        assert set(np.unique(hidden)) <= {0.0, 1.0}


def test_self_mask_hides_every_observed_coordinate_equally_often():
    # rows observe 0, 2, 3, 5, 7, 8, 9 of d=10 and hide 4 of those 7: each
    # observed coordinate is hidden with probability 4/7
    masks = np.zeros((6000, 10))
    observed = [0, 2, 3, 5, 7, 8, 9]
    masks[:, observed] = 1.0
    hidden = self_mask(masks, 0.5, np.random.default_rng(22))
    counts = hidden.sum(axis=0)
    assert np.all(counts[[1, 4, 6]] == 0.0)
    assert chisquare(counts[observed]).pvalue > 1e-3


def test_unsupervised_hand_example():
    # constant prediction 0.5, one hidden coordinate of value 1.0
    model = constant_output_imputer(2, "sinusoid", 0.5)
    cfg = ImputerLossConfig(self_mask_fraction=0.5, smoothness_weight=0.0)
    loss, grads, info = loss_unsupervised(
        model, np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]), cfg,
        np.random.default_rng(0),
    )
    assert loss == 0.25
    assert info["skipped"] == 0


def test_unsupervised_perfect_prediction_zero():
    model = constant_output_imputer(3, "sinusoid", [2.0, 2.0, 2.0])
    cfg = ImputerLossConfig(self_mask_fraction=0.5)
    loss, grads, _ = loss_unsupervised(
        model, np.full((4, 3), 2.0), np.ones((4, 3)), cfg, np.random.default_rng(1),
    )
    assert loss == 0.0


def test_unsupervised_skips_underobserved_rows():
    model = constant_output_imputer(4, "sinusoid", 0.0)
    cfg = ImputerLossConfig()
    values = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0], [0.0, 0, 0, 0]])
    masks = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0], [0.0, 0, 0, 0]])
    loss, _, info = loss_unsupervised(model, values, masks, cfg, np.random.default_rng(2))
    assert info["skipped"] == 2
    loss, grads, info = loss_unsupervised(
        model, values[:1], masks[:1], cfg, np.random.default_rng(3),
    )
    assert info["skipped"] == 1
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_unsupervised_tiny_fraction_is_pure_smoothness():
    model = float64_imputer(10, "sinusoid", noise_dim=2, hidden=(6,),
                            rng=np.random.default_rng(14))
    lam, sigma = 0.7, 1.0
    cfg = ImputerLossConfig(self_mask_fraction=1e-9, smoothness_weight=lam,
                            gaussian_kernel_sigma=sigma)
    values = np.random.default_rng(15).normal(size=(3, 10))
    masks = np.ones((3, 10))
    loss, _, info = loss_unsupervised(model, values, masks, cfg, np.random.default_rng(16))
    y = info["predictions"]
    smoothed = np.stack([gaussian_filter1d(row, sigma, mode="reflect", truncate=3.0)
                         for row in y])
    expect = lam * np.mean(np.mean((y - smoothed) ** 2, axis=1))
    assert np.isclose(loss, expect, rtol=1e-12)
    assert np.all(info["hidden"] == 0.0)


def test_unsupervised_gradient_matches_finite_differences():
    model = float64_imputer(6, "image", noise_dim=2, hidden=(8,),
                            rng=np.random.default_rng(17))
    rng = np.random.default_rng(18)
    values = rng.random((5, 6))
    masks = np.zeros((5, 6))
    for i in range(5):
        masks[i, rng.choice(6, size=4, replace=False)] = 1.0
    values = values * masks
    cfg = ImputerLossConfig(self_mask_fraction=0.5)

    _, grads, _ = loss_unsupervised(model, values, masks, cfg, np.random.default_rng(99))
    analytic = np.concatenate([g.reshape(-1) for g in grads])
    fd = fd_loss_grad(
        model,
        lambda m: loss_unsupervised(m, values, masks, cfg, np.random.default_rng(99))[0],
    )
    assert rel_err(analytic, fd) < 1e-4


def test_unsupervised_gradient_with_smoothness_matches_fd():
    model = float64_imputer(8, "sinusoid", noise_dim=2, hidden=(6,),
                            rng=np.random.default_rng(19))
    rng = np.random.default_rng(20)
    masks = np.zeros((4, 8))
    for i in range(4):
        masks[i, rng.choice(8, size=5, replace=False)] = 1.0
    values = rng.normal(size=(4, 8)) * masks
    cfg = ImputerLossConfig(self_mask_fraction=0.4, smoothness_weight=0.3)

    _, grads, _ = loss_unsupervised(model, values, masks, cfg, np.random.default_rng(77))
    analytic = np.concatenate([g.reshape(-1) for g in grads])
    fd = fd_loss_grad(
        model,
        lambda m: loss_unsupervised(m, values, masks, cfg, np.random.default_rng(77))[0],
    )
    assert rel_err(analytic, fd) < 1e-4


def test_supervised_hand_examples():
    model = constant_output_imputer(2, "sinusoid", 0.0)
    values, mask = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])
    loss, _ = loss_supervised_batch(model, values, mask, np.array([[1.0, 2.0]]),
                                    np.random.default_rng(0))
    assert loss == 4.0

    # invariant to observed coordinates of the truth vector
    loss_b, _ = loss_supervised_batch(model, values, mask, np.array([[-50.0, 2.0]]),
                                      np.random.default_rng(0))
    assert loss_b == loss

    perfect = constant_output_imputer(2, "sinusoid", [0.0, 2.0])
    loss_p, grads = loss_supervised_batch(perfect, values, mask, np.array([[1.0, 2.0]]),
                                          np.random.default_rng(0))
    assert loss_p == 0.0

    # fully observed input: loss defined as 0 with zero gradients
    full = np.array([[1.0, 2.0]])
    loss_f, grads_f = loss_supervised_batch(model, full, np.ones((1, 2)), full,
                                            np.random.default_rng(0))
    assert loss_f == 0.0
    assert all(np.all(g == 0.0) for g in grads_f)


def test_supervised_gradient_matches_finite_differences():
    model = float64_imputer(6, "sinusoid", noise_dim=2, hidden=(7,),
                            rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    masks = (rng.random((5, 6)) < 0.5).astype(np.float64)
    values = rng.normal(size=(5, 6)) * masks
    xbar = rng.normal(size=(5, 6))

    _, grads = loss_supervised_batch(model, values, masks, xbar, np.random.default_rng(55))
    analytic = np.concatenate([g.reshape(-1) for g in grads])
    fd = fd_loss_grad(
        model,
        lambda m: loss_supervised_batch(m, values, masks, xbar,
                                        np.random.default_rng(55))[0],
    )
    assert rel_err(analytic, fd) < 1e-4


# ------------------------------------------------------------------ training


def test_pretrain_constant_dataset_fits():
    d = 10
    row = np.linspace(-0.5, 0.5, d)
    complete = np.tile(row, (64, 1))
    ds = mask_dataset(complete, 5,
                      np.random.default_rng(23))
    model = build_imputer(d, "sinusoid", noise_dim=2, hidden=(32,),
                          rng=np.random.default_rng(24))
    cfg = ImputerLossConfig(self_mask_fraction=0.5)
    opt = nn.OptimizerState(kind="adam", lr=3e-3)
    curve = pretrain(model, ds.values, ds.masks, 300, opt, cfg,
                     np.random.default_rng(25), batch_size=32,
                     plateau_tol=-1.0)
    val, _, _ = loss_unsupervised(model, ds.values, ds.masks, cfg,
                                  np.random.default_rng(26))
    assert val < 1e-3
    assert curve[-1] < curve[0]
    # the Adam moments follow the float32 parameters
    assert all(a.dtype == np.float32 for a in [*model.net.params(), *opt.m, *opt.v])


def test_pretrain_loss_curve_mostly_decreasing():
    # epoch means over 512 examples keep self-mask redraw noise below the
    # per-epoch descent during the early training phase measured here
    train, _ = gen_sinusoid_dataset(n_train=512, n_test=1, seed=27)
    ds = mask_dataset(train, 20,
                      np.random.default_rng(28))
    model = build_imputer(100, "sinusoid", noise_dim=4, hidden=(32,),
                          rng=np.random.default_rng(29))
    cfg = ImputerLossConfig(self_mask_fraction=0.5, smoothness_weight=0.1)
    opt = nn.OptimizerState(kind="adam", lr=3e-3)
    curve = pretrain(model, ds.values, ds.masks, 15, opt, cfg,
                     np.random.default_rng(30), batch_size=64,
                     plateau_tol=-1.0)
    drops = sum(1 for a, b in zip(curve, curve[1:]) if b <= a + 1e-12)
    assert drops / (len(curve) - 1) >= 0.8


def test_pretrain_zero_epochs_is_identity():
    model = build_imputer(6, "image", hidden=(8,), rng=np.random.default_rng(31))
    before = [p.copy() for p in model.net.params()]
    curve = pretrain(model, np.zeros((4, 6)), np.ones((4, 6)), 0,
                     nn.OptimizerState(kind="adam", lr=1e-3), ImputerLossConfig(),
                     np.random.default_rng(32))
    assert curve == []
    assert all(np.array_equal(a, b) for a, b in zip(before, model.net.params()))


def test_pretrain_aborts_on_nonfinite_loss():
    model = build_imputer(6, "image", hidden=(8,), rng=np.random.default_rng(33))
    model.net.weights[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="diverged"):
        pretrain(model, np.ones((4, 6)), np.ones((4, 6)), 3,
                 nn.OptimizerState(kind="sgd", lr=1e-3), ImputerLossConfig(),
                 np.random.default_rng(34))


def test_pretrain_plateau_stops_early():
    # constant-zero predictions on constant-zero data: loss 0 from epoch one
    model = constant_output_imputer(4, "sinusoid", 0.0)
    curve = pretrain(model, np.zeros((8, 4)), np.ones((8, 4)), 50,
                     nn.OptimizerState(kind="sgd", lr=0.0), ImputerLossConfig(),
                     np.random.default_rng(35))
    assert len(curve) == 6  # plateau window + 1


def test_pretrain_rejects_empty_dataset():
    model = build_imputer(4, "image", hidden=(4,))
    with pytest.raises(ValueError):
        pretrain(model, np.zeros((0, 4)), np.zeros((0, 4)), 1,
                 nn.OptimizerState(), ImputerLossConfig(), np.random.default_rng(0))


def test_pretrain_refuses_data_with_no_row_observing_two_coordinates():
    # the self-masking loss skips every such row, so each step would be a no-op
    model = build_imputer(4, "image", hidden=(4,), rng=np.random.default_rng(34))
    before = [p.copy() for p in model.net.params()]
    masks = np.eye(4)[[0, 1, 2, 3, 0, 1]]
    with pytest.raises(ValueError, match="two coordinates"):
        pretrain(model, masks, masks, 1, nn.OptimizerState(), ImputerLossConfig(),
                 np.random.default_rng(35))
    assert all(np.array_equal(a, b) for a, b in zip(before, model.net.params()))
    # one such row is enough
    masks[0, 1] = 1.0
    assert len(pretrain(model, masks, masks, 1, nn.OptimizerState(), ImputerLossConfig(),
                        np.random.default_rng(35))) == 1


# ---------------------------------------------------------------- adaptation


def adapt_fixture():
    rng = np.random.default_rng(36)
    model = build_imputer(6, "sinusoid", noise_dim=2, hidden=(8,), rng=rng)
    miss_masks = np.zeros((4, 6))
    for i in range(4):
        miss_masks[i, rng.choice(6, size=3, replace=False)] = 1.0
    miss_values = rng.normal(size=(4, 6)) * miss_masks
    term_masks = np.zeros((3, 6))
    for i in range(3):
        term_masks[i, rng.choice(6, size=2, replace=False)] = 1.0
    xbar = rng.normal(size=(3, 6))
    term_values = xbar * term_masks
    return model, miss_values, miss_masks, term_values, term_masks, xbar


def test_adapt_zero_rates_is_identity():
    model, mv, mm, tv, tm, xb = adapt_fixture()
    cfg = ImputerLossConfig(self_mask_fraction=0.5)
    adapted, losses = adapt_step(model, mv, mm, tv, tm, xb, 0.0, 0.0, cfg,
                                 np.random.default_rng(37), np.random.default_rng(38))
    assert np.isfinite(losses["unsupervised"]) and np.isfinite(losses["supervised"])
    assert adapted is not model
    for a, b in zip(adapted.net.params(), model.net.params()):
        assert np.array_equal(a, b)


def test_adapt_does_not_mutate_input_model():
    model, mv, mm, tv, tm, xb = adapt_fixture()
    before = [p.copy() for p in model.net.params()]
    adapt_step(model, mv, mm, tv, tm, xb, 0.1, 0.05, ImputerLossConfig(),
               np.random.default_rng(39), np.random.default_rng(40))
    assert all(np.array_equal(a, b) for a, b in zip(before, model.net.params()))


def test_adapt_without_supervised_term_is_one_sgd_step():
    model, mv, mm, tv, tm, xb = adapt_fixture()
    cfg = ImputerLossConfig(self_mask_fraction=0.5)
    alpha = 0.07
    adapted, _ = adapt_step(model, mv, mm, tv, tm, xb, alpha, 0.0, cfg,
                            np.random.default_rng(41), np.random.default_rng(42))

    manual = model.copy()
    _, grads, _ = loss_unsupervised(manual, mv, mm, cfg, np.random.default_rng(41))
    manual.net.step(grads, nn.OptimizerState(kind="sgd", lr=alpha))
    for a, b in zip(adapted.net.params(), manual.net.params()):
        assert np.array_equal(a, b)


def test_adapt_combined_step_matches_explicit_combination():
    model, mv, mm, tv, tm, xb = adapt_fixture()
    cfg = ImputerLossConfig(self_mask_fraction=0.5)
    alpha, alpha_p = 0.03, 0.11
    adapted, _ = adapt_step(model, mv, mm, tv, tm, xb, alpha, alpha_p, cfg,
                            np.random.default_rng(43), np.random.default_rng(44))

    _, g_u, _ = loss_unsupervised(model, mv, mm, cfg, np.random.default_rng(43))
    _, g_s = loss_supervised_batch(model, tv, tm, xb, np.random.default_rng(44))
    for p, gu, gs, got in zip(model.net.params(), g_u, g_s, adapted.net.params()):
        expect = p.copy()
        expect -= alpha * gu + alpha_p * gs
        assert np.array_equal(got, expect)


def test_adapt_rejects_non_finite_gradient():
    model, mv, mm, tv, tm, xb = adapt_fixture()
    before = [p.copy() for p in model.net.params()]
    xb = xb.copy()
    xb[:, 0] = np.nan                       # a NaN target gives NaN supervised grads
    with pytest.raises(nn.NonFiniteGradientError):
        adapt_step(model, mv, mm, tv, tm, xb, 0.1, 0.05, ImputerLossConfig(),
                   np.random.default_rng(39), np.random.default_rng(40))
    assert all(np.array_equal(a, b) for a, b in zip(before, model.net.params()))


def test_imputation_diversity_after_training():
    train, _ = gen_sinusoid_dataset(n_train=48, n_test=1, seed=45)
    ds = mask_dataset(train, 20,
                      np.random.default_rng(46))
    model = build_imputer(100, "sinusoid", noise_dim=4, hidden=(32,),
                          rng=np.random.default_rng(47))
    pretrain(model, ds.values, ds.masks, 10, nn.OptimizerState(kind="adam", lr=3e-3),
             ImputerLossConfig(), np.random.default_rng(48), batch_size=16)

    empty = np.zeros((1, 100))
    rng = np.random.default_rng(49)
    distinct = 0
    for _ in range(100):
        a = impute_batch(model, empty, empty, rng)
        b = impute_batch(model, empty, empty, rng)
        if np.linalg.norm(a - b) > 0:
            distinct += 1
    assert distinct >= 99


# ------------------------------------------------------------- serialization


def test_imputer_checkpoint_round_trip(tmp_path):
    for variant in ("image", "sinusoid"):
        model = build_imputer(9, variant, noise_dim=3, hidden=(12, 5),
                              rng=np.random.default_rng(50))
        path = tmp_path / f"{variant}.ckpt"
        save_imputer(model, path)
        back = load_imputer(path)
        assert back.variant == variant
        assert back.noise_dim == 3
        assert back.d == 9
        assert back.net.dtype == model.net.dtype == np.float32
        for a, b in zip(back.net.params(), model.net.params()):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", ["sinusoid", "image"])
def test_float64_imputer_checkpoint_loads_and_imputes_in_float64(tmp_path, variant):
    # what `measim pretrain` wrote before the imputer was float32: it loads
    # uncast and imputes to the float64 reference
    rng = np.random.default_rng(52)
    model = float64_imputer(12, variant, noise_dim=4, hidden=(16, 16), rng=rng)
    path = tmp_path / "imputer.ckpt"
    save_imputer(model, path)
    back = load_imputer(path)
    assert back.net.dtype == np.float64
    for a, b in zip(back.net.params(), model.net.params()):
        assert a.tobytes() == b.tobytes()
    masks = (rng.random((30, 12)) < 0.3).astype(np.float64)
    vals = rng.random((30, 12)) * masks
    draws = impute_batch(back, vals, masks, np.random.default_rng(5), k=3)
    assert np.array_equal(draws, impute_batch(model, vals, masks, np.random.default_rng(5), k=3))
    noise_rng = np.random.default_rng(5)
    free = masks == 0.0
    for draw in draws:
        x = np.concatenate([net_inputs(model, vals, masks),
                            noise_rng.standard_normal((30, 4))], axis=1)
        y = nn.forward(model.net, x, mode="eval")[0]
        assert y.dtype == np.float64
        assert np.allclose(draw[free], y[free], rtol=1e-12, atol=0.0)


def test_load_imputer_rejects_wrong_role(tmp_path):
    model = build_imputer(5, "image", rng=np.random.default_rng(51))
    path = tmp_path / "actor.ckpt"
    nn.save_checkpoint(model.net, path, role=nn.ROLE_ACTOR)
    with pytest.raises(ValueError, match="role"):
        load_imputer(path)
