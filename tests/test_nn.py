import struct
import tracemalloc

import numpy as np
import pytest

from measim import nn


def half_square_loss(out):
    # loss = sum(out^2)/2, gradient = out
    return 0.5 * float(np.sum(out * out)), out


def fd_param_grads(net, x, loss_fn, h=1e-5):
    """Independent central-difference oracle over every parameter."""
    grads = []
    for p in net.params():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp, _ = loss_fn(nn.forward(net, x, mode="eval")[0])
            flat[j] = orig - h
            lm, _ = loss_fn(nn.forward(net, x, mode="eval")[0])
            flat[j] = orig
            gflat[j] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def test_identity_layer_passthrough():
    net = nn.DenseNet([2, 2])
    net.weights[0][:] = np.eye(2)
    net.biases[0][:] = 0.0
    out, _ = nn.forward(net, np.array([[0.3, -0.7]]))
    assert np.array_equal(out, np.array([[0.3, -0.7]]))


def test_affine_1x1():
    net = nn.DenseNet([1, 1])
    net.weights[0][:] = 2.0
    net.biases[0][:] = 1.0
    out, _ = nn.forward(net, np.array([[3.0]]))
    assert out[0, 0] == pytest.approx(7.0)


def test_zero_dropout_train_equals_eval():
    rng = np.random.default_rng(3)
    net = nn.DenseNet([4, 8, 3], dropout_rates=0.0, rng=rng)
    x = rng.normal(size=(1, 4))
    out_train, _ = nn.forward(net, x, mode="train", rng=np.random.default_rng(1))
    out_eval, _ = nn.forward(net, x, mode="eval")
    assert np.array_equal(out_train, out_eval)


def test_dimension_mismatch_rejected():
    net = nn.DenseNet([3, 2])
    with pytest.raises(ValueError, match="expects 3"):
        nn.forward(net, np.zeros((1, 4)))
    # a vector is not a one-row batch
    with pytest.raises(ValueError, match=r"shape \(3,\) is not a \(batch, 3\) matrix"):
        nn.forward(net, np.zeros(3))


def test_backward_hand_example():
    # loss = out^2/2 on a 1->1 identity net, w=1, b=0, input [2]:
    # out = 2, dL/dout = 2, dW = 2*2 = 4, db = 2
    net = nn.DenseNet([1, 1])
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.0
    out, tape = nn.forward(net, np.array([[2.0]]))
    _, upstream = half_square_loss(out)
    grads = nn.backward(net, tape, upstream)
    assert grads[0][0, 0] == pytest.approx(4.0)
    assert grads[1][0] == pytest.approx(2.0)


def test_zero_upstream_zero_grads():
    rng = np.random.default_rng(5)
    net = nn.DenseNet([3, 5, 2], rng=rng)
    out, tape = nn.forward(net, rng.normal(size=(1, 3)))
    grads = nn.backward(net, tape, np.zeros_like(out))
    assert all(np.all(g == 0.0) for g in grads)


@pytest.mark.parametrize("hidden_act", ["tanh", "relu"])
@pytest.mark.parametrize("out_act", ["identity", "sigmoid"])
def test_backward_matches_finite_differences(hidden_act, out_act):
    rng = np.random.default_rng(11)
    net = nn.DenseNet([5, 7, 6, 3], hidden_activation=hidden_act,
                      output_activation=out_act, rng=rng)
    x = rng.normal(size=(1, 5))
    out, tape = nn.forward(net, x)
    _, upstream = half_square_loss(out)
    analytic = nn.backward(net, tape, upstream)
    numeric = fd_param_grads(net, x, half_square_loss)
    for a, n in zip(analytic, numeric):
        rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
        assert rel.max() < 1e-4


def test_stale_tape_detected():
    rng = np.random.default_rng(7)
    net = nn.DenseNet([2, 3, 1], rng=rng)
    out, tape = nn.forward(net, np.array([[0.5, -0.5]]))
    net.step([np.zeros_like(p) for p in net.params()], nn.OptimizerState("sgd", lr=0.1))
    with pytest.raises(nn.StaleTapeError):
        nn.backward(net, tape, np.ones_like(out))


def test_batched_forward_matches_rowwise():
    # batched and single-row matmuls may accumulate in different BLAS
    # orders, so equality here is close, not bitwise
    rng = np.random.default_rng(17)
    net = nn.DenseNet([4, 6, 3], rng=rng)
    xs = rng.normal(size=(5, 4))
    batch_out, _ = nn.forward(net, xs)
    for i in range(5):
        row_out, _ = nn.forward(net, xs[i:i + 1])
        assert np.allclose(batch_out[i], row_out[0], rtol=1e-13, atol=1e-13)


def test_batched_backward_sums_rows():
    rng = np.random.default_rng(19)
    net = nn.DenseNet([3, 5, 2], rng=rng)
    xs = rng.normal(size=(4, 3))
    up = rng.normal(size=(4, 2))
    out, tape = nn.forward(net, xs)
    grads = nn.backward(net, tape, up)
    summed = [np.zeros_like(g) for g in grads]
    for i in range(4):
        _, t = nn.forward(net, xs[i:i + 1])
        gi = nn.backward(net, t, up[i:i + 1])
        for s, g in zip(summed, gi):
            s += g
    for a, b in zip(grads, summed):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_sgd_hand_example():
    p = [np.array([1.0])]
    g = [np.array([2.0])]
    nn.optimizer_step(p, g, nn.OptimizerState("sgd", lr=0.1))
    assert p[0][0] == pytest.approx(0.8)


def test_zero_gradient_leaves_params():
    rng = np.random.default_rng(23)
    net = nn.DenseNet([3, 4, 2], rng=rng)
    before = [p.copy() for p in net.params()]
    net.step([np.zeros_like(p) for p in net.params()], nn.OptimizerState("adam", lr=0.01))
    for a, b in zip(before, net.params()):
        assert np.array_equal(a, b)


def test_adam_first_step_closed_form():
    # with all-ones gradients the bias-corrected first Adam step is
    # lr * 1/(1 + eps) for every parameter
    rng = np.random.default_rng(29)
    net = nn.DenseNet([3, 4, 2], rng=rng)
    before = [p.copy() for p in net.params()]
    net.step([np.ones_like(p) for p in net.params()], nn.OptimizerState("adam", lr=0.001))
    for a, b in zip(before, net.params()):
        assert np.allclose(a - b, 0.001, atol=1e-9)


def test_adam_in_place_matches_textbook_formula_bitwise():
    # the in-place update against the plain-expression form, over steps whose
    # gradients change in scale and sign
    rng = np.random.default_rng(37)
    net = nn.DenseNet([5, 7, 3], rng=rng)
    state = nn.OptimizerState("adam", lr=0.003)
    params = [p.copy() for p in net.params()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
    for t in range(1, 7):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.uniform(-4, 2) for p in params]
        net.step(grads, state)
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            m_hat = mi / (1.0 - b1 ** t)
            v_hat = vi / (1.0 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.t == t
        for got, want in zip([*net.params(), *state.m, *state.v], [*params, *m, *v]):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_nonfinite_gradient_rejected_with_layer():
    rng = np.random.default_rng(31)
    net = nn.DenseNet([2, 3, 1], rng=rng)
    grads = [np.zeros_like(p) for p in net.params()]
    grads[2][0, 0] = np.nan
    with pytest.raises(nn.NonFiniteGradientError, match="layer 1 weight"):
        net.step(grads, nn.OptimizerState("sgd", lr=0.1))


def test_grad_check_identity_case():
    net = nn.DenseNet([2, 2])
    net.weights[0][:] = np.eye(2)
    net.biases[0][:] = 0.0
    err = nn.grad_check(net, np.array([0.4, -0.2]), half_square_loss)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = nn.DenseNet([6, 8, 8, 4], rng=rng)
    err = nn.grad_check(net, rng.normal(size=6), half_square_loss)
    assert err < 1e-4


def test_grad_check_catches_sign_flip(monkeypatch):
    real_backward = nn.backward

    def corrupted(net, tape, upstream):
        grads = real_backward(net, tape, upstream)
        grads[0] = -grads[0]
        return grads

    rng = np.random.default_rng(37)
    net = nn.DenseNet([3, 4, 2], rng=rng)
    monkeypatch.setattr(nn, "backward", corrupted)
    err = nn.grad_check(net, rng.normal(size=3), half_square_loss)
    assert err > 0.1


def test_grad_check_rejects_large_nets():
    net = nn.DenseNet([400, 400, 100], rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="1e5"):
        nn.grad_check(net, np.zeros(400), half_square_loss)


def test_dropout_expectation_matches_eval():
    # dropout enters linearly into an identity output layer, so the
    # train-mode mean is unbiased for the eval output
    rng = np.random.default_rng(41)
    net = nn.DenseNet([3, 16, 2], hidden_activation="relu",
                      dropout_rates=[0.3], rng=rng)
    x = rng.normal(size=(1, 3))
    eval_out, _ = nn.forward(net, x)
    draws = 10_000
    drop_rng = np.random.default_rng(43)
    samples = np.empty((draws, 2))
    for i in range(draws):
        samples[i] = nn.forward(net, x, mode="train", rng=drop_rng)[0][0]
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mean - eval_out[0]) <= 3.0 * stderr + 1e-12)


def test_dropout_zeroes_and_scales():
    net = nn.DenseNet([1, 4, 1], dropout_rates=[0.5], rng=np.random.default_rng(47))
    _, tape = nn.forward(net, np.array([[1.0]]), mode="train", rng=np.random.default_rng(48))
    keep = tape.drop_masks[0]
    assert keep is not None and keep.dtype == bool
    # survivors scaled by 1/(1-rate): layer-1 input equals act * keep * 2
    scaled = tape.acts[0] * keep / 0.5
    assert np.array_equal(tape.inputs[1], scaled)


def test_determinism_same_seed_same_everything():
    def run():
        rng = np.random.default_rng(53)
        net = nn.DenseNet([4, 8, 3], dropout_rates=[0.2], rng=rng)
        x = rng.normal(size=(6, 4))
        out, tape = nn.forward(net, x, mode="train", rng=np.random.default_rng(54))
        grads = nn.backward(net, tape, np.ones_like(out))
        net.step(grads, nn.OptimizerState("adam", lr=0.01))
        return out, net.params()

    out1, p1 = run()
    out2, p2 = run()
    assert np.array_equal(out1, out2)
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_checkpoint_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(59)
    net = nn.DenseNet([5, 7, 3], hidden_activation="relu",
                      output_activation="sigmoid", dropout_rates=[0.25], rng=rng)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path, role=2)
    loaded, role = nn.load_checkpoint(path)
    assert role == 2
    assert loaded.layer_dims == net.layer_dims
    assert loaded.hidden_activation == "relu"
    assert loaded.output_activation == "sigmoid"
    assert loaded.dropout_rates == net.dropout_rates
    for a, b in zip(net.params(), loaded.params()):
        assert np.array_equal(a, b)
    # save again: identical bytes
    path2 = tmp_path / "net2.ckpt"
    nn.save_checkpoint(loaded, path2, role=2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_v2_roundtrip_keeps_dtype(tmp_path, dtype):
    net = nn.DenseNet([5, 7, 3], dropout_rates=[0.25], rng=np.random.default_rng(59),
                      dtype=dtype)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path, role=2)
    loaded, _ = nn.load_checkpoint(path)
    assert loaded.dtype == np.dtype(dtype)
    for a, b in zip(net.params(), loaded.params(), strict=True):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert a.tobytes() == b.tobytes()
    x = np.random.default_rng(60).normal(size=(4, 5))
    assert nn.forward(net, x)[0].tobytes() == nn.forward(loaded, x)[0].tobytes()


def test_checkpoint_v1_loads_as_float64(tmp_path):
    # the version 1 layout, written out by hand: no dtype byte, float64 params
    net = nn.DenseNet([3, 4, 2], dropout_rates=[0.5], rng=np.random.default_rng(63))
    raw = b"AMJL" + struct.pack("<IBI", 1, nn.ROLE_ACTOR, 3) + struct.pack("<3I", 3, 4, 2)
    raw += bytes([nn.ACT_CODES["tanh"], nn.ACT_CODES["identity"]]) + struct.pack("<d", 0.5)
    raw += b"".join(p.astype("<f8").tobytes() for p in net.params())
    path = tmp_path / "v1.ckpt"
    path.write_bytes(raw)
    loaded, role = nn.load_checkpoint(path)
    assert role == nn.ROLE_ACTOR
    assert loaded.dtype == np.float64
    assert loaded.dropout_rates == [0.5]
    for a, b in zip(net.params(), loaded.params(), strict=True):
        assert a.tobytes() == b.tobytes()


def test_float32_net_draws_float64_init_then_casts():
    # one RNG stream for every dtype: float32 weights are the float64 draws, cast
    w64 = nn.DenseNet([6, 5, 2], rng=np.random.default_rng(64))
    w32 = nn.DenseNet([6, 5, 2], rng=np.random.default_rng(64), dtype=np.float32)
    for a, b in zip(w64.params(), w32.params(), strict=True):
        assert b.dtype == np.float32
        assert np.array_equal(a.astype(np.float32), b)


@pytest.mark.parametrize("hidden", ["tanh", "relu"])
def test_float32_net_computes_and_steps_in_float32(hidden):
    net = nn.DenseNet([6, 5, 3], hidden_activation=hidden, dropout_rates=0.2,
                      rng=np.random.default_rng(65), dtype=np.float32)
    out, tape = nn.forward(net, np.ones((4, 6)), mode="train", rng=np.random.default_rng(66))
    assert out.dtype == np.float32
    grads = nn.backward(net, tape, np.ones((4, 3)))   # float64 upstream is cast
    assert all(g.dtype == np.float32 for g in grads)
    opt = nn.OptimizerState(kind="adam", lr=1e-2)
    net.step(grads, opt)
    assert all(p.dtype == np.float32 for p in net.params())
    assert all(m.dtype == np.float32 for m in opt.m + opt.v)
    assert net.copy().dtype == np.float32


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        nn.load_checkpoint(path)
    good = tmp_path / "good.ckpt"
    nn.save_checkpoint(nn.DenseNet([2, 2]), good)
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        nn.load_checkpoint(truncated)


def _header(dims, tags, rates=()) -> bytes:
    """A float64 version-2 checkpoint's bytes up to its parameters."""
    return (nn.CHECKPOINT_MAGIC
            + struct.pack(f"<IBBI{len(dims)}I", nn.CHECKPOINT_VERSION, nn.ROLE_GENERIC, 8,
                          len(dims), *dims)
            + bytes(tags) + struct.pack(f"<{len(rates)}d", *rates))


def test_checkpoint_dims_are_checked_against_the_file_before_allocating(tmp_path):
    # 36 bytes whose header promises 144 MB of float64 parameters
    path = tmp_path / "huge.ckpt"
    path.write_bytes(_header([3000, 3000, 3000], [nn.ACT_CODES["tanh"],
                                                  nn.ACT_CODES["identity"]], [0.0]))
    assert path.stat().st_size == 36
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated checkpoint: its dims take "
                                             "144048000 parameter bytes, 0 follow"):
            nn.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("dims", [[], [5]])
def test_checkpoint_with_fewer_than_two_dims_is_refused(tmp_path, dims):
    path = tmp_path / "flat.ckpt"
    path.write_bytes(_header(dims, []))
    with pytest.raises(ValueError, match=f"checkpoint has {len(dims)} layer dims"):
        nn.load_checkpoint(path)


def _patched_tags(tmp_path, tags):
    """A [3, 4, 4, 2] checkpoint whose three activation tag bytes are replaced."""
    path = tmp_path / "tags.ckpt"
    nn.save_checkpoint(nn.DenseNet([3, 4, 4, 2]), path)
    raw = bytearray(path.read_bytes())
    first = 4 + 4 + 1 + 1 + 4 + 4 * 4      # magic, version, role, dtype, dim count, dims
    raw[first:first + 3] = bytes(tags)
    path.write_bytes(bytes(raw))
    return path


def test_checkpoint_rejects_unknown_activation_tag(tmp_path):
    with pytest.raises(ValueError, match="layer 2 has unknown activation tag 9"):
        nn.load_checkpoint(_patched_tags(tmp_path, [1, 1, 9]))


def test_checkpoint_rejects_mixed_hidden_tags(tmp_path):
    with pytest.raises(ValueError, match=r"layer 1 has activation tag 2 \(relu\)"):
        nn.load_checkpoint(_patched_tags(tmp_path, [1, 2, 0]))
    net, _ = nn.load_checkpoint(_patched_tags(tmp_path, [2, 2, 3]))
    assert (net.hidden_activation, net.output_activation) == ("relu", "sigmoid")


def reference_backward(net, tape, upstream):
    """Backward as written with pre-activations: relu passes where z > 0."""
    grad_of = {
        "identity": lambda z, a: np.ones_like(z),
        "tanh": lambda z, a: 1.0 - a * a,
        "relu": lambda z, a: (z > 0.0).astype(np.float64),
        "sigmoid": lambda z, a: a * (1.0 - a),
    }
    zs = [x @ w.T + b for x, w, b in zip(tape.inputs, net.weights, net.biases)]
    acts = [net._activation_for(i) for i in range(net.n_layers)]
    grads = [None] * (2 * net.n_layers)
    delta = upstream * grad_of[acts[-1]](zs[-1], tape.acts[-1])
    for i in range(net.n_layers - 1, -1, -1):
        grads[2 * i] = delta.T @ tape.inputs[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            dprev = delta @ net.weights[i]
            keep = tape.drop_masks[i - 1]
            if keep is not None:
                dprev = dprev * keep / (1.0 - net.dropout_rates[i - 1])
            delta = dprev * grad_of[acts[i - 1]](zs[i - 1], tape.acts[i - 1])
    return grads


@pytest.mark.parametrize("hidden, output", [("relu", "identity"), ("relu", "sigmoid"),
                                            ("tanh", "identity"), ("tanh", "sigmoid")])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_backward_from_post_activations_is_bit_identical(hidden, output, mode):
    # the tape keeps no pre-activations; gradients must not change by a bit
    rng = np.random.default_rng(61)
    net = nn.DenseNet([6, 9, 7, 4], hidden_activation=hidden, output_activation=output,
                      dropout_rates=0.3, rng=rng)
    x = rng.normal(size=(12, 6))
    x[0] = 0.0                      # relu units at exactly z == bias == 0
    out, tape = nn.forward(net, x, mode=mode, rng=np.random.default_rng(62))
    up = rng.normal(size=out.shape)
    grads = nn.backward(net, tape, up)
    ref_grads = reference_backward(net, tape, up)
    for g, r in zip(grads, ref_grads):
        assert np.array_equal(g, r)
