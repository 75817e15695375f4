"""Dense-network substrate: forward/backward, inverted dropout, SGD/Adam,
finite-difference gradient checking, and a binary checkpoint format.

Everything is float64.  Networks are plain MLPs; a forward pass records a
tape so the matching backward pass can replay activations and dropout masks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

ACT_CODES = {"identity": 0, "tanh": 1, "relu": 2, "sigmoid": 3}
CODE_ACTS = {v: k for k, v in ACT_CODES.items()}
HIDDEN_ACTS = ("tanh", "relu")
OUTPUT_ACTS = ("identity", "sigmoid")

CHECKPOINT_MAGIC = b"AMJL"
CHECKPOINT_VERSION = 1

# Role byte stored in checkpoints so loaders can reject the wrong kind of net.
ROLE_GENERIC = 0
ROLE_IMPUTER = 1
ROLE_ACTOR = 2
ROLE_CRITIC = 3


class StaleTapeError(RuntimeError):
    """Backward was called with a tape recorded against older parameters."""


class NonFiniteGradientError(ValueError):
    """An optimizer step received a NaN/Inf gradient."""


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # stable form for both signs
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name: str, a: np.ndarray) -> np.ndarray:
    # derivative from the post-activation a alone; for relu, a > 0 exactly
    # where z > 0, since a = max(z, 0)
    if name == "identity":
        return np.ones_like(a)
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


class DenseNet:
    """Fully connected network with per-hidden-layer inverted dropout.

    weights[i] has shape (dims[i+1], dims[i]); hidden layers share one
    activation, the output layer gets its own.  `version` counts parameter
    mutations so stale tapes can be rejected.
    """

    def __init__(
        self,
        layer_dims: list[int],
        hidden_activation: str = "tanh",
        output_activation: str = "identity",
        dropout_rates: list[float] | float | None = None,
        rng: np.random.Generator | None = None,
    ):
        if len(layer_dims) < 2 or any(d <= 0 for d in layer_dims):
            raise ValueError(f"layer_dims must be >= 2 positive ints, got {layer_dims}")
        if hidden_activation not in HIDDEN_ACTS:
            raise ValueError(f"hidden activation must be one of {HIDDEN_ACTS}")
        if output_activation not in OUTPUT_ACTS:
            raise ValueError(f"output activation must be one of {OUTPUT_ACTS}")
        n_hidden = len(layer_dims) - 2
        if dropout_rates is None:
            dropout_rates = [0.0] * n_hidden
        elif np.isscalar(dropout_rates):
            dropout_rates = [float(dropout_rates)] * n_hidden
        dropout_rates = [float(r) for r in dropout_rates]
        if len(dropout_rates) != n_hidden:
            raise ValueError(f"need {n_hidden} dropout rates, got {len(dropout_rates)}")
        if any(not (0.0 <= r < 1.0) for r in dropout_rates):
            raise ValueError(f"dropout rates must lie in [0, 1), got {dropout_rates}")

        self.layer_dims = [int(d) for d in layer_dims]
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.dropout_rates = dropout_rates
        self.version = 0

        if rng is None:
            rng = np.random.default_rng(0)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def params(self) -> list[np.ndarray]:
        """Parameter arrays in checkpoint order [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def n_params(self) -> int:
        return sum(p.size for p in self.params())

    def _activation_for(self, layer: int) -> str:
        return self.output_activation if layer == self.n_layers - 1 else self.hidden_activation

    def copy(self) -> "DenseNet":
        """Independent deep copy with a fresh version counter."""
        dup = DenseNet.__new__(DenseNet)
        dup.layer_dims = list(self.layer_dims)
        dup.hidden_activation = self.hidden_activation
        dup.output_activation = self.output_activation
        dup.dropout_rates = list(self.dropout_rates)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        dup.version = 0
        return dup

    def step(self, grads: list[np.ndarray], state: "OptimizerState") -> None:
        """Apply one optimizer step in place and invalidate existing tapes."""
        optimizer_step(self.params(), grads, state)
        self.version += 1

    def assert_finite(self) -> None:
        for i, p in enumerate(self.params()):
            if not np.all(np.isfinite(p)):
                raise FloatingPointError(f"non-finite parameter at index {i}")


class Tape:
    """Activations and dropout masks recorded by one forward pass.

    Pre-activations are not kept: every activation's derivative is a
    function of its output.
    """

    __slots__ = ("version", "mode", "single", "inputs", "acts", "drop_masks", "output")

    def __init__(self, version, mode, single, inputs, acts, drop_masks, output):
        self.version = version
        self.mode = mode
        self.single = single
        self.inputs = inputs          # per-layer input, inputs[0] is the net input
        self.acts = acts              # per-layer post-activation (pre-dropout)
        self.drop_masks = drop_masks  # per-layer bool keep-mask or None
        self.output = output


def forward(
    net: DenseNet,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, Tape]:
    """Run the network on a vector or a (batch, in_dim) matrix.

    In train mode each hidden layer with a positive dropout rate zeroes
    units with that probability and scales survivors by 1/(1-rate), so eval
    mode needs no rescaling.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.ndim != 2 or a.shape[1] != net.in_dim:
        raise ValueError(f"input has {a.shape[-1] if a.ndim else 0} features, net expects {net.in_dim}")
    if mode == "train" and rng is None and any(r > 0 for r in net.dropout_rates):
        raise ValueError("train-mode forward with dropout needs an rng")

    inputs, acts, drop_masks = [], [], []
    for i in range(net.n_layers):
        inputs.append(a)
        z = a @ net.weights[i].T + net.biases[i]
        h = _activate(net._activation_for(i), z)
        acts.append(h)
        keep = None
        if i < net.n_layers - 1:
            rate = net.dropout_rates[i]
            if mode == "train" and rate > 0.0:
                keep = rng.random(h.shape) >= rate
                h = h * keep / (1.0 - rate)
        drop_masks.append(keep)
        a = h

    out = a[0] if single else a
    tape = Tape(net.version, mode, single, inputs, acts, drop_masks, a)
    return out, tape


def backward(
    net: DenseNet,
    tape: Tape,
    upstream: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Chain-rule the loss gradient wrt the output back to parameters.

    Returns (grads in params() order, gradient wrt the input).  Gradients
    sum over the batch dimension; callers scale the upstream gradient for
    mean losses.
    """
    if tape.version != net.version:
        raise StaleTapeError(
            f"tape recorded at parameter version {tape.version}, net is at {net.version}"
        )
    up = np.asarray(upstream, dtype=np.float64)
    if tape.single:
        up = up[None, :]
    if up.shape != tape.output.shape:
        raise ValueError(f"upstream gradient shape {up.shape} != output shape {tape.output.shape}")

    grads: list[np.ndarray] = [None] * (2 * net.n_layers)
    delta = up * _activation_grad(net._activation_for(net.n_layers - 1), tape.acts[-1])
    for i in range(net.n_layers - 1, -1, -1):
        grads[2 * i] = delta.T @ tape.inputs[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        dprev = delta @ net.weights[i]
        if i > 0:
            keep = tape.drop_masks[i - 1]
            if keep is not None:
                dprev = dprev * keep / (1.0 - net.dropout_rates[i - 1])
            delta = dprev * _activation_grad(net._activation_for(i - 1), tape.acts[i - 1])
    dinput = dprev[0] if tape.single else dprev
    return grads, dinput


@dataclass
class OptimizerState:
    """SGD or Adam state; Adam moments mirror parameter shapes exactly."""

    kind: str = "sgd"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: list[np.ndarray] | None = field(default=None, repr=False)
    v: list[np.ndarray] | None = field(default=None, repr=False)
    t: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")


def optimizer_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
) -> tuple[list[np.ndarray], OptimizerState]:
    """Update parameters in place; rejects non-finite gradients up front."""
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}")
        if not np.all(np.isfinite(g)):
            kind = "weight" if i % 2 == 0 else "bias"
            raise NonFiniteGradientError(f"non-finite gradient for layer {i // 2} {kind}")

    if state.kind == "sgd":
        for p, g in zip(params, grads):
            p -= state.lr * g
        return params, state

    if state.m is None:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(state.m) != len(params) or any(m.shape != p.shape for m, p in zip(state.m, params)):
        raise ValueError("optimizer moment shapes do not match parameters")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def grad_check(net: DenseNet, x: np.ndarray, loss_fn, h: float = 1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    loss_fn maps the network output to (scalar loss, dloss/doutput).  Runs
    in eval mode so the loss surface is deterministic.
    """
    if net.n_params() >= 100_000:
        raise ValueError(f"net has {net.n_params()} parameters; grad_check is for < 1e5")
    out, tape = forward(net, x, mode="eval")
    _, upstream = loss_fn(out)
    analytic, _ = backward(net, tape, upstream)

    worst = 0.0
    for p, g in zip(net.params(), analytic):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lo_plus, _ = loss_fn(forward(net, x, mode="eval")[0])
            flat[j] = orig - h
            lo_minus, _ = loss_fn(forward(net, x, mode="eval")[0])
            flat[j] = orig
            numeric = (lo_plus - lo_minus) / (2.0 * h)
            err = abs(gflat[j] - numeric) / max(1e-8, abs(gflat[j]) + abs(numeric))
            worst = max(worst, err)
    return worst


def save_checkpoint(net: DenseNet, path, role: int = 0) -> None:
    """Binary dump: magic, format version, role byte, dims, activation tags,
    dropout rates, then row-major float64 weight/bias arrays.  Bit-exact."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    buf += struct.pack("<B", role)
    buf += struct.pack("<I", len(net.layer_dims))
    for d in net.layer_dims:
        buf += struct.pack("<I", d)
    for i in range(net.n_layers):
        buf += struct.pack("<B", ACT_CODES[net._activation_for(i)])
    for r in net.dropout_rates:
        buf += struct.pack("<d", r)
    for w, b in zip(net.weights, net.biases):
        buf += np.ascontiguousarray(w, dtype="<f8").tobytes()
        buf += np.ascontiguousarray(b, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(bytes(buf))


def load_checkpoint(path) -> tuple[DenseNet, int]:
    """Inverse of save_checkpoint; returns (net, role byte)."""
    with open(path, "rb") as f:
        raw = f.read()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"truncated checkpoint: ran out of bytes reading {what}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    off = 0
    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic; not a model checkpoint")
    (version,) = struct.unpack("<I", take(4, "format version"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    (role,) = struct.unpack("<B", take(1, "role"))
    (n_dims,) = struct.unpack("<I", take(4, "dim count"))
    dims = [struct.unpack("<I", take(4, "dims"))[0] for _ in range(n_dims)]
    n_layers = n_dims - 1
    tags = [struct.unpack("<B", take(1, "activation tags"))[0] for _ in range(n_layers)]
    rates = [struct.unpack("<d", take(8, "dropout rates"))[0] for _ in range(max(0, n_dims - 2))]

    for i, tag in enumerate(tags):
        if tag not in CODE_ACTS:
            raise ValueError(f"layer {i} has unknown activation tag {tag}")
        # DenseNet gives every hidden layer one activation
        if i < n_layers - 1 and tag != tags[0]:
            raise ValueError(f"layer {i} has activation tag {tag} ({CODE_ACTS[tag]}), "
                             f"but hidden layers share layer 0's tag {tags[0]} "
                             f"({CODE_ACTS[tags[0]]})")
    hidden_act = CODE_ACTS[tags[0]] if n_layers > 1 else "tanh"
    output_act = CODE_ACTS[tags[-1]]
    net = DenseNet(dims, hidden_activation=hidden_act, output_activation=output_act,
                   dropout_rates=rates)
    for i in range(n_layers):
        wsize = dims[i + 1] * dims[i]
        w = np.frombuffer(take(8 * wsize, f"layer {i} weights"), dtype="<f8")
        b = np.frombuffer(take(8 * dims[i + 1], f"layer {i} bias"), dtype="<f8")
        net.weights[i] = w.reshape(dims[i + 1], dims[i]).copy()
        net.biases[i] = b.copy()
    if off != len(raw):
        raise ValueError(f"checkpoint has {len(raw) - off} trailing bytes")
    return net, role
