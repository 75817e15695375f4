"""Dense-network substrate: forward/backward, inverted dropout, SGD/Adam,
finite-difference gradient checking, and a binary checkpoint format.

Each net computes in the dtype of its parameters, float64 unless built
otherwise: forward casts its input and backward its upstream gradient to it,
and the optimizer keeps it.  The policy nets and the imputer are float32
(policy.build_policy, imputer.build_imputer).  Networks are plain
MLPs; a forward pass records a tape so the matching backward pass can replay
activations and dropout masks.
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
CHECKPOINT_VERSION = 2

# Parameter dtypes by the item size that v2 checkpoints store as their dtype
# byte.  Version 1 has no dtype byte and holds float64.
ITEMSIZE_DTYPES = {4: np.dtype(np.float32), 8: np.dtype(np.float64)}

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
    # where z > 0, since a = max(z, 0).  An identity output needs none:
    # backward passes its upstream gradient straight through.
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (a > 0.0).astype(a.dtype)
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


class DenseNet:
    """Fully connected network with per-hidden-layer inverted dropout.

    weights[i] has shape (dims[i+1], dims[i]); hidden layers share one
    activation, the output layer gets its own.  Every parameter has the
    net's dtype, float32 or float64; initial weights are drawn in float64
    and then cast, so a net draws the same numbers in either dtype.
    `version` counts parameter mutations so stale tapes can be rejected;
    step is the only way parameters change.
    """

    def __init__(
        self,
        layer_dims: list[int],
        hidden_activation: str = "tanh",
        output_activation: str = "identity",
        dropout_rates: list[float] | float | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        if np.dtype(dtype) not in ITEMSIZE_DTYPES.values():
            raise ValueError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")
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
            self.weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in))
                                .astype(dtype, copy=False))
            self.biases.append(np.zeros(fan_out, dtype=dtype))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

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


class Tape:
    """Activations and dropout masks recorded by one forward pass.

    Pre-activations are not kept: every activation's derivative is a
    function of its output.
    """

    __slots__ = ("version", "inputs", "acts", "drop_masks", "output")

    def __init__(self, version, inputs, acts, drop_masks, output):
        self.version = version
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
    """Run the network on a (batch, in_dim) matrix.

    In train mode each hidden layer with a positive dropout rate zeroes
    units with that probability and scales survivors by 1/(1-rate), so eval
    mode needs no rescaling.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    a = np.asarray(x, dtype=net.dtype)
    if a.ndim != 2 or a.shape[1] != net.in_dim:
        raise ValueError(f"input of shape {a.shape} is not a (batch, {net.in_dim}) matrix: "
                         f"net expects {net.in_dim} features per row")
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

    return a, Tape(net.version, inputs, acts, drop_masks, a)


def forward_from(net: DenseNet, z0: np.ndarray) -> np.ndarray:
    """Eval-mode output from the first layer's pre-activation, with no tape.

    For a caller that forms z0 = x @ W0.T + b0 itself, e.g. to share the
    product of a fixed part of x across several forwards.  No dropout, as in
    eval mode; each later layer is computed exactly as in `forward`.
    """
    a = _activate(net._activation_for(0), z0)
    for i in range(1, net.n_layers):
        a = _activate(net._activation_for(i), a @ net.weights[i].T + net.biases[i])
    return a


def backward(
    net: DenseNet,
    tape: Tape,
    upstream: np.ndarray,
) -> list[np.ndarray]:
    """Chain-rule the loss gradient wrt the output back to parameters.

    Returns the grads in params() order, in the net's dtype; the gradient
    wrt the network input is not formed.  Gradients sum over the batch
    dimension; callers scale the upstream gradient for mean losses.
    """
    if tape.version != net.version:
        raise StaleTapeError(
            f"tape recorded at parameter version {tape.version}, net is at {net.version}"
        )
    up = np.asarray(upstream, dtype=net.dtype)
    if up.shape != tape.output.shape:
        raise ValueError(f"upstream gradient shape {up.shape} != output shape {tape.output.shape}")

    grads: list[np.ndarray] = [None] * (2 * net.n_layers)
    out_act = net._activation_for(net.n_layers - 1)
    # an identity output's derivative is 1: the upstream gradient is the delta
    delta = up if out_act == "identity" else up * _activation_grad(out_act, tape.acts[-1])
    for i in range(net.n_layers - 1, -1, -1):
        grads[2 * i] = delta.T @ tape.inputs[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            dprev = delta @ net.weights[i]
            keep = tape.drop_masks[i - 1]
            if keep is not None:
                dprev = dprev * keep / (1.0 - net.dropout_rates[i - 1])
            delta = dprev * _activation_grad(net._activation_for(i - 1), tape.acts[i - 1])
    return grads


@dataclass
class OptimizerState:
    """SGD or Adam state; Adam moments mirror parameter shapes and dtypes."""

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
) -> None:
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
        return

    if state.m is None:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(state.m) != len(params) or any(m.shape != p.shape for m, p in zip(state.m, params)):
        raise ValueError("optimizer moment shapes do not match parameters")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps) with m, v updated first:
        # the same operations in the same order, in two scratch arrays
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        np.divide(m, c1, out=step)
        step *= state.lr
        den = np.divide(v, c2)
        np.sqrt(den, out=den)
        den += state.eps
        step /= den
        p -= step


def grad_check(net: DenseNet, x: np.ndarray, loss_fn, h: float = 1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    x is one input vector, run as a one-row batch; loss_fn maps the output
    vector to (scalar loss, dloss/doutput).  Runs in eval mode so the loss
    surface is deterministic.
    """
    if net.n_params() >= 100_000:
        raise ValueError(f"net has {net.n_params()} parameters; grad_check is for < 1e5")
    x = np.reshape(x, (1, -1))
    out, tape = forward(net, x, mode="eval")
    _, upstream = loss_fn(out[0])
    analytic = backward(net, tape, np.reshape(upstream, out.shape))

    worst = 0.0
    for p, g in zip(net.params(), analytic):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lo_plus, _ = loss_fn(forward(net, x, mode="eval")[0][0])
            flat[j] = orig - h
            lo_minus, _ = loss_fn(forward(net, x, mode="eval")[0][0])
            flat[j] = orig
            numeric = (lo_plus - lo_minus) / (2.0 * h)
            err = abs(gflat[j] - numeric) / max(1e-8, abs(gflat[j]) + abs(numeric))
            worst = max(worst, err)
    return worst


def save_checkpoint(net: DenseNet, path, role: int = 0) -> None:
    """Binary dump: magic, format version, role byte, dtype byte (the
    parameters' item size), dims, activation tags, float64 dropout rates,
    then the row-major weight/bias arrays in the net's dtype, little-endian.
    Bit-exact."""
    code = net.dtype.itemsize
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    buf += struct.pack("<B", role)
    buf += struct.pack("<B", code)
    buf += struct.pack("<I", len(net.layer_dims))
    for d in net.layer_dims:
        buf += struct.pack("<I", d)
    for i in range(net.n_layers):
        buf += struct.pack("<B", ACT_CODES[net._activation_for(i)])
    for r in net.dropout_rates:
        buf += struct.pack("<d", r)
    for p in net.params():
        buf += np.ascontiguousarray(p, dtype=f"<f{code}").tobytes()
    with open(path, "wb") as f:
        f.write(bytes(buf))


def load_checkpoint(path) -> tuple[DenseNet, int]:
    """Inverse of save_checkpoint; returns (net, role byte).  The net has the
    dtype the file records; a version 1 file, which has no dtype byte, holds
    float64."""
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
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint format version {version}")
    (role,) = struct.unpack("<B", take(1, "role"))
    code = 8
    if version > 1:
        (code,) = struct.unpack("<B", take(1, "dtype"))
        if code not in ITEMSIZE_DTYPES:
            raise ValueError(f"unknown dtype code {code}")
    dtype = ITEMSIZE_DTYPES[code]
    (n_dims,) = struct.unpack("<I", take(4, "dim count"))
    if n_dims < 2:
        raise ValueError(f"checkpoint has {n_dims} layer dims; a net has 2 or more")
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
    # the header's dims are checked against the file before the net is built,
    # so a short file cannot make it allocate what the dims promise
    payload = code * sum(dims[i + 1] * (dims[i] + 1) for i in range(n_layers))
    if len(raw) - off < payload:
        raise ValueError(f"truncated checkpoint: its dims take {payload} parameter "
                         f"bytes, {len(raw) - off} follow")
    net = DenseNet(dims, hidden_activation=hidden_act, output_activation=output_act,
                   dropout_rates=rates, dtype=dtype)
    for i in range(n_layers):
        wsize = dims[i + 1] * dims[i]
        w = np.frombuffer(take(code * wsize, f"layer {i} weights"), dtype=f"<f{code}")
        b = np.frombuffer(take(code * dims[i + 1], f"layer {i} bias"), dtype=f"<f{code}")
        net.weights[i] = w.reshape(dims[i + 1], dims[i]).astype(dtype)
        net.biases[i] = b.astype(dtype)
    if off != len(raw):
        raise ValueError(f"checkpoint has {len(raw) - off} trailing bytes")
    return net, role
