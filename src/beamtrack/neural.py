"""Minimal dense/recurrent building blocks in numpy.

Provides fully connected layers, a standard LSTM cell with its four gate
blocks stacked in the order i, f, o, g,

    z = W_x x + W_h h_prev + b              (4H rows: z_i, z_f, z_o, z_g)
    i, f, o = sigmoid(z_i, z_f, z_o)        g = tanh(z_g)
    c = f * c_prev + i * g                  h = o * tanh(c)

exact backpropagation-through-time gradients of a squared-error loss for a
[per-step FC layers] -> [stacked LSTM] -> [head FC layers] regression stack,
and a bias-corrected Adam optimizer. Everything is float64 on purpose: the
gradients are validated against central finite differences, which needs the
headroom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "FcParams",
    "LstmParams",
    "AdamState",
    "fc_apply",
    "lstm_step",
    "init_fc",
    "init_lstm",
    "forward_stack",
    "loss_and_gradients",
    "layer_param_dict",
    "grads_as_dict",
    "init_adam",
    "adam_update",
]

_ACTIVATIONS = ("identity", "tanh", "relu")


@dataclass
class FcParams:
    """Dense layer y = activation(weights @ x + bias), weights shaped (out, in)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError("bias length must match the output dimension")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_size(self) -> int:
        return self.weights.shape[1]

    @property
    def output_size(self) -> int:
        return self.weights.shape[0]


@dataclass
class LstmParams:
    """One LSTM layer, gate blocks stacked in the order i, f, o, g.

    W_x is (4H, in), W_h is (4H, H) and b is (4H,); rows q*H:(q+1)*H belong
    to gate q.
    """

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in _LSTM_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        rows = self.W_x.shape[0] if self.W_x.ndim == 2 else 0
        if rows == 0 or rows % 4:
            raise ValueError("W_x must be 2-D with 4 * hidden rows")
        h = rows // 4
        if self.W_h.shape != (rows, h):
            raise ValueError(f"W_h must have shape ({rows}, {h})")
        if self.b.shape != (rows,):
            raise ValueError(f"b must have shape ({rows},)")

    @property
    def hidden_size(self) -> int:
        return self.W_x.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.W_x.shape[1]


_LSTM_FIELDS = ("W_x", "W_h", "b")


def _activate(z: np.ndarray, name: str) -> np.ndarray:
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activation_grad_from_output(out: np.ndarray, name: str) -> np.ndarray:
    if name == "identity":
        return np.ones_like(out)
    if name == "tanh":
        return 1.0 - out**2
    return (out > 0).astype(np.float64)


def _per_row(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """x @ weights.T for x of shape (..., d), as one one-row product per row.

    A plain (B, d) @ (d, n) product lets BLAS pick its kernel by the row
    count B, so a row's result depends on how many windows share the call.
    A stack of (1, d) products runs the same kernel for every row: a B-window
    call then equals B one-window calls bit for bit (batch invariance).
    """
    return (x[..., None, :] @ weights.T)[..., 0, :]


def fc_apply(params: FcParams, x: np.ndarray) -> np.ndarray:
    """Apply the dense layer to a (d,) vector, (B, d) rows or (B, T, d) windows.

    Every product is computed per window, never with windows folded into GEMM
    rows: (B, d) inputs row by row, (B, T, d) inputs as one (T, d) product
    per window.
    """
    z = x @ params.weights.T if x.ndim == 3 else _per_row(x, params.weights)
    return _activate(z + params.bias, params.activation)


def _lstm_cell(params: LstmParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One LSTM recursion: (gates, c, tanh(c), h), gates = [i, f, o, g] along the last axis.

    Rows of x, h_prev and c_prev are windows; the input and recurrent terms
    are per-row products, so a batched step equals per-window steps bit for
    bit.
    """
    hs = params.hidden_size
    gates = _per_row(x, params.W_x)
    gates += _per_row(h_prev, params.W_h)
    gates += params.b
    expit(gates[..., : 3 * hs], out=gates[..., : 3 * hs])
    np.tanh(gates[..., 3 * hs :], out=gates[..., 3 * hs :])
    i, f, o, g = (gates[..., q * hs : (q + 1) * hs] for q in range(4))
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, o * tanh_c


def lstm_step(
    params: LstmParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM recursion; returns (h, c). Accepts single vectors or batches."""
    _, c, _, h = _lstm_cell(params, x, h_prev, c_prev)
    return h, c


def init_fc(
    rng: np.random.Generator, n_out: int, n_in: int, activation: str = "identity"
) -> FcParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero bias."""
    bound = 1.0 / np.sqrt(n_in)
    return FcParams(rng.uniform(-bound, bound, size=(n_out, n_in)), np.zeros(n_out), activation)


def init_lstm(rng: np.random.Generator, hidden: int, n_in: int) -> LstmParams:
    """Uniform fan-in init; biases zero except the forget bias at +1.

    Each gate draws its input block, then its recurrent block, gate by gate,
    so the weights equal those of a layer stored gate by gate.
    """
    def w(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    blocks = [(w(hidden, n_in), w(hidden, hidden)) for _ in range(4)]
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0
    return LstmParams(
        W_x=np.concatenate([wx for wx, _ in blocks]),
        W_h=np.concatenate([wh for _, wh in blocks]),
        b=bias,
    )


def _split_stack(layers):
    """Partition into (per-step FCs, contiguous LSTMs, head FCs)."""
    lstm_idx = [k for k, lyr in enumerate(layers) if isinstance(lyr, LstmParams)]
    if not lstm_idx:
        return [], [], list(layers)
    lo, hi = lstm_idx[0], lstm_idx[-1]
    if lstm_idx != list(range(lo, hi + 1)):
        raise ValueError("LSTM layers must be contiguous in the stack")
    return list(layers[:lo]), list(layers[lo : hi + 1]), list(layers[hi + 1 :])


def _promote(xs: np.ndarray) -> tuple[np.ndarray, bool]:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 2:
        return xs[None], True
    if xs.ndim != 3:
        raise ValueError("inputs must be (steps, dim) or (batch, steps, dim)")
    return xs, False


class _Trace:
    """Forward-pass cache consumed by the backward sweep."""

    __slots__ = ("pre", "lstm", "post", "output")

    def __init__(self):
        self.pre = []  # per FC layer: (input, output), shapes (B, T, d)
        self.lstm = []  # per LSTM layer: dict of (B, T, 4H) gates, (B, T, H) states + input
        self.post = []  # per FC layer: (input, output), shapes (B, d)
        self.output = None


def _forward(layers, xs: np.ndarray) -> tuple[np.ndarray, _Trace]:
    """Training forward pass: the output plus every activation BPTT reads."""
    pre, lstms, post = _split_stack(layers)
    trace = _Trace()
    cur = xs  # (B, T, d)
    for lyr in pre:
        out = fc_apply(lyr, cur)
        trace.pre.append((cur, out))
        cur = out

    if lstms:
        for lyr in lstms:
            batch, steps, _ = cur.shape
            hsize = lyr.hidden_size
            hist = {name: np.empty((batch, steps, hsize)) for name in ("c", "tanh_c", "h")}
            hist["gates"] = np.empty((batch, steps, 4 * hsize))
            h = np.zeros((batch, hsize))
            c = np.zeros((batch, hsize))
            for t in range(steps):
                gates, c, tc, h = _lstm_cell(lyr, cur[:, t], h, c)
                for name, val in zip(("gates", "c", "tanh_c", "h"), (gates, c, tc, h)):
                    hist[name][:, t] = val
            hist["input"] = cur
            trace.lstm.append(hist)
            cur = hist["h"]
        head_in = cur[:, -1]  # final hidden state
    else:
        if cur.shape[1] != 1:
            raise ValueError("a stack without an LSTM only accepts single-step inputs")
        head_in = cur[:, 0]

    for lyr in post:
        out = fc_apply(lyr, head_in)
        trace.post.append((head_in, out))
        head_in = out
    trace.output = head_in
    return head_in, trace


def forward_stack(layers, xs: np.ndarray) -> np.ndarray:
    """Run the stack on an input window; returns the head output.

    xs is (steps, dim) for one window or (batch, steps, dim) for a batch.
    FC layers before the LSTM block are applied at every step, the LSTM block
    consumes the sequence, and FC layers after it map the final hidden state.
    Inference keeps no gate or hidden-state history; it runs the same cell as
    the training pass in `_forward`, so outputs match bit for bit.
    """
    xs3, squeeze = _promote(xs)
    pre, lstms, post = _split_stack(layers)
    cur = xs3
    for lyr in pre:
        cur = fc_apply(lyr, cur)
    if lstms:
        # Step through time outermost, so no layer's hidden sequence is stored.
        states = [(np.zeros((cur.shape[0], lyr.hidden_size)),) * 2 for lyr in lstms]
        for t in range(cur.shape[1]):
            out = cur[:, t]
            for k, lyr in enumerate(lstms):
                out, c = lstm_step(lyr, out, *states[k])
                states[k] = (out, c)
    else:
        if cur.shape[1] != 1:
            raise ValueError("a stack without an LSTM only accepts single-step inputs")
        out = cur[:, 0]
    for lyr in post:
        out = fc_apply(lyr, out)
    return out[0] if squeeze else out


def loss_and_gradients(layers, xs: np.ndarray, target: np.ndarray):
    """Squared-error loss sum((out - target)^2) and its parameter gradients.

    Returns (loss, grads, output) where grads is a list of dicts parallel to
    `layers`, keyed by parameter field name. The loss sums over output
    dimensions and over the batch when one is present.
    """
    xs3, squeeze = _promote(xs)
    target = np.asarray(target, dtype=np.float64)
    tgt = target[None] if squeeze else target
    if tgt.ndim != 2 or tgt.shape[0] != xs3.shape[0]:
        raise ValueError("target batch shape must match the input batch")

    out, trace = _forward(layers, xs3)
    diff = out - tgt
    loss = float(np.sum(diff**2))

    pre, lstms, post = _split_stack(layers)
    grads_pre = [None] * len(pre)
    grads_lstm = [None] * len(lstms)
    grads_post = [None] * len(post)

    # Head FC chain, last layer first.
    d_cur = 2.0 * diff  # (B, d_out)
    for k in range(len(post) - 1, -1, -1):
        lyr = post[k]
        x_in, out_k = trace.post[k]
        dz = d_cur * _activation_grad_from_output(out_k, lyr.activation)
        grads_post[k] = {"weights": dz.T @ x_in, "bias": dz.sum(axis=0)}
        d_cur = dz @ lyr.weights

    if lstms:
        batch, steps, _ = xs3.shape
        # Gradient arriving at each step of the top LSTM's hidden sequence:
        # only the final step feeds the head.
        d_hidden_seq = np.zeros((batch, steps, lstms[-1].hidden_size))
        d_hidden_seq[:, -1] = d_cur
        for k in range(len(lstms) - 1, -1, -1):
            lyr = lstms[k]
            tr = trace.lstm[k]
            x_seq = tr["input"]
            hs = lyr.hidden_size
            g = {name: np.zeros_like(getattr(lyr, name)) for name in _LSTM_FIELDS}
            d_x_seq = np.empty_like(x_seq)
            dh_next = np.zeros((batch, hs))
            dc_next = np.zeros((batch, hs))
            for t in range(steps - 1, -1, -1):
                gates, tc = tr["gates"][:, t], tr["tanh_c"][:, t]
                i, f, o, gg = (gates[:, q * hs : (q + 1) * hs] for q in range(4))
                c_prev = tr["c"][:, t - 1] if t > 0 else np.zeros_like(tc)
                h_prev = tr["h"][:, t - 1] if t > 0 else np.zeros_like(tc)

                dh = d_hidden_seq[:, t] + dh_next
                dc = dc_next + dh * o * (1.0 - tc**2)
                # d loss / d z, in the gate order i, f, o, g.
                dz = np.concatenate([dc * gg, dc * c_prev, dh * tc, dc * i], axis=1)
                sig = gates[:, : 3 * hs]
                dz[:, : 3 * hs] *= sig * (1.0 - sig)
                dz[:, 3 * hs :] *= 1.0 - gg**2

                g["W_x"] += dz.T @ x_seq[:, t]
                g["W_h"] += dz.T @ h_prev
                g["b"] += dz.sum(axis=0)
                d_x_seq[:, t] = dz @ lyr.W_x
                dh_next = dz @ lyr.W_h
                dc_next = dc * f
            grads_lstm[k] = g
            d_hidden_seq = d_x_seq
        d_step_seq = d_hidden_seq  # (B, T, d) flowing into the per-step FCs
    else:
        d_step_seq = d_cur[:, None, :]

    for k in range(len(pre) - 1, -1, -1):
        lyr = pre[k]
        x_in, out_k = trace.pre[k]
        dz = d_step_seq * _activation_grad_from_output(out_k, lyr.activation)
        flat_dz = dz.reshape(-1, dz.shape[-1])
        flat_in = x_in.reshape(-1, x_in.shape[-1])
        grads_pre[k] = {"weights": flat_dz.T @ flat_in, "bias": flat_dz.sum(axis=0)}
        d_step_seq = dz @ lyr.weights

    grads = grads_pre + grads_lstm + grads_post
    return loss, grads, (out[0] if squeeze else out)


def layer_param_dict(layers) -> dict[str, np.ndarray]:
    """Flat name -> array view of all stack parameters (live, not copies)."""
    out: dict[str, np.ndarray] = {}
    for k, lyr in enumerate(layers):
        if isinstance(lyr, FcParams):
            out[f"layer{k}.weights"] = lyr.weights
            out[f"layer{k}.bias"] = lyr.bias
        elif isinstance(lyr, LstmParams):
            for name in _LSTM_FIELDS:
                out[f"layer{k}.{name}"] = getattr(lyr, name)
        else:
            raise TypeError(f"unsupported layer type {type(lyr)!r}")
    return out


def grads_as_dict(layers, grads) -> dict[str, np.ndarray]:
    """Flatten a per-layer gradient list into the layer_param_dict key space."""
    out: dict[str, np.ndarray] = {}
    for k, (lyr, g) in enumerate(zip(layers, grads)):
        for name, arr in g.items():
            out[f"layer{k}.{name}"] = arr
    return out


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators for Adam."""

    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: dict[str, np.ndarray], **kwargs) -> AdamState:
    zeros = {name: np.zeros_like(arr) for name, arr in params.items()}
    zeros2 = {name: np.zeros_like(arr) for name, arr in params.items()}
    return AdamState(first_moment=zeros, second_moment=zeros2, **kwargs)


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam step, applied in place to the parameter arrays."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + state.epsilon)
