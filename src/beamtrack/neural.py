"""Minimal dense/recurrent building blocks in numpy.

Provides fully connected layers, a standard LSTM cell

    i = sigmoid(W_xi x + W_hi h + b_i)      f = sigmoid(W_xf x + W_hf h + b_f)
    o = sigmoid(W_xo x + W_ho h + b_o)      g = tanh(W_xc x + W_hc h + b_c)
    c = f * c_prev + i * g                  h = o * tanh(c)

exact backpropagation-through-time gradients of a squared-error loss for a
[per-step FC layers] -> [stacked LSTM] -> [head FC layers] regression stack,
and a bias-corrected Adam optimizer. Everything is float64 on purpose: the
gradients are validated against central finite differences, which needs the
headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "bptt_gradients",
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
    """One LSTM layer; W_x* are (hidden, in), W_h* are (hidden, hidden)."""

    W_xi: np.ndarray
    W_hi: np.ndarray
    W_xf: np.ndarray
    W_hf: np.ndarray
    W_xo: np.ndarray
    W_ho: np.ndarray
    W_xc: np.ndarray
    W_hc: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    def __post_init__(self):
        for name in _LSTM_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        h = self.W_xi.shape[0]
        d = self.W_xi.shape[1]
        for name in ("W_xi", "W_xf", "W_xo", "W_xc"):
            if getattr(self, name).shape != (h, d):
                raise ValueError(f"{name} must have shape ({h}, {d})")
        for name in ("W_hi", "W_hf", "W_ho", "W_hc"):
            if getattr(self, name).shape != (h, h):
                raise ValueError(f"{name} must have shape ({h}, {h})")
        for name in ("b_i", "b_f", "b_o", "b_c"):
            if getattr(self, name).shape != (h,):
                raise ValueError(f"{name} must have shape ({h},)")

    @property
    def hidden_size(self) -> int:
        return self.W_xi.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_xi.shape[1]


_LSTM_FIELDS = (
    "W_xi", "W_hi", "W_xf", "W_hf", "W_xo", "W_ho", "W_xc", "W_hc",
    "b_i", "b_f", "b_o", "b_c",
)


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


def fc_apply(params: FcParams, x: np.ndarray) -> np.ndarray:
    """Apply the dense layer; x may carry arbitrary leading batch axes."""
    return _activate(x @ params.weights.T + params.bias, params.activation)


def lstm_step(
    params: LstmParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM recursion; returns (h, c). Accepts single vectors or batches."""
    i = expit(x @ params.W_xi.T + h_prev @ params.W_hi.T + params.b_i)
    f = expit(x @ params.W_xf.T + h_prev @ params.W_hf.T + params.b_f)
    o = expit(x @ params.W_xo.T + h_prev @ params.W_ho.T + params.b_o)
    g = np.tanh(x @ params.W_xc.T + h_prev @ params.W_hc.T + params.b_c)
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def init_fc(
    rng: np.random.Generator, n_out: int, n_in: int, activation: str = "identity"
) -> FcParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero bias."""
    bound = 1.0 / np.sqrt(n_in)
    return FcParams(rng.uniform(-bound, bound, size=(n_out, n_in)), np.zeros(n_out), activation)


def init_lstm(rng: np.random.Generator, hidden: int, n_in: int) -> LstmParams:
    """Uniform fan-in init; biases zero except the forget bias at +1."""
    def w(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    return LstmParams(
        W_xi=w(hidden, n_in), W_hi=w(hidden, hidden),
        W_xf=w(hidden, n_in), W_hf=w(hidden, hidden),
        W_xo=w(hidden, n_in), W_ho=w(hidden, hidden),
        W_xc=w(hidden, n_in), W_hc=w(hidden, hidden),
        b_i=np.zeros(hidden), b_f=np.ones(hidden),
        b_o=np.zeros(hidden), b_c=np.zeros(hidden),
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
        self.lstm = []  # per LSTM layer: dict of (B, T, H) gate/state arrays + input
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
            gates = {
                name: np.empty((batch, steps, hsize))
                for name in ("i", "f", "o", "g", "c", "tanh_c", "h")
            }
            h = np.zeros((batch, hsize))
            c = np.zeros((batch, hsize))
            for t in range(steps):
                x_t = cur[:, t]
                i = expit(x_t @ lyr.W_xi.T + h @ lyr.W_hi.T + lyr.b_i)
                f = expit(x_t @ lyr.W_xf.T + h @ lyr.W_hf.T + lyr.b_f)
                o = expit(x_t @ lyr.W_xo.T + h @ lyr.W_ho.T + lyr.b_o)
                g = np.tanh(x_t @ lyr.W_xc.T + h @ lyr.W_hc.T + lyr.b_c)
                c = f * c + i * g
                tc = np.tanh(c)
                h = o * tc
                for name, val in zip(("i", "f", "o", "g", "c", "tanh_c", "h"), (i, f, o, g, c, tc, h)):
                    gates[name][:, t] = val
            gates["input"] = cur
            trace.lstm.append(gates)
            cur = gates["h"]
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
    Inference keeps no gate history: it runs `lstm_step`, which computes the
    same cell as the training pass in `_forward`, so outputs match bit for bit.
    """
    xs3, squeeze = _promote(xs)
    pre, lstms, post = _split_stack(layers)
    cur = xs3
    for lyr in pre:
        cur = fc_apply(lyr, cur)
    if lstms:
        for lyr in lstms:
            batch, steps, _ = cur.shape
            seq = np.empty((batch, steps, lyr.hidden_size))
            h = np.zeros((batch, lyr.hidden_size))
            c = np.zeros((batch, lyr.hidden_size))
            for t in range(steps):
                h, c = lstm_step(lyr, cur[:, t], h, c)
                seq[:, t] = h
            cur = seq
        out = cur[:, -1]
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
            g = {name: np.zeros_like(getattr(lyr, name)) for name in _LSTM_FIELDS}
            d_x_seq = np.empty_like(x_seq)
            dh_next = np.zeros((batch, lyr.hidden_size))
            dc_next = np.zeros((batch, lyr.hidden_size))
            for t in range(steps - 1, -1, -1):
                i, f, o = tr["i"][:, t], tr["f"][:, t], tr["o"][:, t]
                gg, tc = tr["g"][:, t], tr["tanh_c"][:, t]
                c_prev = tr["c"][:, t - 1] if t > 0 else np.zeros_like(tc)
                h_prev = tr["h"][:, t - 1] if t > 0 else np.zeros_like(tc)
                x_t = x_seq[:, t]

                dh = d_hidden_seq[:, t] + dh_next
                dc = dc_next + dh * o * (1.0 - tc**2)
                do = dh * tc
                di = dc * gg
                dg = dc * i
                df = dc * c_prev

                dzi = di * i * (1.0 - i)
                dzf = df * f * (1.0 - f)
                dzo = do * o * (1.0 - o)
                dzg = dg * (1.0 - gg**2)

                g["W_xi"] += dzi.T @ x_t
                g["W_hi"] += dzi.T @ h_prev
                g["b_i"] += dzi.sum(axis=0)
                g["W_xf"] += dzf.T @ x_t
                g["W_hf"] += dzf.T @ h_prev
                g["b_f"] += dzf.sum(axis=0)
                g["W_xo"] += dzo.T @ x_t
                g["W_ho"] += dzo.T @ h_prev
                g["b_o"] += dzo.sum(axis=0)
                g["W_xc"] += dzg.T @ x_t
                g["W_hc"] += dzg.T @ h_prev
                g["b_c"] += dzg.sum(axis=0)

                d_x_seq[:, t] = dzi @ lyr.W_xi + dzf @ lyr.W_xf + dzo @ lyr.W_xo + dzg @ lyr.W_xc
                dh_next = dzi @ lyr.W_hi + dzf @ lyr.W_hf + dzo @ lyr.W_ho + dzg @ lyr.W_hc
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


def bptt_gradients(layers, xs: np.ndarray, target: np.ndarray):
    """Gradients of sum((stack(xs) - target)^2) for every parameter in the stack."""
    _, grads, _ = loss_and_gradients(layers, xs, target)
    return grads


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
