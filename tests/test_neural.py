"""Hand-rolled layers, backprop through time, and the Adam optimizer."""

import math

import numpy as np
import pytest

from beamtrack.neural import (
    AdamState,
    FcParams,
    LstmParams,
    _lstm_cell,
    adam_update,
    fc_apply,
    forward_stack,
    grads_as_dict,
    init_adam,
    init_fc,
    init_lstm,
    layer_param_dict,
    loss_and_gradients,
    pack_params,
)


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_fc_apply_hand_case():
    layer = FcParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
    np.testing.assert_allclose(fc_apply(layer, np.array([1.0, 1.0])), [4.0, 6.0])
    layer_t = FcParams(layer.weights, layer.bias, "tanh")
    np.testing.assert_allclose(
        fc_apply(layer_t, np.array([1.0, 1.0])), np.tanh([4.0, 6.0])
    )


def test_fc_validation():
    with pytest.raises(ValueError):
        FcParams(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        FcParams(np.zeros((2, 3)), np.zeros(2), activation="softplus")


def test_lstm_step_scalar_hand_case():
    # hidden = in = 1, every weight pinned; recompute each gate with plain
    # math.exp so the vector route is checked against scalar arithmetic.
    # Gate rows are i, f, o, g.
    p = LstmParams(W_x=[[0.5]] * 4, W_h=[[0.2]] * 4, b=[0.1, 1.0, -0.2, 0.3])
    x, h_prev, c_prev = np.array([1.0]), np.array([0.5]), np.array([-0.3])
    _, c, _, h = _lstm_cell(p, x, h_prev, c_prev)
    i = _sigmoid(0.5 + 0.1 + 0.1)
    f = _sigmoid(0.5 + 0.1 + 1.0)
    o = _sigmoid(0.5 + 0.1 - 0.2)
    g = math.tanh(0.5 + 0.1 + 0.3)
    c_ref = f * (-0.3) + i * g
    np.testing.assert_allclose(c, [c_ref], rtol=1e-14)
    np.testing.assert_allclose(h, [o * math.tanh(c_ref)], rtol=1e-14)


def test_lstm_step_batch_matches_loop(rng):
    p = init_lstm(rng, 6, 4)
    xs = rng.normal(size=(5, 4))
    h0 = rng.normal(size=(5, 6))
    c0 = rng.normal(size=(5, 6))
    _, c_b, _, h_b = _lstm_cell(p, xs, h0, c0)
    for k in range(5):
        _, c1, _, h1 = _lstm_cell(p, xs[k], h0[k], c0[k])
        np.testing.assert_allclose(h_b[k], h1, atol=1e-14)
        np.testing.assert_allclose(c_b[k], c1, atol=1e-14)


def test_lstm_cell_zero_initial_state_equals_explicit_zeros(rng):
    # None for h_prev and c_prev skips the W_h product and f * c_prev, which
    # only add exact zeros: gates, c, tanh(c) and h keep every bit.
    p = init_lstm(rng, 6, 4)
    xs = rng.normal(size=(5, 4))
    zeros = np.zeros((5, 6))
    explicit = _lstm_cell(p, xs, zeros, zeros)
    implicit = _lstm_cell(p, xs, None, None)
    for name, a, b in zip(("gates", "c", "tanh_c", "h"), explicit, implicit):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_init_lstm_forget_bias_and_bounds(rng):
    p = init_lstm(rng, 8, 3)
    assert p.W_x.shape == (32, 3) and p.W_h.shape == (32, 8) and p.b.shape == (32,)
    np.testing.assert_array_equal(p.b[8:16], np.ones(8))  # forget gate
    np.testing.assert_array_equal(p.b[:8], np.zeros(8))
    np.testing.assert_array_equal(p.b[16:], np.zeros(16))
    assert np.all(np.abs(p.W_x) <= 1 / np.sqrt(3))
    assert np.all(np.abs(p.W_h) <= 1 / np.sqrt(8))
    assert p.hidden_size == 8 and p.input_size == 3


def test_init_lstm_draws_gate_blocks_in_order():
    # Input block then recurrent block, gate by gate (i, f, o, g): the draw
    # order that keeps seeded models' weights what they have always been.
    p = init_lstm(np.random.default_rng(5), 4, 3)
    rng = np.random.default_rng(5)
    for q in range(4):
        rows = slice(4 * q, 4 * (q + 1))
        np.testing.assert_array_equal(p.W_x[rows], rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), (4, 3)))
        np.testing.assert_array_equal(p.W_h[rows], rng.uniform(-0.5, 0.5, (4, 4)))


def test_lstm_params_shape_validation():
    with pytest.raises(ValueError, match="4 \\* hidden"):
        LstmParams(np.zeros((6, 2)), np.zeros((6, 6)), np.zeros(6))
    with pytest.raises(ValueError, match="W_h"):
        LstmParams(np.zeros((8, 2)), np.zeros((8, 8)), np.zeros(8))
    with pytest.raises(ValueError, match="b must"):
        LstmParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(2))


def test_init_fc_bounds(rng):
    p = init_fc(rng, 5, 9, "tanh")
    assert np.all(np.abs(p.weights) <= 1 / 3.0)
    np.testing.assert_array_equal(p.bias, np.zeros(5))


def test_forward_stack_promotes_single_window(rng):
    layers = [init_fc(rng, 5, 3, "tanh"), init_lstm(rng, 4, 5), init_fc(rng, 1, 4)]
    xs = rng.normal(size=(6, 3))
    single = forward_stack(layers, xs)
    batched = forward_stack(layers, xs[None])
    assert single.shape == (1,)
    np.testing.assert_array_equal(batched[0], single)


@pytest.mark.parametrize("batch", [1, 9, 1000])
def test_forward_stack_matches_training_pass_bit_for_bit(batch):
    # Inference must compute the very same numbers as the forward pass that
    # loss_and_gradients runs for training.
    rng = np.random.default_rng(batch)
    layers = [
        init_fc(rng, 6, 3, "tanh"),
        init_lstm(rng, 5, 6),
        init_lstm(rng, 4, 5),
        init_fc(rng, 7, 4, "relu"),
        init_fc(rng, 2, 7),
    ]
    xs = rng.normal(size=(batch, 4, 3))
    _, _, trained = loss_and_gradients(layers, xs, np.zeros((batch, 2)))
    assert np.array_equal(forward_stack(layers, xs), trained)
    if batch == 1:
        _, _, single = loss_and_gradients(layers, xs[0], np.zeros(2))
        assert np.array_equal(forward_stack(layers, xs[0]), single)


def test_forward_stack_without_lstm_rejects_sequences(rng):
    # A stack needs an LSTM layer, whatever the window length.
    layers = [init_fc(rng, 2, 3)]
    for steps in (4, 1):
        xs = rng.normal(size=(steps, 3))
        with pytest.raises(ValueError, match="LSTM"):
            forward_stack(layers, xs)
        with pytest.raises(ValueError, match="LSTM"):
            loss_and_gradients(layers, xs, np.zeros(2))


def test_lstm_stack_must_be_contiguous(rng):
    layers = [init_lstm(rng, 3, 2), init_fc(rng, 3, 3), init_lstm(rng, 3, 3)]
    with pytest.raises(ValueError):
        forward_stack(layers, rng.normal(size=(2, 2)))


def test_bptt_matches_finite_differences():
    rng = np.random.default_rng(21)
    layers = [
        init_fc(rng, 4, 3, "tanh"),
        init_lstm(rng, 5, 4),
        init_fc(rng, 2, 5, "tanh"),
        init_fc(rng, 1, 2),
    ]
    xs = rng.normal(size=(4, 3))
    target = rng.normal(size=1)
    grads = grads_as_dict(layers, loss_and_gradients(layers, xs, target)[1])
    params = layer_param_dict(layers)

    def loss():
        out = forward_stack(layers, xs)
        return float(np.sum((out - target) ** 2))

    h = 1e-6
    for name, arr in params.items():
        g = grads[name]
        assert g.shape == arr.shape
        fd = np.empty_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + h
            up = loss()
            arr[ix] = keep - h
            down = loss()
            arr[ix] = keep
            fd[ix] = (up - down) / (2 * h)
            it.iternext()
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(g - fd)) / scale < 1e-5, name


def test_bptt_batch_is_sum_of_windows(rng):
    layers = [init_lstm(rng, 3, 2), init_fc(rng, 1, 3)]
    xs = rng.normal(size=(3, 5, 2))
    tgt = rng.normal(size=(3, 1))
    batched = grads_as_dict(layers, loss_and_gradients(layers, xs, tgt)[1])
    summed = {name: np.zeros_like(arr) for name, arr in batched.items()}
    for b in range(3):
        per = grads_as_dict(layers, loss_and_gradients(layers, xs[b], tgt[b])[1])
        for name in summed:
            summed[name] += per[name]
    for name in batched:
        np.testing.assert_allclose(batched[name], summed[name], atol=1e-12)


def test_pack_params_rebinds_every_field_to_a_view_of_one_buffer(rng):
    layers = [init_fc(rng, 5, 3, "tanh"), init_lstm(rng, 4, 5), init_fc(rng, 1, 4)]
    before = {name: arr.copy() for name, arr in layer_param_dict(layers).items()}
    flat = pack_params(layers)
    after = layer_param_dict(layers)
    assert flat.dtype == np.float64 and flat.size == sum(a.size for a in before.values())
    np.testing.assert_array_equal(flat, np.concatenate(list(before.values()), axis=None))
    at = 0
    for name, arr in after.items():
        assert arr.shape == before[name].shape and arr.flags.c_contiguous, name
        assert np.shares_memory(arr, flat[at : at + arr.size]), name
        np.testing.assert_array_equal(arr, before[name])
        at += arr.size
    flat[:] = 0.0  # the fields are live views
    assert all(not arr.any() for arr in layer_param_dict(layers).values())


def test_adam_two_step_hand_recursion():
    params = np.array([1.0])
    state = init_adam(params)
    lr = 0.1
    m = v = 0.0
    w = 1.0
    for t, g in enumerate([0.5, -0.25], start=1):
        adam_update(params, np.array([g]), state, lr)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g**2
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        w -= lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params[0] == pytest.approx(w, rel=1e-14)
    assert state.step_count == 2


def test_adam_zero_gradient_is_noop():
    params = np.array([2.0, -3.0])
    state = init_adam(params)
    adam_update(params, np.zeros(2), state, 0.5)
    np.testing.assert_array_equal(params, [2.0, -3.0])


def test_loss_target_shape_validation(rng):
    layers = [init_lstm(rng, 3, 2), init_fc(rng, 1, 3)]
    with pytest.raises(ValueError):
        loss_and_gradients(layers, rng.normal(size=(2, 4, 2)), rng.normal(size=(3, 1)))
