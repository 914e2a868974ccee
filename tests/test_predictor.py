"""Learned angle predictor: windows, datasets, training, checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest

from beamtrack import neural, predictor
from beamtrack.predictor import (
    CheckpointError,
    Dataset,
    DatasetConfig,
    InputWindow,
    NoiseTable,
    NormStats,
    PredictorModel,
    TrainConfig,
    build_model,
    generate_dataset,
    load_checkpoint,
    predict,
    save_checkpoint,
    scale_sensor_block,
    train,
)


REFERENCE_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "reference.ckpt"


def _table():
    return NoiseTable(snr_db=[0.0, 10.0, 20.0], estimate_std=[0.05, 0.01, 0.002])


def test_scale_sensor_block_hand_case():
    block = np.array([[2.0, 4.0, 8.0, 16.0]])
    out = scale_sensor_block(block, 0.5)
    np.testing.assert_allclose(out, [[1.0, 2.0, 2.0, 4.0]])
    np.testing.assert_array_equal(block, [[2.0, 4.0, 8.0, 16.0]])  # input untouched
    with pytest.raises(ValueError):
        scale_sensor_block(np.zeros((2, 3)), 0.5)


def test_window_matrix_layout():
    window = InputWindow(
        past_estimates=[[0.1], [0.2], [0.3]],
        sensor_blocks=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
    )
    mat = predictor._feature_matrix(window.past_estimates, window.sensor_blocks)
    np.testing.assert_allclose(mat, [[0.1, 1.0, 2.0], [0.2, 3.0, 4.0], [0.3, 5.0, 6.0]])
    assert window.delta == 3 and window.state_dim == 1
    stacked = predictor._feature_matrix(
        np.stack([window.past_estimates, -window.past_estimates]),
        np.stack([window.sensor_blocks, window.sensor_blocks]),
    )
    np.testing.assert_array_equal(stacked[0], mat)
    np.testing.assert_array_equal(stacked[1, :, 0], [-0.1, -0.2, -0.3])


def test_input_window_validation():
    with pytest.raises(ValueError):
        InputWindow(past_estimates=[[0.1], [0.2]], sensor_blocks=[[1.0]])
    with pytest.raises(ValueError):
        InputWindow(past_estimates=np.zeros((0, 1)), sensor_blocks=np.zeros((0, 2)))


def test_noise_table_interp_and_clamp():
    table = _table()
    assert table.lookup(10.0) == 0.01
    assert table.lookup(5.0) == pytest.approx(0.03)
    assert table.lookup(-40.0) == 0.05  # clamps at the grid edges
    assert table.lookup(99.0) == 0.002
    round_trip = NoiseTable.from_json(table.to_json())
    np.testing.assert_array_equal(round_trip.snr_db, table.snr_db)
    np.testing.assert_array_equal(round_trip.estimate_std, table.estimate_std)
    with pytest.raises(ValueError):
        NoiseTable(snr_db=[0.0, 0.0], estimate_std=[1.0, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01])
def test_noise_table_rejects_a_non_finite_or_negative_std(bad):
    with pytest.raises(ValueError, match="estimate_std"):
        NoiseTable(snr_db=[9.0, 12.0], estimate_std=[0.01, bad])
    with pytest.raises(ValueError, match="estimate_std"):
        NoiseTable.from_json(json.dumps({"snr_db": [9.0, 12.0], "estimate_std": [0.01, bad]}))


def test_norm_stats_validation():
    with pytest.raises(ValueError):
        NormStats(np.zeros(2), np.array([1.0, 0.0]), np.zeros(1), np.ones(1))


def test_build_model_shapes(rng):
    model = build_model(rng, delta=3, k_samples=4, lstm_hidden=32)
    assert model.input_dim == 9
    assert model.input_fc.weights.shape == (16, 9)
    assert model.lstms[0].hidden_size == 32
    assert model.output_fcs[0].weights.shape == (32, 32)
    assert model.output_fcs[1].weights.shape == (1, 32)
    assert model.output_fcs[1].activation == "identity"
    assert model.state_dim == 1


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 0, "epochs must be >= 1, got 0"),
    ("minibatch", 0, "minibatch must be >= 1, got 0"),
    ("initial_lr", 0.0, "initial_lr must be positive and finite, got 0.0"),
    ("initial_lr", -1.0, "initial_lr must be positive and finite, got -1.0"),
    ("initial_lr", float("nan"), "initial_lr must be positive and finite, got nan"),
    ("initial_lr", float("inf"), "initial_lr must be positive and finite, got inf"),
])
def test_train_config_refuses_sizes_and_rates_that_cannot_train(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["num_windows", "num_paths"])
def test_dataset_config_refuses_an_empty_dataset(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        DatasetConfig(**{field: 0})


@pytest.mark.parametrize("field", ["lstm_hidden", "lstm_layers"])
def test_build_model_refuses_an_empty_lstm(rng, field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        build_model(rng, **{field: 0})


def test_dataset_generation_invariants():
    cfg = DatasetConfig(
        num_windows=600,
        cycles_per_episode=40,
        t_csi_choices=(40, 80),
        a_avg_range=(0.1 * np.pi, 0.4 * np.pi),
    )
    ds = generate_dataset(cfg, _table(), np.random.default_rng(4))
    assert len(ds) == 600
    assert ds.inputs.shape == (600, 3, 9)
    assert ds.last_estimates.shape == (600, 1)
    assert ds.targets.shape == (600, 1)
    # Last estimate equals the newest estimate channel of the window.
    np.testing.assert_array_equal(ds.last_estimates[:, 0], ds.inputs[:, -1, 0])
    assert np.all(np.abs(ds.targets) <= 1.0)
    assert ds.meta["j_channels"] == 2


def test_dataset_velocity_explains_increment():
    # Scaled velocity samples carry most of the one-cycle angle change, which
    # is the signal the predictor trains on.
    cfg = DatasetConfig(num_windows=4000, cycles_per_episode=60, snr_range_db=(14.0, 15.0))
    ds = generate_dataset(cfg, _table(), np.random.default_rng(11))
    inc = (ds.targets - ds.last_estimates)[:, 0]
    v_mean = ds.inputs[:, -1, 1:5].mean(axis=1)
    corr = np.corrcoef(v_mean, inc)[0, 1]
    assert corr > 0.85


def test_dataset_without_imu_zeroes_sensor_channels():
    cfg = DatasetConfig(num_windows=200, cycles_per_episode=30, include_imu=False)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(2))
    np.testing.assert_array_equal(ds.inputs[:, :, 1:], 0.0)
    assert ds.meta["include_imu"] is False


def test_dataset_save_load_round_trip(tmp_path):
    cfg = DatasetConfig(num_windows=50, cycles_per_episode=20)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(5))
    path = tmp_path / "train.npz"
    ds.save(path)
    back = Dataset.load(path)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.targets, ds.targets)
    assert back.meta == ds.meta


def test_training_is_deterministic(tmp_path):
    cfg = DatasetConfig(num_windows=400, cycles_per_episode=30)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(9))
    tc = TrainConfig(epochs=2, seed=3)
    runs = []
    for tag in ("a", "b"):
        model = build_model(np.random.default_rng(1))
        model, losses = train(model, ds, tc)
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(model, path)
        runs.append((losses, path.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def _per_tensor_train(model, ds, config):
    """The training loop before the flat buffer, kept as the oracle of
    `train`: gradients go through grads_as_dict, each tensor keeps its own
    AdamState and takes its own adam_update step."""
    raw, last, targets = ds.inputs, ds.last_estimates, ds.targets
    n = raw.shape[0]
    model.norm = predictor._fit_norm_stats(raw, targets - last)
    norm, layers = model.norm, model.layers
    x = (raw - norm.input_mean) / norm.input_std
    y = (targets - last - norm.target_mean) / norm.target_std
    params = neural.layer_param_dict(layers)
    adams = {name: neural.init_adam(arr) for name, arr in params.items()}
    shuffle = np.random.default_rng(config.seed)
    losses = []
    for epoch in range(1, config.epochs + 1):
        lr = config.initial_lr * config.decay_rate ** ((epoch - 1) // predictor._DECAY_EPOCHS)
        order = shuffle.permutation(n)
        total = 0.0
        for start in range(0, n, config.minibatch):
            idx = order[start : start + config.minibatch]
            loss, grads, _ = neural.loss_and_gradients(layers, x[idx], y[idx])
            flat = neural.grads_as_dict(layers, grads)
            for arr in flat.values():
                arr *= 1.0 / idx.size
            for name, arr in params.items():
                neural.adam_update(arr, flat[name], adams[name], lr)
            total += loss
        losses.append(total / n)
    idx = np.random.default_rng(config.seed).choice(n, size=min(n, 20_000), replace=False)
    pred = predictor._forward_raw_batch(model, raw[idx], last[idx])
    model.prediction_var = np.var(pred - targets[idx], axis=0)
    return model, losses


def test_train_equals_the_per_tensor_loop_bit_for_bit():
    # 5 epochs cross the learning-rate decay after epoch 3; 600 windows in
    # minibatches of 64 end each epoch on a partial batch of 24.
    ds = generate_dataset(
        DatasetConfig(num_windows=600, cycles_per_episode=40), _table(), np.random.default_rng(8)
    )
    schedule = TrainConfig(epochs=5, seed=2)
    flat, flat_losses = train(build_model(np.random.default_rng(5)), ds, schedule)
    oracle, oracle_losses = _per_tensor_train(build_model(np.random.default_rng(5)), ds, schedule)
    assert flat_losses == oracle_losses
    for name, arr in neural.layer_param_dict(oracle.layers).items():
        assert arr.tobytes() == neural.layer_param_dict(flat.layers)[name].tobytes(), name
    assert flat.prediction_var.tobytes() == oracle.prediction_var.tobytes()


def test_train_takes_one_flat_adam_step_per_minibatch(count_calls):
    # 300 windows in minibatches of 64 are 5 steps per epoch; each step hands
    # Adam one gradient array for the one parameter buffer.
    ds = generate_dataset(
        DatasetConfig(num_windows=300, cycles_per_episode=40), _table(), np.random.default_rng(8)
    )
    steps = count_calls(neural, "adam_update")
    as_dict = count_calls(neural, "grads_as_dict")
    model, _ = train(build_model(np.random.default_rng(5)), ds, TrainConfig(epochs=2))
    assert len(steps) == 10
    buffer = steps[0][0]
    for params, grads, *_ in steps:
        assert params is buffer
        assert grads.shape == buffer.shape
    fields = neural.layer_param_dict(model.layers).values()
    assert all(np.shares_memory(arr, buffer) for arr in fields)
    assert as_dict == []


def test_training_reduces_loss_and_sets_residual_var():
    cfg = DatasetConfig(num_windows=2000, cycles_per_episode=40)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(14))
    model = build_model(np.random.default_rng(0))
    model, losses = train(model, ds, TrainConfig(epochs=6, seed=0))
    assert losses[-1] < 0.75 * losses[0]
    assert model.prediction_var is not None and model.prediction_var.shape == (1,)
    assert 0.0 < model.prediction_var[0] < 0.01


def test_tiny_overfit():
    # A handful of windows should be memorized almost exactly.
    cfg = DatasetConfig(num_windows=8, cycles_per_episode=20)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(3))
    model = build_model(np.random.default_rng(7))
    schedule = TrainConfig(epochs=400, minibatch=8, decay_rate=1.0, seed=1)
    model, losses = train(model, ds, schedule)
    assert losses[-1] < 1e-4


def test_predict_window_checks(rng):
    model = build_model(rng)
    good = InputWindow(
        past_estimates=np.zeros((3, 1)), sensor_blocks=np.zeros((3, 8))
    )
    with pytest.raises(ValueError, match="normalization"):
        predict(model, good)
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    out = predict(model, good)
    assert out.shape == (1,)
    with pytest.raises(ValueError, match="cycles"):
        predict(model, InputWindow(np.zeros((2, 1)), np.zeros((2, 8))))
    with pytest.raises(ValueError, match="sensor"):
        predict(model, InputWindow(np.zeros((3, 1)), np.zeros((3, 6))))


def test_predict_accepts_stacked_windows(rng):
    model = build_model(rng)
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    past = np.stack([np.full((3, 1), v) for v in (0.1, 0.2)])
    sensors = np.stack([np.full((3, 8), v) for v in (0.1, 0.2)])
    out = predict(model, (past, sensors))
    assert out.shape == (2, 1)
    assert np.array_equal(out[1], predict(model, InputWindow(past[1], sensors[1])))
    assert predict(model, (past[:1], sensors[:1])).shape == (1, 1)
    bad = {
        "past holds 2 windows but sensors 1": (past, sensors[:1]),
        "3-D": (past[0], sensors[0]),
        "at least one window": (past[:0], sensors[:0]),
        "cover 2 and 2 cycles, model expects 3": (past[:, 1:], sensors[:, 1:]),
        "6 entries per cycle, not 8": (past, sensors[..., :6]),
    }
    for problem, windows in bad.items():
        with pytest.raises(ValueError, match=problem):
            predict(model, windows)


def _two_lstm_model():
    model = build_model(np.random.default_rng(5), lstm_layers=2)
    dim = model.input_dim
    model.norm = NormStats(np.zeros(dim), np.full(dim, 0.5), np.zeros(1), np.full(1, 0.01))
    return model


@pytest.mark.parametrize("which", ["reference", "two_lstm_layers"])
def test_batched_inference_equals_one_window_calls(which):
    # Batch invariance: a B-window call must reproduce B one-window calls bit
    # for bit, whatever B. Plain GEMM over window rows breaks this, because
    # BLAS picks its kernel by the row count.
    model = load_checkpoint(REFERENCE_CHECKPOINT) if which == "reference" else _two_lstm_model()
    rng = np.random.default_rng(17)
    for b in (1, 3, 9, 48, 600):
        est = rng.uniform(-1.0, 1.0, size=(b, model.delta, 1))
        blocks = rng.normal(0.0, 0.05, size=(b, model.delta, 8))
        xs = rng.normal(size=(b, model.delta, model.input_dim))
        one_by_one = np.stack([neural.forward_stack(model.layers, x) for x in xs])
        assert np.array_equal(neural.forward_stack(model.layers, xs), one_by_one), b
        one_by_one = np.stack([predict(model, InputWindow(e, s)) for e, s in zip(est, blocks)])
        assert np.array_equal(predict(model, (est, blocks)), one_by_one), b


@pytest.mark.parametrize("chunk", [predictor._PREDICTION_VAR_CHUNK, 7])
def test_prediction_var_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # Targets a hair off the model's own predictions make prediction_var hang
    # on the last bit of every prediction. The 2,500 probe windows split into
    # chunks (1024 + 1024 + 452, or 357 x 7 + 1); the reference is one pass
    # over all of them. With Adam's step made a no-op the weights stay as
    # built through the one epoch.
    assert 2_500 % chunk != 0
    cfg = DatasetConfig(num_windows=2_500, cycles_per_episode=40)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(21))
    model = build_model(np.random.default_rng(3))
    model.norm = NormStats(np.zeros(9), np.full(9, 0.5), np.zeros(1), np.ones(1))
    pred = predict(model, (ds.inputs[..., :1], ds.inputs[..., 1:]))
    ds.targets = pred + np.random.default_rng(4).normal(0.0, 1e-12, pred.shape)
    monkeypatch.setattr(neural, "adam_update", lambda *args: None)
    runs = []
    for size in (chunk, len(ds)):
        monkeypatch.setattr(predictor, "_PREDICTION_VAR_CHUNK", size)
        runs.append(train(model, ds, TrainConfig(epochs=1))[0].prediction_var)
    assert np.array_equal(runs[0], runs[1])


def test_predict_decodes_increment(rng):
    # With a zeroed head the standardized output is 0, so the prediction
    # falls back to last estimate + target mean.
    model = build_model(rng)
    model.norm = NormStats(np.zeros(9), np.ones(9), np.array([0.125]), np.ones(1))
    model.output_fcs[-1].weights[:] = 0.0
    model.output_fcs[-1].bias[:] = 0.0
    window = InputWindow(
        past_estimates=np.array([[0.1], [0.2], [0.4]]), sensor_blocks=np.ones((3, 8))
    )
    np.testing.assert_allclose(predict(model, window), [0.525], atol=1e-14)


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    cfg = DatasetConfig(num_windows=120, cycles_per_episode=20)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(8))
    model = build_model(np.random.default_rng(2))
    model, _ = train(model, ds, TrainConfig(epochs=1, seed=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.delta == model.delta
    for (name, a), b in zip(
        sorted({**_params(model)}.items()), (v for _, v in sorted(_params(back).items()))
    ):
        np.testing.assert_array_equal(a, b, err_msg=name)
    np.testing.assert_array_equal(back.prediction_var, model.prediction_var)
    np.testing.assert_array_equal(back.norm.input_mean, model.norm.input_mean)
    np.testing.assert_array_equal(back.norm.target_std, model.norm.target_std)
    window = InputWindow(np.full((3, 1), 0.2), np.full((3, 8), 0.1))
    np.testing.assert_array_equal(predict(back, window), predict(model, window))
    # Second save writes the same bytes.
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_reference_checkpoint_round_trips_byte_for_byte(tmp_path):
    # Format v1 stores per-gate LSTM tensors; loading concatenates them into
    # the fused layout and saving splits them again, to the same bytes.
    path = tmp_path / "again.ckpt"
    save_checkpoint(load_checkpoint(REFERENCE_CHECKPOINT), path)
    assert path.read_bytes() == REFERENCE_CHECKPOINT.read_bytes()


def test_checkpoint_stores_each_gate_block_under_its_v1_name(tmp_path):
    from beamtrack.predictor import _parse_checkpoint

    model = build_model(np.random.default_rng(4), lstm_layers=2)
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    _, tensors = _parse_checkpoint(path)
    for k, lstm in enumerate(model.lstms):
        h = lstm.hidden_size
        for q, gate in enumerate("ifoc"):  # v1 names the cell-input gate "c"
            rows = slice(q * h, (q + 1) * h)
            np.testing.assert_array_equal(tensors[f"lstm{k}.W_x{gate}"], lstm.W_x[rows])
            np.testing.assert_array_equal(tensors[f"lstm{k}.W_h{gate}"], lstm.W_h[rows])
            np.testing.assert_array_equal(tensors[f"lstm{k}.b_{gate}"], lstm.b[rows])
        np.testing.assert_array_equal(tensors[f"lstm{k}.b_f"], np.ones(h))


def test_checkpoint_rejects_other_modes(tmp_path):
    text = REFERENCE_CHECKPOINT.read_text()
    assert "\nmode aoa_only\n" in text
    path = tmp_path / "full.ckpt"
    path.write_text(text.replace("\nmode aoa_only\n", "\nmode full\n", 1))
    with pytest.raises(CheckpointError, match="mode 'full'"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_context_input(tmp_path):
    # Format v1 keeps its context_dim header field, and models take no
    # context input: any other value than 0 is a file this code cannot run.
    text = REFERENCE_CHECKPOINT.read_text()
    assert "\ncontext_dim 0\n" in text
    path = tmp_path / "context.ckpt"
    path.write_text(text.replace("\ncontext_dim 0\n", "\ncontext_dim 2\n", 1))
    with pytest.raises(CheckpointError, match="context_dim"):
        load_checkpoint(path)


# Each case edits one line of the reference checkpoint: (old, new, the
# field or tensor the CheckpointError must name).
_MALFORMED = {
    "tensor without shape": ("tensor input_fc.weights 2 16 9", "tensor input_fc.weights 0",
                             "input_fc.weights"),
    "tensor without ndim": ("tensor input_fc.weights 2 16 9", "tensor input_fc.weights",
                            "input_fc.weights"),
    "ndim not an integer": ("tensor input_fc.weights 2 16 9", "tensor input_fc.weights two 16 9",
                            "input_fc.weights"),
    "shape not an integer": ("tensor input_fc.bias 1 16", "tensor input_fc.bias 1 16.5",
                             "input_fc.bias"),
    "negative shape": ("tensor input_fc.weights 2 16 9", "tensor input_fc.weights 2 -16 9",
                       "input_fc.weights"),
    "value not a float": ("\n0.00383908869655331 ", "\nzero ", "input_fc.weights"),
    "delta not an integer": ("\ndelta 3\n", "\ndelta three\n", "delta"),
    "delta zero": ("\ndelta 3\n", "\ndelta 0\n", "delta"),
    "unknown input activation": ("\ninput_activation tanh\n", "\ninput_activation swish\n",
                                 "input_activation"),
    "unknown output activation": ("\noutput_activations tanh,identity\n",
                                  "\noutput_activations tanh,swish\n", "output_activations"),
    "no lstm layer": ("\nlstm_layers 1\n", "\nlstm_layers 0\n", "lstm_layers"),
    # Lines that parse but do not fit the rest of the file.
    "zero input std": ("\n0.462401996051732 ", "\n0.0 ", "norm.input_std"),
    "fewer sensor samples than weight columns": ("\nk_samples 4\n", "\nk_samples 3\n",
                                                 "k_samples"),
    "more sensor channels than weight columns": ("\nj_channels 2\n", "\nj_channels 3\n",
                                                 "j_channels"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_checkpoint_raises_checkpoint_error_naming_the_field(tmp_path, case):
    old, new, name = _MALFORMED[case]
    text = REFERENCE_CHECKPOINT.read_text()
    assert text.count(old) == 1
    path = tmp_path / "bad.ckpt"
    path.write_text(text.replace(old, new))
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


def _params(model):
    from beamtrack.neural import layer_param_dict

    return layer_param_dict(model.layers)


def test_checkpoint_error_paths(tmp_path, rng):
    model = build_model(rng)
    with pytest.raises(ValueError, match="normalization"):
        save_checkpoint(model, tmp_path / "no.ckpt")
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_text("some other format v9\n")
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad_magic)

    text = path.read_text()
    missing = tmp_path / "missing.ckpt"
    start = text.index("tensor lstm0.W_xf")
    end = text.index("tensor lstm0.W_xo")
    missing.write_text(text[:start] + text[end:])
    with pytest.raises(CheckpointError, match="missing tensor"):
        load_checkpoint(missing)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_text(text[: text.index("tensor norm.input_mean") + 30])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


def test_norm_std_floor():
    raw = np.zeros((10, 3, 9))
    raw[:, :, 0] = np.linspace(0, 1, 10)[:, None]
    from beamtrack.predictor import _fit_norm_stats

    stats = _fit_norm_stats(raw, np.zeros((10, 1)))
    assert np.all(stats.input_std > 0)
    assert stats.input_std[3] == 1.0  # constant channel passes through unscaled
    assert stats.target_std[0] == 1.0
