"""Learned angle predictor: windows, datasets, training, checkpoints."""

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
    window_matrix,
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
    mat = window_matrix(window)
    np.testing.assert_allclose(mat, [[0.1, 1.0, 2.0], [0.2, 3.0, 4.0], [0.3, 5.0, 6.0]])
    assert window.delta == 3 and window.state_dim == 1


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


def test_predict_accepts_a_sequence_of_windows(rng):
    model = build_model(rng)
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    windows = [InputWindow(np.full((3, 1), v), np.full((3, 8), v)) for v in (0.1, 0.2)]
    assert predict(model, windows).shape == (2, 1)
    assert predict(model, windows[:1]).shape == (1, 1)
    with pytest.raises(ValueError, match="at least one window"):
        predict(model, [])
    with pytest.raises(ValueError, match="same shape"):
        predict(model, [windows[0], InputWindow(np.zeros((2, 1)), np.zeros((2, 8)))])
    with pytest.raises(ValueError, match="sensor"):
        predict(model, [InputWindow(np.zeros((3, 1)), np.zeros((3, 6)))] * 2)


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
        windows = [InputWindow(e, s) for e, s in zip(est, blocks)]
        one_by_one = np.stack([predict(model, w) for w in windows])
        assert np.array_equal(predict(model, windows), one_by_one), b


@pytest.mark.parametrize("chunk", [predictor._PREDICTION_VAR_CHUNK, 7])
def test_prediction_var_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # Targets a hair off the model's own predictions make prediction_var hang
    # on the last bit of every prediction. The 2,500 probe windows split into
    # chunks (1024 + 1024 + 452, or 357 x 7 + 1); the reference is one pass
    # over all of them. With epochs=0 the weights stay as built.
    assert 2_500 % chunk != 0
    cfg = DatasetConfig(num_windows=2_500, cycles_per_episode=40)
    ds = generate_dataset(cfg, _table(), np.random.default_rng(21))
    model = build_model(np.random.default_rng(3))
    model.norm = NormStats(np.zeros(9), np.full(9, 0.5), np.zeros(1), np.ones(1))
    pred = predict(model, [InputWindow(x[:, :1], x[:, 1:]) for x in ds.inputs])
    ds.targets = pred + np.random.default_rng(4).normal(0.0, 1e-12, pred.shape)
    runs = []
    for size in (chunk, len(ds)):
        monkeypatch.setattr(predictor, "_PREDICTION_VAR_CHUNK", size)
        runs.append(train(model, ds, TrainConfig(epochs=0))[0].prediction_var)
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
