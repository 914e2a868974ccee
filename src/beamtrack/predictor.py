"""LSTM angle predictor: model definition, dataset synthesis, training, and
checkpoint round-tripping.

Each path is predicted independently with shared weights. The input window
covers the last `delta` tracking cycles; the per-cycle feature vector is the
previous state estimate followed by that cycle's inertial samples. Inputs
are standardized per channel. The network regresses the standardized
one-cycle angle increment, so de-standardizing a prediction adds the
window's most recent estimate back in; this keeps the regression target well
scaled without changing the external contract (window in, absolute
next-cycle angle out).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import neural
from .mobility import IMU_CHANNELS, MobilityParams, generate_trajectory, synthesize_imu
from .neural import FcParams, LstmParams

__all__ = [
    "InputWindow",
    "NormStats",
    "PredictorModel",
    "TrainConfig",
    "DatasetConfig",
    "NoiseTable",
    "Dataset",
    "CheckpointError",
    "build_model",
    "model_fingerprint",
    "predict",
    "generate_dataset",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

_CHECKPOINT_MAGIC = "beamtrack-checkpoint v1"

INPUT_HIDDEN, OUTPUT_HIDDEN = 16, 32  # dense widths before and after the LSTM stack


def scale_sensor_block(blocks: np.ndarray, cycle_seconds: float) -> np.ndarray:
    """Convert raw sensor blocks to per-cycle angle units.

    The first half of the last axis holds angular-velocity samples and the
    second half angular-acceleration samples; multiplying them by the cycle
    duration (respectively its square) expresses both as angle change per
    tracking cycle. Without this the predictor would have to infer the cycle
    duration, which is not an input, from the history alone.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    k = blocks.shape[-1] // 2
    if blocks.shape[-1] != 2 * k or k == 0:
        raise ValueError("sensor block must hold velocity and acceleration halves")
    scaled = blocks.copy()
    scaled[..., :k] *= cycle_seconds
    scaled[..., k:] *= cycle_seconds**2
    return scaled


@dataclass
class InputWindow:
    """One prediction input: the last `delta` estimates and sensor blocks."""

    past_estimates: np.ndarray  # (delta, state_dim)
    sensor_blocks: np.ndarray  # (delta, samples_per_cycle * channels)

    def __post_init__(self):
        self.past_estimates = np.asarray(self.past_estimates, dtype=np.float64)
        self.sensor_blocks = np.asarray(self.sensor_blocks, dtype=np.float64)
        if self.past_estimates.ndim != 2 or self.sensor_blocks.ndim != 2:
            raise ValueError("past_estimates and sensor_blocks must be 2-D")
        if self.past_estimates.shape[0] != self.sensor_blocks.shape[0]:
            raise ValueError("estimate and sensor histories must cover the same cycles")
        if self.past_estimates.shape[0] < 1:
            raise ValueError("window must cover at least one cycle")

    @property
    def delta(self) -> int:
        return self.past_estimates.shape[0]

    @property
    def state_dim(self) -> int:
        return self.past_estimates.shape[1]


@dataclass
class NormStats:
    """Per-channel standardization constants for inputs and encoded targets."""

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    def __post_init__(self):
        for name in ("input_mean", "input_std", "target_mean", "target_std"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.any(self.input_std <= 0) or np.any(self.target_std <= 0):
            raise ValueError("standard deviations must be strictly positive")


@dataclass
class PredictorModel:
    """Shared-weight per-path predictor: input FC -> LSTM stack -> head FCs."""

    input_fc: FcParams
    lstms: list[LstmParams]
    output_fcs: list[FcParams]
    delta: int
    k_samples: int
    j_channels: int
    norm: NormStats | None = None
    # Training-set residual variance per output channel, natural units.
    # Downstream filters add it to the predicted covariance so the belief
    # accounts for what the network cannot explain (sensor noise, model bias).
    prediction_var: np.ndarray | None = None

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be >= 1")

    @property
    def state_dim(self) -> int:
        """One arrival angle per path."""
        return 1

    @property
    def input_dim(self) -> int:
        return self.state_dim + self.k_samples * self.j_channels

    @property
    def layers(self) -> list:
        return [self.input_fc, *self.lstms, *self.output_fcs]


def build_model(
    rng: np.random.Generator,
    delta: int = 3,
    k_samples: int = 4,
    lstm_hidden: int = 32,
    lstm_layers: int = 1,
) -> PredictorModel:
    """Fresh model with fan-in uniform initialization (forget bias at +1)."""
    for name, size in (("lstm_hidden", lstm_hidden), ("lstm_layers", lstm_layers)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    input_dim = 1 + k_samples * IMU_CHANNELS
    input_fc = neural.init_fc(rng, INPUT_HIDDEN, input_dim, activation="tanh")
    lstms = []
    in_size = INPUT_HIDDEN
    for _ in range(lstm_layers):
        lstms.append(neural.init_lstm(rng, lstm_hidden, in_size))
        in_size = lstm_hidden
    output_fcs = [
        neural.init_fc(rng, OUTPUT_HIDDEN, lstm_hidden, activation="tanh"),
        neural.init_fc(rng, 1, OUTPUT_HIDDEN, activation="identity"),
    ]
    return PredictorModel(
        input_fc=input_fc,
        lstms=lstms,
        output_fcs=output_fcs,
        delta=delta,
        k_samples=k_samples,
        j_channels=IMU_CHANNELS,
    )


def model_fingerprint(model: PredictorModel) -> str:
    """sha256 over the model's parameter, normalisation and prediction-variance
    arrays (names, shapes and float64 bytes) and its layer activations."""
    arrays = dict(neural.layer_param_dict(model.layers))
    if model.norm is not None:
        for name in ("input_mean", "input_std", "target_mean", "target_std"):
            arrays[f"norm.{name}"] = getattr(model.norm, name)
    if model.prediction_var is not None:
        arrays["prediction_var"] = model.prediction_var
    sha = hashlib.sha256()
    activations = [lyr.activation for lyr in model.layers if isinstance(lyr, FcParams)]
    sha.update(f"{model.delta}|{','.join(activations)}".encode())
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        sha.update(f"|{name}{arr.shape}".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _feature_matrix(past: np.ndarray, sensors: np.ndarray) -> np.ndarray:
    """[estimate, sensors] per cycle; any leading axes index windows."""
    return np.concatenate([past, sensors], axis=-1)


def _check_windows(model: PredictorModel, past: np.ndarray, sensors: np.ndarray) -> None:
    """Validate stacked windows: past (N, delta, P), sensors (N, delta, KJ)."""
    if past.ndim != 3 or sensors.ndim != 3:
        raise ValueError(f"past and sensors must be 3-D, got {past.ndim}-D and {sensors.ndim}-D")
    if past.shape[0] != sensors.shape[0]:
        raise ValueError(f"past holds {past.shape[0]} windows but sensors {sensors.shape[0]}")
    if past.shape[0] < 1:
        raise ValueError("predict needs at least one window")
    if past.shape[1] != model.delta or sensors.shape[1] != model.delta:
        raise ValueError(
            f"past and sensors cover {past.shape[1]} and {sensors.shape[1]} cycles, "
            f"model expects {model.delta}"
        )
    if past.shape[2] != model.state_dim:
        raise ValueError(
            f"window state dimension {past.shape[2]} does not match the model's "
            f"{model.state_dim}"
        )
    expected = model.k_samples * model.j_channels
    if sensors.shape[2] != expected:
        raise ValueError(f"sensor blocks have {sensors.shape[2]} entries per cycle, not {expected}")


def _forward_raw_batch(model: PredictorModel, raw: np.ndarray, last_est: np.ndarray) -> np.ndarray:
    """Map raw (B, delta, D) windows to absolute next-cycle states (B, P)."""
    norm = model.norm
    if norm is None:
        raise ValueError("model has no normalization statistics; train or load it first")
    std_in = (raw - norm.input_mean) / norm.input_std
    out = neural.forward_stack(model.layers, std_in)
    return last_est + norm.target_mean + norm.target_std * out


def predict(model: PredictorModel, windows) -> np.ndarray:
    """Predict next-cycle states from input windows in one network call.

    `windows` is one InputWindow, which gives shape (P,), or a stacked pair
    (past (N, delta, P), sensors (N, delta, KJ)), which gives (N, P) and is
    validated once, here. Each row equals the one-window prediction bit for
    bit, because the network's kernels are batch invariant.
    """
    single = isinstance(windows, InputWindow)
    if single:
        past, sensors = windows.past_estimates[None], windows.sensor_blocks[None]
    else:
        past, sensors = (np.asarray(a, dtype=np.float64) for a in windows)
    _check_windows(model, past, sensors)
    out = _forward_raw_batch(model, _feature_matrix(past, sensors), past[:, -1])
    return out[0] if single else out


@dataclass
class NoiseTable:
    """Estimate-noise standard deviation versus pilot SNR, linearly interpolated."""

    snr_db: np.ndarray
    estimate_std: np.ndarray

    def __post_init__(self):
        self.snr_db = np.asarray(self.snr_db, dtype=np.float64)
        self.estimate_std = np.asarray(self.estimate_std, dtype=np.float64)
        if self.snr_db.shape != self.estimate_std.shape or self.snr_db.ndim != 1:
            raise ValueError("snr_db and estimate_std must be matching 1-D arrays")
        if self.snr_db.size < 1:
            raise ValueError("noise table needs at least one grid point")
        if np.any(np.diff(self.snr_db) <= 0):
            raise ValueError("snr grid must be strictly increasing")
        if not np.all(np.isfinite(self.estimate_std) & (self.estimate_std >= 0)):
            raise ValueError(f"estimate_std must be finite and >= 0, got {self.estimate_std}")

    def lookup(self, snr_db: float) -> float:
        return float(np.interp(snr_db, self.snr_db, self.estimate_std))

    def to_json(self) -> str:
        return json.dumps(
            {"snr_db": self.snr_db.tolist(), "estimate_std": self.estimate_std.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "NoiseTable":
        data = json.loads(text)
        return cls(np.asarray(data["snr_db"]), np.asarray(data["estimate_std"]))


@dataclass
class DatasetConfig:
    """Knobs for synthetic training data.

    Episodes draw their cycle length, mean angular rate, and SNRs
    independently, so one model generalizes across the evaluation sweeps.
    Slots last MobilityParams' default duration.
    """

    num_windows: int = 100_000
    cycles_per_episode: int = 200
    num_paths: int = 3
    delta: int = 3
    k_samples: int = 4
    t_csi_choices: tuple[int, ...] = (40, 80, 160, 320)
    a_avg_range: tuple[float, float] = (0.05 * np.pi, 0.45 * np.pi)
    snr_range_db: tuple[float, float] = (6.0, 15.0)
    imu_snr_db: float | None = None  # None: draw per episode from snr_range_db
    include_imu: bool = True

    def __post_init__(self):
        for name in ("num_windows", "num_paths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class Dataset:
    """Training windows in array form."""

    inputs: np.ndarray  # (N, delta, D), raw units
    last_estimates: np.ndarray  # (N, P)
    targets: np.ndarray  # (N, P)
    meta: dict

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def save(self, path) -> None:
        np.savez(
            path,
            inputs=self.inputs,
            last_estimates=self.last_estimates,
            targets=self.targets,
            meta=np.frombuffer(json.dumps(self.meta).encode(), dtype=np.uint8),
        )

    @classmethod
    def load(cls, path) -> "Dataset":
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            return cls(data["inputs"], data["last_estimates"], data["targets"], meta)


def generate_dataset(
    cfg: DatasetConfig, noise_table: NoiseTable, rng: np.random.Generator
) -> Dataset:
    """Synthesize prediction windows from fresh mobility episodes.

    Ground-truth angles at the cycle boundaries are perturbed with zero-mean
    Gaussian noise whose standard deviation comes from the per-SNR calibration
    table, standing in for tracker estimates; the matching inertial blocks are
    synthesized from the same trajectory. The target of a window ending at
    cycle t-1 is the true angle at cycle t.
    """
    delta, k = cfg.delta, cfg.k_samples
    cycles = cfg.cycles_per_episode
    if cycles <= delta:
        raise ValueError("cycles_per_episode must exceed delta")
    episodes = -(-cfg.num_windows // (cfg.num_paths * (cycles - delta)))

    dim = 1 + k * IMU_CHANNELS
    chunks_x, chunks_last, chunks_y = [], [], []
    for _ in range(episodes):
        t_csi = int(rng.choice(np.asarray(cfg.t_csi_choices)))
        a_avg = rng.uniform(*cfg.a_avg_range)
        snr = rng.uniform(*cfg.snr_range_db)
        imu_snr = cfg.imu_snr_db if cfg.imu_snr_db is not None else rng.uniform(*cfg.snr_range_db)
        params = MobilityParams(a_avg=a_avg)
        traj = generate_trajectory(params, cfg.num_paths, cycles * t_csi, rng)
        if cfg.include_imu:
            blocks = scale_sensor_block(
                synthesize_imu(traj, k, t_csi, imu_snr, rng), t_csi * params.dt
            )
        else:
            blocks = np.zeros((cfg.num_paths, cycles, k * IMU_CHANNELS))
        truth = traj.aoa[:, ::t_csi]  # (L, cycles), angle at each cycle boundary
        est = truth + rng.normal(0.0, noise_table.lookup(snr), size=truth.shape)

        w = cycles - delta
        x = np.empty((cfg.num_paths, w, delta, dim))
        for i in range(delta):
            x[:, :, i, 0] = est[:, i : w + i]
            x[:, :, i, 1:] = blocks[:, i : w + i]
        chunks_x.append(x.reshape(-1, delta, dim))
        chunks_last.append(est[:, delta - 1 : cycles - 1].reshape(-1, 1))
        chunks_y.append(truth[:, delta:].reshape(-1, 1))

    inputs = np.concatenate(chunks_x)[: cfg.num_windows]
    last = np.concatenate(chunks_last)[: cfg.num_windows]
    targets = np.concatenate(chunks_y)[: cfg.num_windows]
    meta = {
        "state_dim": 1,
        "delta": delta,
        "k_samples": k,
        "j_channels": IMU_CHANNELS,
        "include_imu": cfg.include_imu,
        "snr_range_db": list(cfg.snr_range_db),
    }
    return Dataset(inputs, last, targets, meta)


@dataclass
class TrainConfig:
    """Minibatch Adam schedule; the learning rate decays by `decay_rate` every 3 epochs."""

    epochs: int = 30
    minibatch: int = 64
    initial_lr: float = 0.01
    decay_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "minibatch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ValueError(f"initial_lr must be positive and finite, got {self.initial_lr}")


# Windows per forward pass when train() evaluates prediction_var.
_PREDICTION_VAR_CHUNK = 256
# Epochs between learning-rate decays.
_DECAY_EPOCHS = 3


def _fit_norm_stats(raw: np.ndarray, increments: np.ndarray) -> NormStats:
    flat = raw.reshape(-1, raw.shape[-1])
    in_mean = flat.mean(axis=0)
    in_std = flat.std(axis=0)
    in_std[in_std < 1e-8] = 1.0  # constant channels (e.g. zeroed sensors) pass through
    t_mean = increments.mean(axis=0)
    t_std = increments.std(axis=0)
    t_std[t_std < 1e-8] = 1.0
    return NormStats(in_mean, in_std, t_mean, t_std)


def train(
    model: PredictorModel, dataset: Dataset, config: TrainConfig
) -> tuple[PredictorModel, list[float]]:
    """Minibatch Adam on the mean squared prediction error.

    Normalization statistics are fitted from the dataset on entry (unless the
    model already carries some, e.g. when resuming). Returns the model and the
    per-epoch mean loss in standardized units. Raises RuntimeError if the loss
    goes non-finite. The model's parameter fields become views of one flat
    buffer (`neural.pack_params`), which each minibatch updates in one Adam
    step.
    """
    raw, last, targets = dataset.inputs, dataset.last_estimates, dataset.targets
    n = raw.shape[0]
    if n < 1:
        raise ValueError("dataset is empty")
    if raw.shape[1] != model.delta or raw.shape[2] != model.input_dim:
        raise ValueError(
            f"dataset windows are {raw.shape[1:]}; model expects "
            f"({model.delta}, {model.input_dim})"
        )
    increments = targets - last
    if model.norm is None:
        model.norm = _fit_norm_stats(raw, increments)
    norm = model.norm

    x = (raw - norm.input_mean) / norm.input_std
    y = (increments - norm.target_mean) / norm.target_std

    layers = model.layers
    # One flat buffer for the parameters, and so one array per Adam moment.
    params = neural.pack_params(layers)
    adam = neural.init_adam(params)
    shuffle = np.random.default_rng(config.seed)

    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        lr = config.initial_lr * config.decay_rate ** ((epoch - 1) // _DECAY_EPOCHS)
        order = shuffle.permutation(n)
        total = 0.0
        for start in range(0, n, config.minibatch):
            idx = order[start : start + config.minibatch]
            loss, grads, _ = neural.loss_and_gradients(layers, x[idx], y[idx])
            # The gradient dicts run in the buffer's order (see pack_params).
            flat = np.concatenate([arr for g in grads for arr in g.values()], axis=None)
            flat *= 1.0 / idx.size
            neural.adam_update(params, flat, adam, lr)
            total += loss
        mean_loss = total / n
        if not np.isfinite(mean_loss):
            raise RuntimeError(
                f"training diverged at epoch {epoch}: mean loss {mean_loss!r} "
                f"(lr {lr}, minibatch {config.minibatch})"
            )
        losses.append(mean_loss)

    # Residual spread in natural units, for use as prediction-time process
    # noise. Evaluated on a subsample to keep this cheap on large sets, in
    # fixed chunks to bound the pass's memory; the batch-invariant kernels
    # make the result independent of the chunk size.
    probe = min(n, 20_000)
    idx = np.random.default_rng(config.seed).choice(n, size=probe, replace=False)
    parts = [idx[at : at + _PREDICTION_VAR_CHUNK] for at in range(0, probe, _PREDICTION_VAR_CHUNK)]
    pred = np.concatenate([_forward_raw_batch(model, raw[part], last[part]) for part in parts])
    model.prediction_var = np.var(pred - targets[idx], axis=0)
    return model, losses


class CheckpointError(Exception):
    """Raised for malformed, incomplete, or version-mismatched checkpoints."""


# Format v1 stores each LSTM gate block as its own tensor (W_xi, W_hi, W_xf,
# ..., b_c). These are its gate letters in LstmParams' block order i, f, o, g:
# v1 calls the cell-input gate g "c".
_V1_GATES = ("i", "f", "o", "c")


def _v1_lstm_tensors(lstm: LstmParams) -> list[tuple[str, np.ndarray]]:
    """Split a fused LSTM layer into the v1 per-gate tensors, in file order."""
    h = lstm.hidden_size
    out = []
    for q, gate in enumerate(_V1_GATES):
        out += [(f"W_x{gate}", lstm.W_x[q * h : (q + 1) * h]),
                (f"W_h{gate}", lstm.W_h[q * h : (q + 1) * h])]
    out += [(f"b_{gate}", lstm.b[q * h : (q + 1) * h]) for q, gate in enumerate(_V1_GATES)]
    return out


def _format_array(name: str, arr: np.ndarray) -> list[str]:
    arr = np.asarray(arr, dtype=np.float64)
    shape = " ".join(str(s) for s in arr.shape)
    lines = [f"tensor {name} {arr.ndim} {shape}"]
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    return lines


def save_checkpoint(model: PredictorModel, path) -> None:
    """Write the model as a plain-text document; round-trips bit exactly."""
    if model.norm is None:
        raise ValueError("refusing to save a model without normalization statistics")
    head = [
        _CHECKPOINT_MAGIC,
        "mode aoa_only",
        f"delta {model.delta}",
        f"k_samples {model.k_samples}",
        f"j_channels {model.j_channels}",
        "context_dim 0",
        f"lstm_layers {len(model.lstms)}",
        f"output_fcs {len(model.output_fcs)}",
        f"input_activation {model.input_fc.activation}",
        "output_activations " + ",".join(fc.activation for fc in model.output_fcs),
    ]
    body: list[str] = []
    body += _format_array("input_fc.weights", model.input_fc.weights)
    body += _format_array("input_fc.bias", model.input_fc.bias)
    for k, lstm in enumerate(model.lstms):
        for name, arr in _v1_lstm_tensors(lstm):
            body += _format_array(f"lstm{k}.{name}", arr)
    for k, fc in enumerate(model.output_fcs):
        body += _format_array(f"output_fc{k}.weights", fc.weights)
        body += _format_array(f"output_fc{k}.bias", fc.bias)
    for name in ("input_mean", "input_std", "target_mean", "target_std"):
        body += _format_array(f"norm.{name}", getattr(model.norm, name))
    if model.prediction_var is not None:
        body += _format_array("prediction_var", np.asarray(model.prediction_var))
    with open(path, "w") as fh:
        fh.write("\n".join(head + body) + "\n")


def _parse_checkpoint(path) -> tuple[dict, dict]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        found = lines[0] if lines else "<empty file>"
        raise CheckpointError(
            f"unsupported checkpoint version: expected {_CHECKPOINT_MAGIC!r}, found {found!r}"
        )
    meta: dict = {}
    tensors: dict[str, np.ndarray] = {}
    k = 1
    while k < len(lines):
        line = lines[k].strip()
        if not line:
            k += 1
            continue
        if line.startswith("tensor "):
            name, *dims = line.split()[1:]
            try:
                ndim, *shape = map(int, dims)  # ValueError without ndim too
                if ndim not in (1, 2) or len(shape) != ndim or min(shape) < 0:
                    raise ValueError
            except ValueError:
                raise CheckpointError(f"tensor '{name}' has a malformed header {line!r}") from None
            rows = 1 if ndim == 1 else shape[0]
            if k + rows >= len(lines):
                raise CheckpointError(f"tensor '{name}' is truncated")
            try:
                values = [[float(v) for v in lines[k + r].split()] for r in range(1, rows + 1)]
                tensors[name] = np.array(values, dtype=np.float64).reshape(shape)
            except ValueError as exc:
                raise CheckpointError(f"tensor '{name}' is malformed: {exc}") from exc
            k += rows + 1
        else:
            key, _, value = line.partition(" ")
            meta[key] = value
            k += 1
    return meta, tensors


def _positive(value: int) -> bool:
    return value >= 1


def _header(meta: dict, key: str, parse=int, valid=_positive):
    """meta[key] parsed; a CheckpointError naming the field when it is
    missing, does not parse, or fails `valid` (None accepts any value)."""
    if key not in meta:
        raise CheckpointError(f"checkpoint header is missing field '{key}'")
    try:
        value = parse(meta[key])
    except ValueError:
        raise CheckpointError(f"header field '{key}' is malformed: {meta[key]!r}") from None
    if valid is not None and not valid(value):
        raise CheckpointError(f"header field '{key}' has unsupported value {meta[key]!r}")
    return value


def load_checkpoint(path) -> PredictorModel:
    """Rebuild a model from save_checkpoint output; strict about completeness."""
    meta, tensors = _parse_checkpoint(path)

    def take(name: str) -> np.ndarray:
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor '{name}'")
        return tensors[name]

    known = set(neural._ACTIVATIONS)
    mode = _header(meta, "mode", str, None)
    delta = _header(meta, "delta")
    k_samples = _header(meta, "k_samples")
    j_channels = _header(meta, "j_channels")
    context_dim = _header(meta, "context_dim", valid=None)
    lstm_layers = _header(meta, "lstm_layers")
    num_output_fcs = _header(meta, "output_fcs")
    input_act = _header(meta, "input_activation", str, known.__contains__)
    output_acts = _header(meta, "output_activations", lambda s: s.split(","), known.issuperset)
    if mode != "aoa_only":
        raise CheckpointError(f"unsupported mode {mode!r}: only 'aoa_only' models exist")
    if context_dim != 0:
        raise CheckpointError(f"unsupported context_dim {context_dim}: models take no context")
    if len(output_acts) != num_output_fcs:
        raise CheckpointError("output activation list does not match output_fcs")

    def build(make, names, *args):
        """make(*the named tensors, *args); a ValueError from it becomes a
        CheckpointError naming the tensors."""
        try:
            return make(*(take(name) for name in names), *args)
        except ValueError as exc:
            listed = ", ".join(names)
            raise CheckpointError(f"tensors {listed} do not fit together: {exc}") from None

    def fused_lstm(*blocks) -> LstmParams:  # W_x, W_h, then b blocks, each in _V1_GATES order
        return LstmParams(*(np.concatenate(blocks[q : q + 4]) for q in (0, 4, 8)))

    input_fc = build(FcParams, ["input_fc.weights", "input_fc.bias"], input_act)
    if input_fc.input_size != k_samples * j_channels + 1:
        raise CheckpointError(
            f"header k_samples {k_samples} and j_channels {j_channels} give "
            f"{k_samples * j_channels + 1} inputs, but tensor 'input_fc.weights' has "
            f"{input_fc.input_size} columns"
        )
    lstms = [
        build(fused_lstm, [f"lstm{k}.{part}{g}" for part in ("W_x", "W_h", "b_") for g in _V1_GATES])
        for k in range(lstm_layers)
    ]
    output_fcs = [
        build(FcParams, [f"output_fc{k}.weights", f"output_fc{k}.bias"], output_acts[k])
        for k in range(num_output_fcs)
    ]
    norm = build(
        NormStats, ["norm.input_mean", "norm.input_std", "norm.target_mean", "norm.target_std"]
    )
    prediction_var = tensors.get("prediction_var")
    return PredictorModel(
        input_fc=input_fc,
        lstms=lstms,
        output_fcs=output_fcs,
        delta=delta,
        k_samples=k_samples,
        j_channels=j_channels,
        norm=norm,
        prediction_var=prediction_var,
    )
