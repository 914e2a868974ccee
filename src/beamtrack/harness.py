"""Experiment harness: episode simulation, link metrics, seeded sweeps.

An episode simulates num_cycles tracking cycles of t_csi slots each. The
tracker steps once per cycle at the cycle's first slot; channel estimate
quality (normalized MSE) is scored against the true channel at that slot,
while the bit error rate integrates over every slot of the cycle with the
cycle's precoder/combiner held fixed, so intra-cycle drift is paid for.

Reproducibility: every random stream is derived from the episode seed plus a
fixed stream tag, and sweep episode seeds are hashes of (master seed, axis
name, axis value, trial). Streams do not depend on the tracker variant, so
variants compared at the same (value, trial) see identical trajectories,
sensor noise, and pilot noise draws (paired comparisons).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from scipy.special import erfc

from .arrays import ArrayGeometry, make_codebook
from .mobility import MobilityParams, generate_trajectory, synthesize_imu
from .predictor import (
    NoiseTable,
    PredictorModel,
    load_checkpoint,
    model_fingerprint,
    scale_sensor_block,
)
from .trackers import (
    EkfTracker,
    GenieTracker,
    LmsTracker,
    PilotChannel,
    ProposedTracker,
    calibrate_process_noise,
)

__all__ = [
    "VARIANTS",
    "SimConfig",
    "EpisodeResult",
    "qfunc",
    "normalized_mse",
    "bit_error_rate_mc",
    "run_episode",
    "run_sweep",
    "calibrate_estimate_noise",
    "plot_data",
    "episode_seed",
]

VARIANTS = ("proposed_csi_imu", "proposed_csi", "ekf", "lms", "genie")

NMSE_FLOOR_DB = -100.0

# Stream tags for per-episode substreams (variant-independent by design).
_TRAJ, _PILOT, _IMU, _INIT, _BER = 1, 2, 3, 4, 5


@dataclass
class SimConfig:
    """One episode's worth of configuration."""

    n_b: int = 32
    n_m: int = 32
    num_paths: int = 3
    m_b: int = 2
    m_m: int = 2
    codebook_size: int = 64
    t_csi: int = 160
    dt: float = 125e-6
    k_samples: int = 4
    a_avg: float = 0.2 * np.pi
    drive_var: float | None = None  # None: mobility model default
    init_velocity_std: float = np.sqrt(0.2)
    snr_db: float = 9.0
    imu_snr_db: float = 5.0
    num_cycles: int = 200
    seed: int = 0
    variant: str = "proposed_csi_imu"
    checkpoint: str | None = None
    init_error_std: float = 0.01
    lms_step: float = 0.01
    aod_cluster_width: float = 2.0 / 64.0
    ber_mode: str = "analytic"  # or "montecarlo"
    mc_bits_per_slot: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.t_csi % self.k_samples != 0:
            raise ValueError("t_csi must be divisible by k_samples")
        if self.num_cycles < 1:
            raise ValueError("num_cycles must be >= 1")
        if self.ber_mode not in ("analytic", "montecarlo"):
            raise ValueError(f"unknown ber_mode {self.ber_mode!r}")

    def digest(self, model_fingerprint: str | None = None) -> str:
        """Short hash of the config, plus the model's fingerprint when given."""
        content = asdict(self)
        if model_fingerprint is not None:
            content["model_fingerprint"] = model_fingerprint
        text = json.dumps(content, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def mobility_params(self) -> MobilityParams:
        if self.drive_var is None:
            return MobilityParams(a_avg=self.a_avg, dt=self.dt)
        return MobilityParams(a_avg=self.a_avg, dt=self.dt, drive_var=self.drive_var)


@dataclass
class EpisodeResult:
    """Per-cycle metric traces for one episode."""

    nmse_db: np.ndarray  # (num_cycles,)
    ber: np.ndarray  # (num_cycles,)
    aoa_error: np.ndarray  # (num_paths, num_cycles), estimate - truth
    variant: str
    seed: int
    config_digest: str  # SimConfig.digest(), folding in the model for proposed variants

    @property
    def mean_nmse_db(self) -> float:
        return float(np.mean(self.nmse_db))

    @property
    def mean_ber(self) -> float:
        return float(np.mean(self.ber))


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def normalized_mse(h_true: np.ndarray, h_est: np.ndarray) -> float:
    """10*log10(||H - Hhat||_F^2 / ||H||_F^2), floored at -100 dB."""
    denom = float(np.linalg.norm(h_true) ** 2)
    if denom == 0.0:
        raise ValueError("true channel has zero norm")
    ratio = float(np.linalg.norm(h_true - h_est) ** 2) / denom
    floor = 10.0 ** (NMSE_FLOOR_DB / 10.0)
    if ratio <= floor:
        return NMSE_FLOOR_DB
    return 10.0 * np.log10(ratio)


def bit_error_rate_mc(
    gain_mag: float, noise_var: float, num_bits: int, rng: np.random.Generator
) -> float:
    """Monte Carlo BPSK error rate at effective amplitude |g|.

    The matched-filter statistic is |g| + N(0, noise_var/2) for a +1 bit, so
    a bit errors when the noise pushes it negative.
    """
    if noise_var == 0.0:
        return 0.0
    noise = rng.normal(0.0, np.sqrt(noise_var / 2.0), size=num_bits)
    return float(np.mean(gain_mag + noise < 0.0))


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag)))


def _steering_table(geom: ArrayGeometry, thetas: np.ndarray) -> np.ndarray:
    """Columns of steering vectors for raw (unvalidated) angles."""
    k = np.arange(geom.num_elements)[:, None]
    return np.exp(1j * geom.spatial_freq * k * np.asarray(thetas)[None, :]) / np.sqrt(
        geom.num_elements
    )


def _channel_from_angles(gains, aoas, geom_rx, a_t) -> np.ndarray:
    """A_r(aoas) diag(gains) A_t^H for the episode's transmit steering table A_t."""
    a_r = _steering_table(geom_rx, aoas)
    return (a_r * np.asarray(gains)) @ a_t.conj().T


def _rx_gains(w: np.ndarray, geom_rx: ArrayGeometry, thetas: np.ndarray) -> np.ndarray:
    """w^H a(theta) elementwise over thetas.

    With z = exp(j kappa theta), w^H a(theta) = sum_k conj(w_k) z^k / sqrt(N),
    evaluated by Horner's rule: one exponential per angle instead of N.
    """
    z = np.exp(1j * geom_rx.spatial_freq * np.asarray(thetas))
    coeffs = w.conj()
    acc = np.full(z.shape, coeffs[-1])
    for coeff in coeffs[-2::-1]:
        acc *= z
        acc += coeff
    return acc / np.sqrt(geom_rx.num_elements)


def _cycle_ber(
    config: SimConfig,
    gains: np.ndarray,
    est_aoas: np.ndarray,
    aoa_slots: np.ndarray,
    tx_r: np.ndarray,
    noise_var: float,
    geom_rx: ArrayGeometry,
    ber_rng: np.random.Generator,
) -> float:
    """Mean BER over one cycle with the estimate's top singular pair.

    The estimate h_est = A_r diag(gains) A_t^H has rank at most L. With thin
    QR factors A_r = Q_r R_r and A_t = Q_t R_t (tx_r is R_t, fixed for the
    episode), h_est = Q_r (R_r diag(gains) R_t^H) Q_t^H, so its top singular
    pair comes from the SVD of the L x L core: w = Q_r u and f = Q_t v.
    The transmit gains A_t^H f reduce to R_t^H v.
    """
    q_r, r_r = np.linalg.qr(_steering_table(geom_rx, est_aoas))
    u, _, vh = np.linalg.svd((r_r * gains) @ tx_r.conj().T)
    w = q_r @ u[:, 0]
    tx_gain = tx_r.conj().T @ vh[0].conj()  # (L,): a_t(aod_l)^H f
    rx = _rx_gains(w, geom_rx, aoa_slots)  # (L, slots)
    g = (gains * tx_gain) @ rx
    if noise_var == 0.0:
        return 0.0
    if config.ber_mode == "analytic":
        return float(np.mean(qfunc(np.sqrt(2.0 * np.abs(g) ** 2 / noise_var))))
    errs = [
        bit_error_rate_mc(float(np.abs(gv)), noise_var, config.mc_bits_per_slot, ber_rng)
        for gv in g
    ]
    return float(np.mean(errs))


def _build_tracker(
    config: SimConfig,
    model: PredictorModel | None,
    means: np.ndarray,
    variances: np.ndarray,
    codebook,
    gains,
    aods,
    known_aod,
    geom_rx,
    geom_tx,
    noise_var,
    process_noise,
):
    common = dict(
        codebook=codebook, gains=gains, aods=aods, known_aod=known_aod,
        geom_rx=geom_rx, geom_tx=geom_tx,
    )
    if config.variant in ("proposed_csi_imu", "proposed_csi"):
        if model is None:
            raise ValueError(f"variant {config.variant!r} needs a predictor model")
        return ProposedTracker(
            means, variances, noise_var=noise_var, process_noise=process_noise, model=model,
            use_imu=(config.variant == "proposed_csi_imu"),
            num_tx=config.m_b, num_rx=config.m_m, **common,
        )
    if config.variant == "ekf":
        return EkfTracker(
            means, variances, noise_var=noise_var, process_noise=process_noise,
            num_tx=config.m_b, num_rx=config.m_m, **common,
        )
    if config.variant == "lms":
        return LmsTracker(
            means, step_size=config.lms_step,
            num_tx=config.m_b, num_rx=config.m_m, **common,
        )
    return GenieTracker()


def run_episode(
    config: SimConfig,
    model: PredictorModel | None = None,
    process_noise: float | None = None,
) -> EpisodeResult:
    """Simulate one tracking episode and score it per cycle.

    The episode draws path gains (unit modulus, random phase), a departure
    cluster (per-path departure angles inside a narrow window around a common
    center, which the trackers know), and a mobility trajectory. Tracker
    beliefs start from the true angles perturbed by init_error_std.
    """
    proposed = config.variant.startswith("proposed")
    if model is None and proposed:
        if config.checkpoint is None:
            raise ValueError("proposed variants need a model or a checkpoint path")
        model = load_checkpoint(config.checkpoint)
    digest = config.digest(model_fingerprint(model) if proposed else None)

    geom_rx = ArrayGeometry(config.n_m)
    geom_tx = ArrayGeometry(config.n_b)
    codebook = make_codebook(config.codebook_size)
    params = config.mobility_params()

    traj_rng = _stream(config.seed, _TRAJ)
    pilot_rng = _stream(config.seed, _PILOT)
    imu_rng = _stream(config.seed, _IMU)
    init_rng = _stream(config.seed, _INIT)
    ber_rng = _stream(config.seed, _BER)

    num_paths = config.num_paths
    gains = np.exp(1j * init_rng.uniform(0.0, 2.0 * np.pi, size=num_paths))
    known_aod = float(init_rng.uniform(-0.8, 0.8))
    half = config.aod_cluster_width / 2.0
    aods = np.clip(known_aod + init_rng.uniform(-half, half, size=num_paths), -1.0, 1.0)
    init_aoa = init_rng.uniform(-0.8, 0.8, size=num_paths)
    init_vel = init_rng.normal(config.a_avg, config.init_velocity_std, size=num_paths)

    num_slots = config.num_cycles * config.t_csi
    traj = generate_trajectory(
        params, num_paths, num_slots, traj_rng, init_aoa=init_aoa, init_velocity=init_vel
    )
    blocks = scale_sensor_block(
        synthesize_imu(traj, config.k_samples, config.t_csi, config.imu_snr_db, imu_rng),
        config.t_csi * config.dt,
    )
    truth = traj.aoa[:, :: config.t_csi]  # (L, num_cycles)

    noise_var = float(10.0 ** (-config.snr_db / 10.0))
    if process_noise is None:
        process_noise = calibrate_process_noise(params, config.t_csi, num_paths=num_paths)

    init_var = max(config.init_error_std**2, 1e-6)
    init_means = truth[:, 0] + init_rng.normal(0.0, config.init_error_std, size=num_paths)
    tracker = _build_tracker(
        config, model, init_means, np.full(num_paths, init_var), codebook, gains, aods,
        known_aod, geom_rx, geom_tx, noise_var, process_noise,
    )

    a_t = _steering_table(geom_tx, aods)  # departures are fixed for the episode
    tx_r = np.linalg.qr(a_t, mode="r")
    block_width = 2 * config.k_samples
    nmse = np.empty(config.num_cycles)
    ber = np.empty(config.num_cycles)
    err = np.empty((num_paths, config.num_cycles))
    for t in range(config.num_cycles):
        channel = PilotChannel(
            gains, truth[:, t], aods, config.snr_db, pilot_rng, geom_rx, geom_tx
        )
        block = blocks[:, t - 1] if t >= 1 else np.zeros((num_paths, block_width))
        record = tracker.step(channel, block)

        h_true = _channel_from_angles(gains, truth[:, t], geom_rx, a_t)
        h_est = _channel_from_angles(gains, record.estimates, geom_rx, a_t)
        nmse[t] = normalized_mse(h_true, h_est)
        aoa_slots = traj.aoa[:, t * config.t_csi : (t + 1) * config.t_csi]
        ber[t] = _cycle_ber(
            config, gains, record.estimates, aoa_slots, tx_r, noise_var, geom_rx, ber_rng
        )
        err[:, t] = record.estimates - truth[:, t]

    return EpisodeResult(nmse, ber, err, config.variant, config.seed, digest)


def episode_seed(master_seed: int, axis_name: str, value, trial: int) -> int:
    """Stable 63-bit seed for one sweep cell (variant-independent)."""
    text = f"{master_seed}|{axis_name}|{value!r}|{trial}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def _coerce_axis_value(axis_name: str, value):
    kind = _FIELD_TYPES.get(axis_name, "float")
    if kind == "int":
        return int(value)
    if kind == "float":
        return float(value)
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def run_sweep(
    base_config: SimConfig,
    axis_name: str,
    axis_values,
    variants,
    trials: int,
    master_seed: int = 0,
    models: dict[str, PredictorModel] | None = None,
    out_path=None,
    process_noises: dict | None = None,
) -> list[dict]:
    """Grid of episodes over one config axis, with per-trial and mean rows.

    Returns the CSV rows as dicts and, when out_path is given, writes them.
    A failed episode is recorded with status "error:<Type>: <message>" and
    empty metrics; the sweep keeps going. Mean rows average the successful
    trials. Process noise is calibrated once per distinct mobility model,
    cycle length and path count among the sweep points; a caller running
    several sweeps passes one `process_noises` dict to all of them, keyed by
    (mobility params, t_csi, num_paths), to calibrate once across them.
    """
    if axis_name not in _FIELD_TYPES:
        raise ValueError(f"unknown config field {axis_name!r}")
    models = models or {}
    columns = [
        "axis_name", "axis_value", "variant", "trial", "seed",
        "mean_nmse_db", "mean_ber", "cycles", "status",
    ]
    rows: list[dict] = []
    process_noises = {} if process_noises is None else process_noises
    for value in axis_values:
        value = _coerce_axis_value(axis_name, value)
        cfg_point = replace(base_config, **{axis_name: value})
        key = (cfg_point.mobility_params(), cfg_point.t_csi, cfg_point.num_paths)
        if key not in process_noises:
            params, t_csi, num_paths = key
            process_noises[key] = calibrate_process_noise(params, t_csi, num_paths=num_paths)
        process_noise = process_noises[key]
        for variant in variants:
            ok_nmse, ok_ber = [], []
            for trial in range(trials):
                seed = episode_seed(master_seed, axis_name, value, trial)
                cfg = replace(cfg_point, variant=variant, seed=seed)
                row = {
                    "axis_name": axis_name, "axis_value": _fmt(value),
                    "variant": variant, "trial": str(trial), "seed": str(seed),
                    "cycles": str(cfg.num_cycles),
                }
                try:
                    result = run_episode(cfg, model=models.get(variant), process_noise=process_noise)
                    row["mean_nmse_db"] = _fmt(result.mean_nmse_db)
                    row["mean_ber"] = _fmt(result.mean_ber)
                    row["status"] = "ok"
                    ok_nmse.append(result.mean_nmse_db)
                    ok_ber.append(result.mean_ber)
                except Exception as exc:  # noqa: BLE001 - sweep must survive bad cells
                    row["mean_nmse_db"] = ""
                    row["mean_ber"] = ""
                    row["status"] = f"error:{type(exc).__name__}: {exc}"
                rows.append(row)
            rows.append({
                "axis_name": axis_name, "axis_value": _fmt(value), "variant": variant,
                "trial": "mean", "seed": "",
                "mean_nmse_db": _fmt(float(np.mean(ok_nmse))) if ok_nmse else "",
                "mean_ber": _fmt(float(np.mean(ok_ber))) if ok_ber else "",
                "cycles": str(cfg_point.num_cycles), "status": "aggregate",
            })
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def calibrate_estimate_noise(
    base_config: SimConfig,
    snr_grid_db,
    episodes_per_point: int = 3,
    master_seed: int = 0xCA11B,
    skip_cycles: int = 10,
) -> NoiseTable:
    """Estimate-noise table: robust spread of EKF angle errors per SNR.

    Runs the EKF tracker at each grid SNR and converts the pooled per-cycle
    angle errors to a standard deviation via the median absolute deviation,
    so occasional loss-of-lock excursions do not dominate the table.
    """
    snr_grid_db = np.sort(np.asarray(snr_grid_db, dtype=np.float64))
    # The process noise depends on the mobility model only, not on the SNR.
    process_noise = calibrate_process_noise(
        base_config.mobility_params(), base_config.t_csi, num_paths=base_config.num_paths
    )
    stds = []
    for snr in snr_grid_db:
        pooled = []
        cfg_point = replace(base_config, variant="ekf", snr_db=float(snr))
        for ep in range(episodes_per_point):
            seed = episode_seed(master_seed, "calibration", float(snr), ep)
            result = run_episode(replace(cfg_point, seed=seed), process_noise=process_noise)
            pooled.append(result.aoa_error[:, skip_cycles:].ravel())
        err = np.concatenate(pooled)
        mad = np.median(np.abs(err - np.median(err)))
        stds.append(max(1.4826 * float(mad), 1e-6))
    return NoiseTable(snr_grid_db, np.asarray(stds))


def plot_data(
    out_dir,
    base_config: SimConfig,
    models: dict[str, PredictorModel] | None = None,
    variants=("proposed_csi_imu", "proposed_csi", "ekf", "lms"),
    snr_values=(3.0, 6.0, 9.0, 12.0, 15.0),
    t_csi_values=(40, 80, 160, 320),
    a_avg_values=(0.1 * np.pi, 0.2 * np.pi, 0.4 * np.pi),
    trials: int = 10,
    master_seed: int = 0,
) -> list[str]:
    """Write per-figure CSVs (metric vs axis, one row per variant point)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        ("snr_db", snr_values, [("nmse_vs_snr.csv", "mean_nmse_db"), ("ber_vs_snr.csv", "mean_ber")]),
        ("t_csi", t_csi_values, [("nmse_vs_t_csi.csv", "mean_nmse_db")]),
        ("a_avg", a_avg_values, [("nmse_vs_a_avg.csv", "mean_nmse_db")]),
    ]
    written = []
    process_noises: dict[tuple, float] = {}  # the sweeps share the base point
    for axis, values, figures in jobs:
        rows = run_sweep(
            base_config, axis, values, variants, trials,
            master_seed=master_seed, models=models, process_noises=process_noises,
        )
        means = [r for r in rows if r["status"] == "aggregate"]
        for fname, metric in figures:
            path = os.path.join(out_dir, fname)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([axis, "variant", metric])
                for r in means:
                    writer.writerow([r["axis_value"], r["variant"], r[metric]])
            written.append(path)
    return written
