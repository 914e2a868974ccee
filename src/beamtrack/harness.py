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
sensor noise, and pilot noise draws (paired comparisons). A sweep therefore
draws each (value, trial) once and shares the draw (gains, angles, sensor
blocks, initial estimates) among its variants; the pilot and BER generators
are not part of a draw, and each variant's episode opens them fresh.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from scipy.special import erfc

from .arrays import ArrayGeometry, _steering, make_codebook
from .beamctl import _check_beam_count
from .mobility import MobilityParams, generate_trajectory, synthesize_imu
from .predictor import (  # noqa: F401 - perfbench/tracer.py wraps load_checkpoint here
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
    "run_episodes",
    "run_sweep",
    "check_model",
    "calibrate_estimate_noise",
    "plot_data",
    "episode_seed",
]

VARIANTS = ("proposed_csi_imu", "proposed_csi", "ekf", "lms", "genie")

NMSE_FLOOR_DB = -100.0

# Width of the departure cluster around the known departure angle.
AOD_CLUSTER_WIDTH = 2.0 / 64.0

# Stream tags for per-episode substreams (variant-independent by design).
_TRAJ, _PILOT, _IMU, _INIT, _BER = 1, 2, 3, 4, 5


def _check_variants(variants) -> None:
    """A ValueError naming the first of `variants` that is not in VARIANTS."""
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


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
    init_error_std: float = 0.01
    lms_step: float = 0.01
    ber_mode: str = "analytic"  # or "montecarlo"
    mc_bits_per_slot: int = 1

    def __post_init__(self):
        _check_variants([self.variant])
        for name in ("num_paths", "t_csi", "k_samples", "num_cycles", "mc_bits_per_slot"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.t_csi % self.k_samples != 0:
            raise ValueError("t_csi must be divisible by k_samples")
        # A NaN or -inf SNR or a NaN step would die in the first measurement
        # update, a negative spread in the episode draw; +inf SNR is noiseless.
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError(f"snr_db must be a number or +inf, got {self.snr_db}")
        if not np.isfinite(self.lms_step):
            raise ValueError(f"lms_step must be finite, got {self.lms_step}")
        for name in ("init_error_std", "init_velocity_std"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        self.mobility_params()  # checks dt and drive_var
        if self.ber_mode not in ("analytic", "montecarlo"):
            raise ValueError(f"unknown ber_mode {self.ber_mode!r}")
        _check_beam_count(self.codebook_size, self.m_b, "m_b", receive=False)
        _check_beam_count(self.codebook_size, self.m_m, "m_m", receive=True)

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
    ber: np.ndarray | None  # (num_cycles,); None when the sweep scored no BER
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


def normalized_mse(h_true: np.ndarray, h_est: np.ndarray):
    """10*log10(||H - Hhat||_F^2 / ||H||_F^2), floored at -100 dB, per matrix
    of (..., N_rx, N_tx) stacks."""
    denom = np.sum(h_true.real**2 + h_true.imag**2, axis=(-2, -1))
    if np.any(denom == 0.0):
        raise ValueError("true channel has zero norm")
    err = h_true - h_est
    ratio = np.sum(err.real**2 + err.imag**2, axis=(-2, -1)) / denom
    floor = 10.0 ** (NMSE_FLOOR_DB / 10.0)
    with np.errstate(divide="ignore"):
        nmse_db = 10.0 * np.log10(ratio)
    return np.where(ratio <= floor, NMSE_FLOOR_DB, nmse_db)[()]


def bit_error_rate_mc(gain_mag, noise_var: float, num_bits: int, rng: np.random.Generator):
    """Monte Carlo BPSK error rate at effective amplitude |g|, per entry of
    an array of amplitudes; a float gives a float.

    The matched-filter statistic is |g| + N(0, noise_var/2) for a +1 bit, so
    a bit errors when the noise pushes it negative. One call draws what
    per-entry calls would, in the same order.
    """
    gain_mag = np.asarray(gain_mag, dtype=np.float64)
    if noise_var == 0.0:
        return np.zeros(gain_mag.shape)[()]
    noise = rng.normal(0.0, np.sqrt(noise_var / 2.0), size=gain_mag.shape + (num_bits,))
    return np.mean(gain_mag[..., None] + noise < 0.0, axis=-1)[()]


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag)))


def _noise_var(snr_db: float) -> float:
    return float(10.0 ** (-snr_db / 10.0))


def _channel_from_angles(gains, aoas, geom_rx, a_t) -> np.ndarray:
    """A_r(aoas) diag(gains) A_t^H for the episode's transmit steering table
    A_t; aoas (..., L) gives one channel per row, (..., N_rx, N_tx)."""
    a_r = _steering(geom_rx, aoas)
    return (a_r * np.asarray(gains)) @ a_t.conj().swapaxes(-1, -2)


def _rx_gains(w: np.ndarray, geom_rx: ArrayGeometry, thetas: np.ndarray) -> np.ndarray:
    """w^H a(theta) elementwise over thetas (..., L, slots), one combiner
    w (..., N) per leading index.

    With z = exp(j kappa theta), w^H a(theta) = sum_k conj(w_k) z^k / sqrt(N),
    evaluated by Horner's rule: one exponential per angle instead of N.
    """
    z = np.exp(1j * geom_rx.spatial_freq * np.asarray(thetas))
    coeffs = w.conj()[..., None, None, :]
    acc = np.empty(z.shape, dtype=np.complex128)
    acc[...] = coeffs[..., -1]
    for k in range(geom_rx.num_elements - 2, -1, -1):
        acc *= z
        acc += coeffs[..., k]
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
):
    """Mean BER over one cycle with the estimate's top singular pair.

    The estimate h_est = A_r diag(gains) A_t^H has rank at most L. With thin
    QR factors A_r = Q_r R_r and A_t = Q_t R_t (tx_r is R_t, fixed for the
    episode), h_est = Q_r (R_r diag(gains) R_t^H) Q_t^H, so its top singular
    pair comes from the SVD of the L x L core: w = Q_r u and f = Q_t v.
    The transmit gains A_t^H f reduce to R_t^H v.

    Cycles of one episode stack along leading axes, est_aoas (..., L) and
    aoa_slots (..., L, slots); Monte Carlo draws follow them in order, one
    `bit_error_rate_mc` call per cycle.
    """
    q_r, r_r = np.linalg.qr(_steering(geom_rx, est_aoas))
    tx_h = tx_r.conj().swapaxes(-1, -2)
    u, _, vh = np.linalg.svd((r_r * gains) @ tx_h)
    w = (q_r @ u[..., :, :1])[..., 0]
    tx_gain = (tx_h @ vh[..., 0, :].conj()[..., None])[..., 0]  # (..., L): a_t(aod_l)^H f
    rx = _rx_gains(w, geom_rx, aoa_slots)  # (..., L, slots)
    g = ((gains * tx_gain)[..., None, :] @ rx)[..., 0, :]
    if noise_var == 0.0:
        return np.zeros(g.shape[:-1])[()]
    mag = np.abs(g)  # (..., slots)
    if config.ber_mode == "analytic":
        return np.mean(qfunc(np.sqrt(2.0 * mag**2 / noise_var)), axis=-1)[()]
    rates = [bit_error_rate_mc(cycle, noise_var, config.mc_bits_per_slot, ber_rng)
             for cycle in mag.reshape(-1, mag.shape[-1])]
    return np.mean(rates, axis=-1).reshape(mag.shape[:-1])[()]


def _build_tracker(
    configs,
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
    """The tracker of a batch; an LMS tracker takes each episode's `lms_step`."""
    config = configs[0]
    common = dict(
        codebook=codebook, gains=gains, aods=aods, known_aod=known_aod,
        geom_rx=geom_rx, geom_tx=geom_tx,
    )
    if config.variant in ("proposed_csi_imu", "proposed_csi"):
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
            means, step_size=[cfg.lms_step for cfg in configs],
            num_tx=config.m_b, num_rx=config.m_m, **common,
        )
    return GenieTracker()


def check_model(model: PredictorModel | None, variant: str, k_samples: int) -> None:
    """Refuse to run `variant` on `model`: a proposed variant needs a model,
    built for the config's sensor blocks (a ValueError names both sample
    counts). A baseline variant runs no model, so any model, or none, passes
    for it."""
    if not variant.startswith("proposed"):
        return
    if model is None:
        raise ValueError("proposed variants need a model")
    if model.k_samples != k_samples:
        raise ValueError(
            f"the {variant} model takes k_samples={model.k_samples} sensor samples per "
            f"cycle; the config sets k_samples={k_samples}"
        )


@dataclass
class _Episode:
    """One episode's draws: the path geometry and its truth. It holds no
    generator, so one draw serves every variant of a (seed, point)."""

    gains: np.ndarray  # (L,) unit-modulus path gains
    known_aod: float  # departure cluster centre, known to the trackers
    aods: np.ndarray  # (L,)
    aoa: np.ndarray  # (L, num_cycles * t_csi) true arrival angle per slot
    blocks: np.ndarray  # (L, num_cycles, 2 * k_samples) scaled sensor blocks
    init_means: np.ndarray  # (L,) trackers' initial estimates


def _draw_episode(config: SimConfig) -> _Episode:
    """Path gains (unit modulus, random phase), a departure cluster (per-path
    departure angles inside a narrow window around a common center, which
    the trackers know), a mobility trajectory with its sensor blocks, and
    initial estimates: the true angles perturbed by init_error_std."""
    init_rng = _stream(config.seed, _INIT)
    num_paths = config.num_paths
    gains = np.exp(1j * init_rng.uniform(0.0, 2.0 * np.pi, size=num_paths))
    known_aod = float(init_rng.uniform(-0.8, 0.8))
    half = AOD_CLUSTER_WIDTH / 2.0
    aods = np.clip(known_aod + init_rng.uniform(-half, half, size=num_paths), -1.0, 1.0)
    init_aoa = init_rng.uniform(-0.8, 0.8, size=num_paths)
    init_vel = init_rng.normal(config.a_avg, config.init_velocity_std, size=num_paths)

    traj = generate_trajectory(
        config.mobility_params(), num_paths, config.num_cycles * config.t_csi,
        _stream(config.seed, _TRAJ), init_aoa=init_aoa, init_velocity=init_vel,
    )
    imu = synthesize_imu(
        traj, config.k_samples, config.t_csi, config.imu_snr_db, _stream(config.seed, _IMU)
    )
    init_means = traj.aoa[:, 0] + init_rng.normal(0.0, config.init_error_std, size=num_paths)
    return _Episode(
        gains, known_aod, aods, traj.aoa, scale_sensor_block(imu, config.t_csi * config.dt),
        init_means,
    )


# The fields that fix a batch's array shapes, and the variant, which picks its
# tracker. Every other field feeds only an episode's own draws, truth, tracker
# parameters, process noise or scoring, and may differ within a batch.
_SHARED_FIELDS = frozenset({
    "variant", "n_b", "n_m", "num_paths", "m_b", "m_m", "codebook_size", "k_samples",
    "num_cycles",
})


def _shared_key(config: SimConfig) -> tuple:
    """(name, value) of each shared field, in SimConfig's field order."""
    return tuple((f.name, getattr(config, f.name)) for f in fields(SimConfig)
                 if f.name in _SHARED_FIELDS)


def _process_noises(configs, cache: dict) -> list[float]:
    """Each config's calibrated process noise. `cache` maps (mobility params,
    t_csi, num_paths) to a calibration and is filled as needed, so each
    distinct key is calibrated once, in the order the configs first name it."""
    noises = []
    for cfg in configs:
        key = (cfg.mobility_params(), cfg.t_csi, cfg.num_paths)
        if key not in cache:
            params, t_csi, num_paths = key
            cache[key] = calibrate_process_noise(params, t_csi, num_paths=num_paths)
        noises.append(cache[key])
    return noises


def _track(configs, model, process_noise, episodes=None):
    """Track a batch of episodes in lockstep, one tracker call per cycle.

    The configs agree in the shared fields (see `run_episodes`); `episodes`
    are their draws, made here when None. Returns the draws, the estimates
    and the true angles at the cycle boundaries, both (B, L, num_cycles).
    """
    base = configs[0]
    if process_noise is None:
        process_noise = _process_noises(configs, {})
    process_noise = np.asarray(process_noise, dtype=np.float64)
    if process_noise.shape not in ((), (len(configs),)):
        raise ValueError("process_noise must be one value or one per episode")
    geom_rx = ArrayGeometry(base.n_m)
    geom_tx = ArrayGeometry(base.n_b)
    if episodes is None:
        episodes = [_draw_episode(cfg) for cfg in configs]

    gains = np.stack([ep.gains for ep in episodes])
    aods = np.stack([ep.aods for ep in episodes])
    # (B, L, num_cycles): each episode's angles at its own cycle boundaries
    truth = np.stack([ep.aoa[:, :: cfg.t_csi] for cfg, ep in zip(configs, episodes)])
    blocks = np.stack([ep.blocks for ep in episodes])
    init_var = np.array([[max(cfg.init_error_std**2, 1e-6)] for cfg in configs])
    tracker = _build_tracker(
        configs, model, np.stack([ep.init_means for ep in episodes]),
        np.broadcast_to(init_var, gains.shape), make_codebook(base.codebook_size), gains, aods,
        [ep.known_aod for ep in episodes], geom_rx, geom_tx,
        [_noise_var(cfg.snr_db) for cfg in configs], process_noise,
    )
    snr_db = np.array([cfg.snr_db for cfg in configs])
    pilot_rngs = [_stream(cfg.seed, _PILOT) for cfg in configs]
    no_block = np.zeros(gains.shape + blocks.shape[-1:])
    estimates = np.empty(truth.shape)
    channel = PilotChannel(gains, truth[..., 0], aods, snr_db, pilot_rngs, geom_rx, geom_tx)
    for t in range(base.num_cycles):
        channel.aoas = truth[..., t]
        estimates[..., t] = tracker.step(channel, blocks[:, :, t - 1] if t else no_block).estimates
    return episodes, estimates, truth


# Cycles scored per step; bounds the stacks of channel matrices in memory.
_SCORE_CYCLES = 32


def _score(config: SimConfig, episode: _Episode, estimates, truth, with_ber: bool = True):
    """Per-cycle NMSE and BER of one episode's (L, num_cycles) estimates;
    the BER is None without `with_ber`."""
    geom_rx = ArrayGeometry(config.n_m)
    a_t = _steering(ArrayGeometry(config.n_b), episode.aods)  # departures are fixed
    nmse = np.empty(config.num_cycles)
    ber = None
    if with_ber:
        tx_r = np.linalg.qr(a_t, mode="r")
        noise_var = _noise_var(config.snr_db)
        slots = episode.aoa.reshape(config.num_paths, config.num_cycles, config.t_csi)
        slots = slots.swapaxes(0, 1)
        ber_rng = _stream(config.seed, _BER)
        ber = np.empty(config.num_cycles)
    for start in range(0, config.num_cycles, _SCORE_CYCLES):
        cycles = slice(start, start + _SCORE_CYCLES)
        est, true = estimates[:, cycles].T, truth[:, cycles].T  # (cycles, L)
        nmse[cycles] = normalized_mse(
            _channel_from_angles(episode.gains, true, geom_rx, a_t),
            _channel_from_angles(episode.gains, est, geom_rx, a_t),
        )
        if with_ber:
            ber[cycles] = _cycle_ber(
                config, episode.gains, est, slots[cycles], tx_r, noise_var, geom_rx, ber_rng
            )
    return nmse, ber


def run_episodes(
    configs,
    model: PredictorModel | None = None,
    process_noise=None,
    *,
    _episodes=None,
    _ber: bool = True,
) -> list[EpisodeResult]:
    """Simulate a batch of episodes in lockstep and score each per cycle.

    The configs must agree in the shared fields: `variant`, which picks the
    tracker, and those that fix the batch's array shapes, `n_b`, `n_m`,
    `num_paths`, `m_b`, `m_m`, `codebook_size`, `k_samples` and
    `num_cycles`. A difference in one of them raises a ValueError that
    names it, and so does a model that `check_model` refuses; both come
    before any draw or calibration. Every other field, `seed`, `snr_db`,
    `t_csi`, `a_avg` and `lms_step` among them, may differ from episode to
    episode. `process_noise` is one value for the batch or one per
    episode; None calibrates it once per distinct mobility and cycle length
    in the batch.

    Trackers hold (B, L) state and every stage of a tracking cycle is one
    call for the whole batch, built from per-episode operations only, and
    each episode draws from its own random streams. So every episode's
    result equals, bit for bit, the one it gives alone. Scoring does not
    feed back into tracking: it runs once per episode after the last cycle.

    `_episodes` and `_ber` serve `run_sweep`: the configs' draws, made once
    for all variants, and whether to score BER (False leaves `ber` None).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one episode")
    base = configs[0]
    for cfg in configs[1:]:
        differ = [name for (name, a), (_, b) in zip(_shared_key(cfg), _shared_key(base)) if a != b]
        if differ:
            raise ValueError(f"episodes of one batch must share {differ}")
    check_model(model, base.variant, base.k_samples)
    fingerprint = model_fingerprint(model) if base.variant.startswith("proposed") else None
    episodes, estimates, truth = _track(configs, model, process_noise, _episodes)
    results = []
    for cfg, episode, est, true in zip(configs, episodes, estimates, truth):
        nmse, ber = _score(cfg, episode, est, true, _ber)
        digest = cfg.digest(fingerprint)
        results.append(EpisodeResult(nmse, ber, est - true, cfg.variant, cfg.seed, digest))
    return results


def run_episode(
    config: SimConfig,
    model: PredictorModel | None = None,
    process_noise: float | None = None,
) -> EpisodeResult:
    """Simulate one tracking episode and score it per cycle: the batch of one
    of `run_episodes`."""
    return run_episodes([config], model=model, process_noise=process_noise)[0]


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


def _run_cell(configs, model, process_noises, episodes, ber: bool) -> list:
    """Each config's EpisodeResult, or the exception its episode raised. The
    episodes run as one batch, each with its process noise and draw; if the
    batch raises, a RuntimeWarning names its size and the exception, and
    they run again one at a time, so that one bad episode fails alone."""
    try:
        return run_episodes(
            configs, model=model, process_noise=process_noises, _episodes=episodes, _ber=ber
        )
    except Exception as exc:  # noqa: BLE001 - sweep must survive bad cells
        warnings.warn(
            f"a batch of {len(configs)} episodes raised {type(exc).__name__}: {exc}; "
            "running its episodes one at a time",
            RuntimeWarning,
            stacklevel=2,
        )
        outcomes = []
        for cfg, noise, episode in zip(configs, process_noises, episodes):
            try:
                outcomes.append(run_episodes(
                    [cfg], model=model, process_noise=noise, _episodes=[episode], _ber=ber,
                )[0])
            except Exception as exc:  # noqa: BLE001
                outcomes.append(exc)
        return outcomes


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
    *,
    ber: bool = True,
) -> list[dict]:
    """Grid of episodes over one config axis, with per-trial and mean rows.

    Returns the CSV rows as dicts and, when out_path is given, writes them.
    The points that agree in every shared field form a batch group; a sweep
    over a shared field has one group per point. A group's episodes are
    drawn once, one draw per (point, trial), and run as one `run_episodes`
    batch per variant; only one group's draws are held at a time. With
    `ber=False` no BER is computed and every `mean_ber` is empty.
    A failed draw or episode, or every episode of a point whose config
    SimConfig rejects, is recorded with status "error:<Type>: <message>" and
    empty metrics; the sweep keeps going. Mean rows average the successful
    trials. Rows come in (value, variant, trial) order. Process noise is
    calibrated once per distinct mobility model, cycle length and path count
    among the sweep points; a caller running several sweeps passes one
    `process_noises` dict to all of them, keyed by (mobility params, t_csi,
    num_paths), to calibrate once across them. An unknown axis or variant,
    trials < 1, or a model that `check_model` refuses for a point (for the
    base config when SimConfig rejects every point) raises ValueError before
    any work.
    """
    if axis_name not in _FIELD_TYPES:
        raise ValueError(f"unknown config field {axis_name!r}")
    _check_variants(variants)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    models = models or {}
    columns = [
        "axis_name", "axis_value", "variant", "trial", "seed",
        "mean_nmse_db", "mean_ber", "cycles", "status",
    ]
    values = [_coerce_axis_value(axis_name, value) for value in axis_values]
    points = []  # a point's config, or the error SimConfig raised for it
    for value in values:
        try:
            points.append(replace(base_config, **{axis_name: value}))
        except ValueError as err:
            points.append(err)
    valid = [p for p, point in enumerate(points) if isinstance(point, SimConfig)]
    for variant in variants:  # the base config stands in when every point is rejected
        for config in [points[p] for p in valid] or [base_config]:
            check_model(models.get(variant), variant, config.k_samples)
    cache = {} if process_noises is None else process_noises
    point_noises = dict(zip(valid, _process_noises([points[p] for p in valid], cache)))
    cells = [  # (point index, seed), in (value, trial) order
        (p, episode_seed(master_seed, axis_name, value, trial))
        for p, value in enumerate(values) for trial in range(trials)
    ]
    groups: dict[tuple, list[int]] = {}  # batch group -> its cells
    for k, (p, _) in enumerate(cells):
        if p in point_noises:
            groups.setdefault(_shared_key(points[p]), []).append(k)
    # Each variant's outcome per cell; a rejected point's cells keep its error.
    outcomes = {variant: [points[p] for p, _ in cells] for variant in variants}
    for members in groups.values():
        drawn = {}  # cell -> its draw
        for k in members:
            p, seed = cells[k]
            try:
                drawn[k] = _draw_episode(replace(points[p], seed=seed))
            except Exception as exc:  # noqa: BLE001 - a bad draw fails its own episode
                for variant in variants:
                    outcomes[variant][k] = exc
        if not drawn:
            continue
        for variant in variants:
            batch = _run_cell(
                [replace(points[cells[k][0]], variant=variant, seed=cells[k][1]) for k in drawn],
                models.get(variant), [point_noises[cells[k][0]] for k in drawn],
                list(drawn.values()), ber,
            )
            for k, outcome in zip(drawn, batch):
                outcomes[variant][k] = outcome
    rows: list[dict] = []
    for p, (value, point) in enumerate(zip(values, points)):
        cycles = point.num_cycles if isinstance(point, SimConfig) else ""
        for variant in variants:
            ok_nmse, ok_ber = [], []
            for trial in range(trials):
                k = p * trials + trial
                result = outcomes[variant][k]
                row = {
                    "axis_name": axis_name, "axis_value": _fmt(value),
                    "variant": variant, "trial": str(trial), "seed": str(cells[k][1]),
                    "cycles": str(cycles),
                }
                if isinstance(result, Exception):
                    row["mean_nmse_db"] = ""
                    row["mean_ber"] = ""
                    row["status"] = f"error:{type(result).__name__}: {result}"
                else:
                    row["mean_nmse_db"] = _fmt(result.mean_nmse_db)
                    row["mean_ber"] = _fmt(result.mean_ber) if ber else ""
                    row["status"] = "ok"
                    ok_nmse.append(result.mean_nmse_db)
                    if ber:
                        ok_ber.append(result.mean_ber)
                rows.append(row)
            rows.append({
                "axis_name": axis_name, "axis_value": _fmt(value), "variant": variant,
                "trial": "mean", "seed": "",
                "mean_nmse_db": _fmt(float(np.mean(ok_nmse))) if ok_nmse else "",
                "mean_ber": _fmt(float(np.mean(ok_ber))) if ok_ber else "",
                "cycles": str(cycles), "status": "aggregate",
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
    angle errors to a standard deviation via the median absolute deviation.
    The MAD pools every error, lost paths included: where most paths are out
    of lock it measures their spread, and the table need not fall with SNR
    (ROADMAP item 3). The whole grid of episodes is tracked as one batch, and
    nothing is scored. A skip_cycles that leaves no cycle, an empty grid or
    episodes_per_point < 1 raises ValueError before any work.
    """
    if skip_cycles >= base_config.num_cycles:
        raise ValueError(f"skip_cycles={skip_cycles} skips all {base_config.num_cycles} cycles")
    if episodes_per_point < 1:
        raise ValueError(f"episodes_per_point must be >= 1, got {episodes_per_point}")
    snr_grid_db = np.sort(np.asarray(snr_grid_db, dtype=np.float64))
    if snr_grid_db.size == 0:
        raise ValueError("the SNR grid is empty")
    configs = [
        replace(base_config, variant="ekf", snr_db=float(snr),
                seed=episode_seed(master_seed, "calibration", float(snr), ep))
        for snr in snr_grid_db for ep in range(episodes_per_point)
    ]
    # The grid shares one mobility, so its process noise is calibrated once.
    _, estimates, truth = _track(configs, None, None)
    # One row per grid point: its episodes' errors, path by path, in order.
    pooled = (estimates - truth)[..., skip_cycles:].reshape(snr_grid_db.size, -1)
    stds = []
    for err in pooled:
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
    """Write per-figure CSVs (metric vs axis, one row per variant point).

    BER is computed on the SNR axis only, the one figure that writes it; the
    `t_csi` and `a_avg` sweeps run with `run_sweep(..., ber=False)`. An
    unknown variant, trials < 1, or a model that `check_model` refuses
    raises ValueError before `out_dir` is made.
    """
    import os

    _check_variants(variants)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for variant in variants:
        check_model((models or {}).get(variant), variant, base_config.k_samples)
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
            ber=any(metric == "mean_ber" for _, metric in figures),
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
