"""Per-cycle tracking loops: the learned predictor-in-the-loop tracker, an
extended Kalman baseline, a gradient (LMS) baseline, and a genie reference.

All trackers share one step interface: given pilot access to the true channel
at the cycle boundary and the previous cycle's inertial block, they update
their internal state and report the posterior angle estimates. The proposed
and EKF trackers deliberately share the same measurement-update function;
they differ only in how the predicted belief is formed.

Trackers estimate the arrival angles only: departure angles and path gains
are known and constant over an episode.

A tracker steps one episode, with (L,) arrays per path, or a batch of B
episodes in lockstep, with (B, L) arrays: each stage of a cycle is then one
call for the whole batch, written with per-episode operations only, so an
episode's numbers do not depend on the other episodes of its batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import filtering
from .arrays import assemble_channel
from .beamctl import _transmit_side, nearest_beams, select_sounding
from .filtering import joint_belief, split_joint  # noqa: F401 - perfbench/tracer.py wraps them here
from .filtering import prediction_update
from .measurement import (  # noqa: F401 - perfbench/tracer.py wraps the two from-angles maps here
    PilotVector,
    SoundingConfig,
    _jacobian_from_angles,
    _measurement_from_angles,
    _pilot_map,
    _receive_factors,
    _transmit_factors,
    receive,
)
from .mobility import (  # noqa: F401 - perfbench/tracer.py wraps generate_trajectory here
    MobilityParams,
    _angle_chunks,
    generate_trajectory,
)
from .predictor import PredictorModel, predict

__all__ = [
    "PilotChannel",
    "CycleRecord",
    "ProposedTracker",
    "EkfTracker",
    "LmsTracker",
    "GenieTracker",
    "calibrate_process_noise",
]


class PilotChannel:
    """Pilot access to the true channel at one cycle boundary.

    Trackers see the truth only through noisy pilots; the genie reference is
    the one consumer allowed to read the underlying angles directly. For a
    batch of B episodes the path arrays are (B, L), `snr_db` holds one SNR
    and `rng` one generator per episode.
    """

    def __init__(self, gains, aoas, aods, snr_db, rng, geom_rx, geom_tx):
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.aoas = np.asarray(aoas, dtype=np.float64)
        self.aods = np.asarray(aods, dtype=np.float64)
        self.snr_db = snr_db
        self.rng = rng
        self.geom_rx = geom_rx
        self.geom_tx = geom_tx

    def receive(self, sounding: SoundingConfig) -> PilotVector:
        h = assemble_channel((self.gains, self.aoas, self.aods), self.geom_rx, self.geom_tx)
        return receive(h, sounding, self.snr_db, self.rng, self.geom_rx, self.geom_tx)


@dataclass
class CycleRecord:
    """Per-cycle tracker output."""

    estimates: np.ndarray  # (..., L) posterior arrival-angle estimates
    sounding: SoundingConfig | None
    used_predictor: bool = False


class _KalmanTracker:
    """Shared plumbing for the trackers that run a Kalman measurement update.

    The tracked state is each path's marginal belief over its arrival angle,
    held as two (..., L) arrays, `means` and `variances`. The measurement
    update is joint over the paths; its cross-path terms are dropped after
    it. For a batch, `known_aod` and `noise_var` hold one value per episode,
    and `process_noise` one value per episode or one for all.

    The transmit side stays fixed over an episode, so it is computed once
    here: the transmit beams and selection's transmit Gram matrix, which
    scores every path at the cluster centre `known_aod`, and the
    measurement update's transmit factors at the per-path `aods`. Each
    cycle then evaluates only the receive factors, once, in selection.
    """

    # One shared function object on purpose: the proposed tracker and the EKF
    # baseline must not drift apart in their measurement handling.
    _measurement_update = staticmethod(filtering.measurement_update)

    def __init__(self, means, variances, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                 noise_var, process_noise, num_tx=2, num_rx=2):
        self.means = np.array(means, dtype=np.float64)
        self.variances = np.array(variances, dtype=np.float64)
        self.codebook = codebook
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.known_aod = np.asarray(known_aod, dtype=np.float64)
        self.geom_rx = geom_rx
        self.geom_tx = geom_tx
        self.noise_var = np.asarray(noise_var, dtype=np.float64)
        self.process_noise = np.asarray(process_noise, dtype=np.float64)
        self.num_rx = num_rx
        self._steps = 0
        if self.means.shape != self.gains.shape or self.variances.shape != self.gains.shape:
            raise ValueError("need one mean and one variance per path")
        if self.process_noise.shape not in ((), self.gains.shape[:-1]):
            raise ValueError("process_noise must be one value or one per episode")
        self._selection_tx = _transmit_side(
            codebook, self.gains, geom_rx, geom_tx, self.known_aod, num_tx=num_tx
        )
        aods = np.asarray(aods, dtype=np.float64)
        tx_angles = codebook.angles[self._selection_tx[0]]
        self._update_tx = _transmit_factors(self.gains, aods, tx_angles, geom_rx, geom_tx)

    @property
    def num_paths(self) -> int:
        return self.gains.shape[-1]

    def _identity_prediction(self, shift) -> tuple[np.ndarray, np.ndarray]:
        """Identity-dynamics prior (means, variances): each path's mean moved
        by its `shift`, its variance inflated by its episode's `process_noise`.
        No inflation is applied on the very first step: the initial belief
        describes the state at that same instant, before any motion has
        accrued."""
        inflate = self.process_noise[..., None] if self._steps > 0 else 0.0
        return self.means + shift, self.variances + inflate

    def _measure(self, means: np.ndarray, variances: np.ndarray, channel: PilotChannel):
        prior = means, variances
        selection = select_sounding(
            prior, self.codebook, self.gains, self.noise_var,
            self.geom_rx, self.geom_tx, known_aod=self.known_aod,
            num_rx=self.num_rx, transmit=self._selection_tx,
        )
        sounding = selection.to_sounding(self.codebook)
        pilot = channel.receive(sounding)
        self.means, self.variances = self._measurement_update(
            prior, pilot, *_pilot_map(*self._update_tx, *selection.rx_factors)
        )
        return sounding

    def estimates(self) -> np.ndarray:
        return self.means.copy()


class EkfTracker(_KalmanTracker):
    """Identity-dynamics extended Kalman tracker.

    The prediction step keeps the mean and inflates each path's variance by
    `process_noise`, the calibrated per-cycle angle movement.
    """

    def step(self, channel: PilotChannel, sensor_block=None) -> CycleRecord:
        sounding = self._measure(*self._identity_prediction(0.0), channel)
        self._steps += 1
        return CycleRecord(self.estimates(), sounding)


class ProposedTracker(_KalmanTracker):
    """Tracker with the learned predictor propagated by the unscented transform.

    Until the history buffer holds `delta` (estimate, sensor-block) pairs the
    prediction falls back to the identity rule with `process_noise` variance
    inflation, dead-reckoned by the sensor block's mean velocity when sensors
    are in use, after which every path's belief is pushed through the
    predictor, all sigma-point windows in one call. With use_imu=False the
    sensor entries of every window are zeroed (the CSI-only variant).

    A `predict_fn` given in place of a model takes the stacked windows
    (past (N, delta, 1), sensors (N, delta, KJ)) and returns the (N, 1)
    next-cycle states, as partial(predict, model) does. The sensor width KJ
    is that of the blocks `step` is given; a step without a block uses
    zeros of the model's width, or of width 0 with a bare `predict_fn`.
    """

    def __init__(self, means, variances, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                 noise_var, process_noise, model: PredictorModel | None = None,
                 predict_fn=None, delta=None, use_imu=True, prediction_noise=None, **kw):
        super().__init__(means, variances, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                         noise_var, process_noise, **kw)
        if model is None and predict_fn is None:
            raise ValueError("provide a predictor model or a predict_fn")
        if delta is None and model is None:
            raise ValueError("a predict_fn needs delta, the number of cycles its windows cover")
        self.predict_fn = partial(predict, model) if predict_fn is None else predict_fn
        self.delta = int(delta if delta is not None else model.delta)
        self._no_block_width = model.k_samples * model.j_channels if model is not None else 0
        self.use_imu = use_imu
        if prediction_noise is None:
            if model is not None and model.prediction_var is not None:
                prediction_noise = model.prediction_var
            else:
                prediction_noise = 0.0
        self.prediction_noise = float(np.asarray(prediction_noise, dtype=np.float64).item())
        self._estimates_hist: deque = deque(maxlen=self.delta)
        self._blocks_hist: deque = deque(maxlen=self.delta)

    def step(self, channel: PilotChannel, sensor_block=None) -> CycleRecord:
        if sensor_block is None:
            sensor_block = np.zeros(self.means.shape + (self._no_block_width,))
        sensor_block = np.asarray(sensor_block, dtype=np.float64)
        if not self.use_imu:
            sensor_block = np.zeros_like(sensor_block)
        self._blocks_hist.append(sensor_block)

        width = sensor_block.shape[-1]
        warm = len(self._estimates_hist) >= self.delta
        if warm:
            # One window per path of every episode, in (episode, path) order.
            windows = self.means.size
            past = np.stack(list(self._estimates_hist), axis=-1).reshape(windows, self.delta, 1)
            sensors = np.stack(list(self._blocks_hist), axis=-2).reshape(windows, self.delta, width)
            means, covs = prediction_update(
                (self.means.reshape(-1, 1), self.variances.reshape(-1, 1, 1)),
                (past, sensors), self.predict_fn,
            )
            shape = self.means.shape
            predicted = means.reshape(shape), covs.reshape(shape) + self.prediction_noise
        else:
            shift = 0.0
            if self.use_imu and self._steps > 0 and width:
                shift = sensor_block[..., : width // 2].mean(axis=-1)  # per-cycle angle units
            predicted = self._identity_prediction(shift)
        sounding = self._measure(*predicted, channel)
        self._steps += 1
        self._estimates_hist.append(self.estimates())
        return CycleRecord(self.estimates(), sounding, used_predictor=warm)


class LmsTracker:
    """Gradient tracker: point estimates nudged along the pilot-error slope.

    Receive beams are the codebook entries nearest the strongest path's
    current estimate; the update is est_l += mu * Re(o_l^H residual) with o_l
    the arrival-angle pilot Jacobian column. Arrays may carry a leading
    batch axis, as in the Kalman trackers; `step_size` is then one value
    per episode or one for all.

    The transmit beams, nearest `known_aod`, stay fixed over an episode, so
    the pilot map's transmit factors are computed once here, as in the
    Kalman trackers; each step evaluates only the receive factors.
    """

    def __init__(self, estimates, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                 step_size=0.01, num_tx=2, num_rx=2):
        self.est = np.array(estimates, dtype=np.float64)
        self.codebook = codebook
        self.geom_rx = geom_rx
        self.step_size = np.asarray(step_size, dtype=np.float64)
        self.num_rx = num_rx
        gains = np.asarray(gains, dtype=np.complex128)
        aods = np.asarray(aods, dtype=np.float64)
        self._ref_path = np.argmax(np.abs(gains), axis=-1)[..., None]
        self._tx_idx = nearest_beams(known_aod, codebook, num_tx)
        tx_angles = codebook.angles[self._tx_idx]
        self._tx_factors = _transmit_factors(gains, aods, tx_angles, geom_rx, geom_tx)

    def step(self, channel: PilotChannel, sensor_block=None) -> CycleRecord:
        ref = np.take_along_axis(self.est, self._ref_path, axis=-1)[..., 0]
        rx_idx = nearest_beams(ref, self.codebook, self.num_rx)
        sounding = SoundingConfig(
            tx_angles=self.codebook.angles[self._tx_idx],
            rx_angles=self.codebook.angles[rx_idx],
        )
        pilot = channel.receive(sounding)
        predicted, jac = _pilot_map(*self._tx_factors, *_receive_factors(
            self.est, sounding.rx_angles, self.geom_rx, with_derivatives=True
        ))
        residual = pilot.values - predicted
        slope = (jac.conj().swapaxes(-1, -2) @ residual[..., None])[..., 0]
        self.est += self.step_size[..., None] * slope.real
        return CycleRecord(self.est.copy(), sounding)


class GenieTracker:
    """Reads the true angles; the perfect-tracking reference."""

    def step(self, channel: PilotChannel, sensor_block=None) -> CycleRecord:
        return CycleRecord(channel.aoas.copy(), None)


def calibrate_process_noise(
    params: MobilityParams,
    t_csi: int,
    num_cycles: int = 2000,
    num_paths: int = 3,
    seed: int = 0x5EED,
    quantile: float = 0.9,
) -> float:
    """Upper-quantile squared per-cycle angle increment of the mobility model.

    Uncentered on purpose: the random-walk filter predicts a zero increment,
    so its process noise must absorb the raw movement between cycle
    boundaries, drift included. A high quantile rather than the mean-square
    is used because the angular velocity is strongly correlated across
    cycles: a path that draws a fast velocity keeps it for thousands of
    slots, and a variance sized to the ensemble average starves such a path
    of corrections until it leaves the beam mainlobe and the filter never
    recovers it.

    The probe is a `num_cycles`-cycle trajectory of `num_paths` paths, but
    only its cycle-boundary angles are kept: they are picked from the
    mobility model's chunk stream into a (num_paths, num_cycles) array, and
    the whole trajectory is never held. The result equals the quantile taken
    on `generate_trajectory(...).aoa[:, ::t_csi]` with the same generator,
    bit for bit. It needs `t_csi` >= 1 and two cycles at least, for one
    increment.
    """
    if t_csi < 1:
        raise ValueError(f"t_csi must be >= 1, got {t_csi}")
    if num_cycles < 2:
        raise ValueError(f"num_cycles must be >= 2, got {num_cycles}")
    rng = np.random.default_rng(seed)
    boundary = np.empty((num_paths, num_cycles))
    for l, n, chunk in _angle_chunks(params, num_paths, num_cycles * t_csi, rng):
        first = -n % t_csi
        picked = chunk[first::t_csi]
        start = (n + first) // t_csi
        boundary[l, start : start + picked.size] = picked
    increments = np.diff(boundary, axis=1)
    return float(np.quantile(increments**2, quantile))
