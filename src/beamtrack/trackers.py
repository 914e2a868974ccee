"""Per-cycle tracking loops: the learned predictor-in-the-loop tracker, an
extended Kalman baseline, a gradient (LMS) baseline, and a genie reference.

All trackers share one step interface: given pilot access to the true channel
at the cycle boundary and the previous cycle's inertial block, they update
their internal state and report the posterior angle estimates. The proposed
and EKF trackers deliberately share the same measurement-update function;
they differ only in how the predicted belief is formed.

Trackers estimate the arrival angles only: departure angles and path gains
are known and constant over an episode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import filtering
from .arrays import PathState, assemble_channel
from .beamctl import nearest_beams, select_sounding
from .filtering import joint_belief, prediction_update, split_joint
from .measurement import PilotVector, SoundingConfig, receive, _jacobian_from_angles, _measurement_from_angles
from .mobility import MobilityParams, generate_trajectory
from .predictor import InputWindow, PredictorModel, predict

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
    the one consumer allowed to read the underlying angles directly.
    """

    def __init__(self, gains, aoas, aods, snr_db, rng, geom_rx, geom_tx):
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.aoas = np.asarray(aoas, dtype=np.float64)
        self.aods = np.asarray(aods, dtype=np.float64)
        self.snr_db = float(snr_db)
        self.rng = rng
        self.geom_rx = geom_rx
        self.geom_tx = geom_tx

    def paths(self) -> list[PathState]:
        return [
            PathState(g, a, d) for g, a, d in zip(self.gains, self.aoas, self.aods)
        ]

    def receive(self, sounding: SoundingConfig) -> PilotVector:
        h = assemble_channel(self.paths(), self.geom_rx, self.geom_tx)
        return receive(h, sounding, self.snr_db, self.rng, self.geom_rx, self.geom_tx)


@dataclass
class CycleRecord:
    """Per-cycle tracker output."""

    estimates: np.ndarray  # (L,) posterior arrival-angle estimates
    sounding: SoundingConfig | None
    used_predictor: bool = False


class _KalmanTracker:
    """Shared plumbing for the trackers that run a Kalman measurement update.

    The tracked state is each path's marginal belief over its arrival angle,
    held as two (L,) arrays, `means` and `variances`. The measurement update
    is joint over the paths; its cross-path terms are dropped after it.
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
        self.aods = np.asarray(aods, dtype=np.float64)
        self.known_aod = float(known_aod)
        self.geom_rx = geom_rx
        self.geom_tx = geom_tx
        self.noise_var = float(noise_var)
        self.process_noise = float(process_noise)
        self.num_tx = num_tx
        self.num_rx = num_rx
        self._steps = 0
        if self.means.shape != self.gains.shape or self.variances.shape != self.gains.shape:
            raise ValueError("need one mean and one variance per path")

    @property
    def num_paths(self) -> int:
        return self.gains.size

    def _identity_prediction(self, shift) -> tuple[np.ndarray, np.ndarray]:
        """Identity-dynamics prior (means, variances): each path's mean moved
        by its `shift`, its variance inflated by `process_noise`. No inflation
        is applied on the very first step: the initial belief describes the
        state at that same instant, before any motion has accrued."""
        inflate = self.process_noise if self._steps > 0 else 0.0
        return self.means + shift, self.variances + inflate

    def _measure(self, means: np.ndarray, variances: np.ndarray, channel: PilotChannel):
        joint = joint_belief(means, variances)
        selection = select_sounding(
            joint, self.codebook, self.gains, self.noise_var,
            self.geom_rx, self.geom_tx, known_aod=self.known_aod,
            num_tx=self.num_tx, num_rx=self.num_rx,
        )
        sounding = selection.to_sounding(self.codebook)
        pilot = channel.receive(sounding)
        posterior = self._measurement_update(
            joint, pilot, sounding, self.gains, self.geom_rx, self.geom_tx, self.aods,
        )
        self.means, self.variances = split_joint(posterior)
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

    A `predict_fn` given in place of a model maps one window to a state; it
    is lifted to the batched form with `filtering.per_window`.
    """

    def __init__(self, means, variances, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                 noise_var, process_noise, model: PredictorModel | None = None,
                 predict_fn=None, delta=None, use_imu=True, block_width=None,
                 prediction_noise=None, **kw):
        super().__init__(means, variances, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                         noise_var, process_noise, **kw)
        if model is None and predict_fn is None:
            raise ValueError("provide a predictor model or a predict_fn")
        if delta is None and model is None:
            raise ValueError("a predict_fn needs delta, the number of cycles its windows cover")
        self.predict_fn = (
            partial(predict, model) if predict_fn is None else filtering.per_window(predict_fn)
        )
        self.delta = int(delta if delta is not None else model.delta)
        if block_width is None:
            block_width = model.k_samples * model.j_channels if model is not None else 0
        self.block_width = int(block_width)
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
            sensor_block = np.zeros((self.num_paths, self.block_width))
        sensor_block = np.asarray(sensor_block, dtype=np.float64)
        if not self.use_imu:
            sensor_block = np.zeros_like(sensor_block)
        self._blocks_hist.append(sensor_block)

        warm = len(self._estimates_hist) >= self.delta
        if warm:
            est_hist = np.stack(list(self._estimates_hist))  # (delta, L)
            blocks = np.stack(list(self._blocks_hist))  # (delta, L, KJ)
            windows = [
                InputWindow(past_estimates=est_hist[:, l : l + 1], sensor_blocks=blocks[:, l])
                for l in range(self.num_paths)
            ]
            means, covs = prediction_update(
                (self.means[:, None], self.variances[:, None, None]), windows, self.predict_fn
            )
            predicted = means[:, 0], covs[:, 0, 0] + self.prediction_noise
        else:
            shift = 0.0
            if self.use_imu and self._steps > 0 and self.block_width:
                k = self.block_width // 2
                shift = sensor_block[:, :k].mean(axis=1)  # per-cycle angle units
            predicted = self._identity_prediction(shift)
        sounding = self._measure(*predicted, channel)
        self._steps += 1
        self._estimates_hist.append(self.estimates())
        return CycleRecord(self.estimates(), sounding, used_predictor=warm)


class LmsTracker:
    """Gradient tracker: point estimates nudged along the pilot-error slope.

    Receive beams are the codebook entries nearest the strongest path's
    current estimate; the update is est_l += mu * Re(o_l^H residual) with o_l
    the arrival-angle pilot Jacobian column.
    """

    def __init__(self, estimates, codebook, gains, aods, known_aod, geom_rx, geom_tx,
                 step_size=0.01, num_tx=2, num_rx=2):
        self.est = np.asarray(estimates, dtype=np.float64).copy()
        self.codebook = codebook
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.aods = np.asarray(aods, dtype=np.float64)
        self.geom_rx = geom_rx
        self.geom_tx = geom_tx
        self.step_size = float(step_size)
        self.num_rx = num_rx
        self._ref_path = int(np.argmax(np.abs(self.gains)))
        self._tx_idx = nearest_beams(float(known_aod), codebook, num_tx)

    def step(self, channel: PilotChannel, sensor_block=None) -> CycleRecord:
        rx_idx = nearest_beams(float(self.est[self._ref_path]), self.codebook, self.num_rx)
        sounding = SoundingConfig(
            tx_angles=self.codebook.angles[self._tx_idx],
            rx_angles=self.codebook.angles[rx_idx],
        )
        pilot = channel.receive(sounding)
        predicted = _measurement_from_angles(
            self.gains, self.est, self.aods, sounding, self.geom_rx, self.geom_tx
        )
        jac = _jacobian_from_angles(
            self.gains, self.est, self.aods, sounding, self.geom_rx, self.geom_tx
        )
        residual = pilot.values - predicted
        self.est += self.step_size * (jac.conj().T @ residual).real
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
    """
    rng = np.random.default_rng(seed)
    traj = generate_trajectory(params, num_paths, num_cycles * t_csi, rng)
    boundary = traj.aoa[:, ::t_csi]
    increments = np.diff(boundary, axis=1)
    return float(np.quantile(increments**2, quantile))
