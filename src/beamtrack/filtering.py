"""Gaussian beliefs, scaled sigma points, and the tracking-cycle updates.

The prediction step propagates each path's belief through the (nonlinear)
learned predictor with the scaled unscented transform: 2P+1 sigma points for
state dimension P, spread lam = alpha^2 * P - P, weights

    w0_mean = lam / (P + lam)            w0_cov = w0_mean + (1 - alpha^2 + beta)
    wi      = 1 / (2 (P + lam))          i = 1..2P

with alpha = 1e-3 and beta = 2 by default. Sigma offsets perturb only the most
recent estimate entry of the input window; older entries and sensor samples
are treated as exogenous.

The measurement step is a joint Kalman update across paths on the
real-stacked pilot vector: a complex pilot with noise variance sigma^2
becomes two real measurements with variance sigma^2/2 each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .measurement import (
    PilotVector,
    SoundingConfig,
    _jacobian_from_angles,
    _measurement_from_angles,
)
from .predictor import InputWindow

__all__ = [
    "GaussianBelief",
    "SigmaSet",
    "sigma_points",
    "prediction_update",
    "kalman_update",
    "measurement_update",
    "joint_belief",
    "split_joint",
]

DEFAULT_ALPHA = 1e-3
DEFAULT_BETA = 2.0
DEFAULT_JITTER = 1e-8


# Symmetry tolerances of GaussianBelief: np.allclose(cov, cov.T, rtol, atol).
_SYM_RTOL = 1e-5
_SYM_ATOL = 1e-10


def _is_symmetric(cov: np.ndarray) -> bool:
    """np.allclose(cov, cov.T, rtol=_SYM_RTOL, atol=_SYM_ATOL) without its
    wrapper: NaN fails, and an inf passes only against an equal inf."""
    cov_t = cov.T
    with np.errstate(invalid="ignore"):
        close = (np.abs(cov - cov_t) <= _SYM_ATOL + _SYM_RTOL * np.abs(cov_t)) & np.isfinite(cov_t)
    return bool(np.all(close | (cov == cov_t)))


@dataclass
class GaussianBelief:
    """Mean and covariance of a real-valued state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        d = self.mean.size
        if self.cov.shape != (d, d):
            raise ValueError(f"covariance must be ({d}, {d}), got {self.cov.shape}")
        if d > 1 and not _is_symmetric(self.cov):
            raise ValueError("covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass
class SigmaSet:
    """Sigma points (rows) with their mean and covariance weights."""

    points: np.ndarray  # (2P+1, P)
    mean_weights: np.ndarray
    cov_weights: np.ndarray
    alpha: float
    beta: float


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root S with S @ S = mat, tolerant of PSD rank deficiency."""
    sym = 0.5 * (mat + mat.T)
    eigval, eigvec = np.linalg.eigh(sym)
    scale = max(abs(eigval[-1]), 1.0)
    if eigval[0] < -1e-10 * scale:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {eigval[0]})")
    root = np.sqrt(np.clip(eigval, 0.0, None))
    return (eigvec * root) @ eigvec.T


def sigma_points(
    belief: GaussianBelief, alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA
) -> SigmaSet:
    """Scaled sigma set for the belief; reconstruction recovers mean and cov."""
    p = belief.dim
    scale = alpha**2 * p  # = P + lam with lam = alpha^2 P - P
    lam = scale - p
    root = _psd_sqrt(scale * belief.cov)

    points = np.empty((2 * p + 1, p))
    points[0] = belief.mean
    points[1 : p + 1] = belief.mean + root
    points[p + 1 :] = belief.mean - root

    w_mean = np.full(2 * p + 1, 1.0 / (2.0 * scale))
    w_mean[0] = lam / scale
    w_cov = w_mean.copy()
    w_cov[0] += 1.0 - alpha**2 + beta
    return SigmaSet(points, w_mean, w_cov, alpha, beta)


def prediction_update(
    belief: GaussianBelief,
    window: InputWindow,
    predict_fn,
    jitter: float = DEFAULT_JITTER,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> GaussianBelief:
    """Unscented propagation of one path's belief through the predictor.

    predict_fn maps an InputWindow to the next-cycle state vector. Each sigma
    point replaces the window's most recent estimate entry; the propagated
    set is recombined with the standard weighted sums and a small diagonal
    jitter keeps the predicted covariance positive definite.
    """
    p = belief.dim
    if window.state_dim != p:
        raise ValueError("window state dimension does not match the belief")
    sigma = sigma_points(belief, alpha=alpha, beta=beta)

    outputs = np.empty((2 * p + 1, p))
    for k, point in enumerate(sigma.points):
        estimates = window.past_estimates.copy()
        estimates[-1] = point
        perturbed = InputWindow(estimates, window.sensor_blocks, window.context)
        outputs[k] = np.atleast_1d(predict_fn(perturbed))

    mean = sigma.mean_weights @ outputs
    centered = outputs - mean
    cov = (sigma.cov_weights[:, None] * centered).T @ centered
    cov = 0.5 * (cov + cov.T) + jitter * np.eye(p)
    return GaussianBelief(mean, cov)


def kalman_update(
    mean: np.ndarray,
    cov: np.ndarray,
    observed: np.ndarray,
    predicted: np.ndarray,
    jac: np.ndarray,
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Linear(ized) Gaussian measurement update on real vectors.

    K = P J^T (J P J^T + R)^-1 with R = noise_var * I; the posterior is
    mean + K (observed - predicted) and (I - K J) P, re-symmetrized. Returns
    (mean, cov, regularized); an ill-conditioned innovation covariance is
    ridge-regularized and flagged (with a warning).
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    jac = np.asarray(jac, dtype=np.float64)

    m = observed.size
    innovation_cov = jac @ cov @ jac.T + noise_var * np.eye(m)
    regularized = False
    cond = np.linalg.cond(innovation_cov)
    if not np.isfinite(cond) or cond > 1e12:
        ridge = 1e-12 * max(1.0, float(np.trace(innovation_cov)) / m)
        innovation_cov = innovation_cov + ridge * np.eye(m)
        regularized = True
        warnings.warn(
            f"innovation covariance is ill-conditioned (cond {cond:.3g}); "
            f"applying ridge {ridge:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    gain = cov @ jac.T @ np.linalg.inv(innovation_cov)
    new_mean = mean + gain @ (observed - predicted)
    new_cov = (np.eye(mean.size) - gain @ jac) @ cov
    new_cov = 0.5 * (new_cov + new_cov.T)
    return new_mean, new_cov, regularized


def measurement_update(
    belief: GaussianBelief,
    pilot: PilotVector,
    sounding: SoundingConfig,
    gains: np.ndarray,
    geom_rx,
    geom_tx,
    aods: np.ndarray | None = None,
    mode: str = "aoa_only",
) -> GaussianBelief:
    """Joint Kalman update of the stacked path state from one pilot round.

    In "aoa_only" mode the state is the L arrival angles and `aods` supplies
    the known departure angles; in "full" mode the state stacks per-path
    [aoa, aod] and `aods` is ignored. The complex pilot vector and Jacobian
    are real-stacked (real parts then imaginary parts) with per-component
    noise variance pilot.noise_var / 2.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    num_paths = gains.size
    if mode == "aoa_only":
        if aods is None:
            raise ValueError("aoa_only mode needs the known departure angles")
        if belief.dim != num_paths:
            raise ValueError("belief must stack one arrival angle per path")
        aoas = belief.mean
        aods = np.asarray(aods, dtype=np.float64)
    elif mode == "full":
        if belief.dim != 2 * num_paths:
            raise ValueError("belief must stack [aoa, aod] per path")
        aoas = belief.mean[0::2]
        aods = belief.mean[1::2]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if pilot.values.size != sounding.num_pilots:
        raise ValueError("pilot length does not match the sounding configuration")

    predicted = _measurement_from_angles(gains, aoas, aods, sounding, geom_rx, geom_tx)
    jac_full = _jacobian_from_angles(gains, aoas, aods, sounding, geom_rx, geom_tx)
    if mode == "aoa_only":
        jac = jac_full[:, 1::2]  # arrival-angle columns
    else:
        # Reorder [d/d aod, d/d aoa] pairs into state order [aoa, aod].
        order = np.arange(2 * num_paths).reshape(num_paths, 2)[:, ::-1].ravel()
        jac = jac_full[:, order]

    observed = np.concatenate([pilot.values.real, pilot.values.imag])
    predicted_r = np.concatenate([predicted.real, predicted.imag])
    jac_r = np.vstack([jac.real, jac.imag])
    mean, cov, _ = kalman_update(
        belief.mean, belief.cov, observed, predicted_r, jac_r, pilot.noise_var / 2.0
    )
    return GaussianBelief(mean, cov)


def joint_belief(beliefs: list[GaussianBelief]) -> GaussianBelief:
    """Stack independent per-path beliefs into one block-diagonal belief."""
    dims = [b.dim for b in beliefs]
    total = sum(dims)
    mean = np.concatenate([b.mean for b in beliefs])
    cov = np.zeros((total, total))
    at = 0
    for b in beliefs:
        cov[at : at + b.dim, at : at + b.dim] = b.cov
        at += b.dim
    return GaussianBelief(mean, cov)


def split_joint(belief: GaussianBelief, num_paths: int) -> list[GaussianBelief]:
    """Per-path marginals of a joint belief (cross-path terms are dropped)."""
    p = belief.dim // num_paths
    if p * num_paths != belief.dim:
        raise ValueError("joint dimension is not a multiple of the path count")
    out = []
    for l in range(num_paths):
        sl = slice(l * p, (l + 1) * p)
        out.append(GaussianBelief(belief.mean[sl].copy(), belief.cov[sl, sl].copy()))
    return out
