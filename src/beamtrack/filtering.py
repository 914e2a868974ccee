"""Gaussian beliefs, scaled sigma points, and the tracking-cycle updates.

The prediction step propagates each path's belief through the (nonlinear)
learned predictor with the scaled unscented transform, the sigma points of
all paths in one predictor call: 2P+1 sigma points for state dimension P,
spread lam = alpha^2 * P - P, weights

    w0_mean = lam / (P + lam)            w0_cov = w0_mean + (1 - alpha^2 + beta)
    wi      = 1 / (2 (P + lam))          i = 1..2P

with alpha = 1e-3 and beta = 2 by default. Sigma offsets perturb only the most
recent estimate entry of the input window; older entries and sensor samples
are treated as exogenous.

The measurement step is a joint Kalman update of the L arrival angles on
the real-stacked pilot vector, with the departure angles known: a complex
pilot with noise variance sigma^2 becomes two real measurements with
variance sigma^2/2 each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    "per_window",
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


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root S with S @ S = mat, tolerant of PSD rank
    deficiency. A (..., n, n) stack is rooted slice by slice in one eigh."""
    sym = 0.5 * (mat + mat.swapaxes(-1, -2))
    eigval, eigvec = np.linalg.eigh(sym)
    scale = np.maximum(np.abs(eigval[..., -1]), 1.0)
    lowest = eigval[..., 0]
    if np.any(lowest < -1e-10 * scale):
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lowest.min()})")
    root = np.sqrt(np.clip(eigval, 0.0, None))
    return (eigvec * root[..., None, :]) @ eigvec.swapaxes(-1, -2)


def _sigma_stack(means, covs, alpha, beta):
    """Scaled sigma points of B beliefs, means (B, P) and covs (B, P, P):
    points (B, 2P+1, P) and the mean and covariance weights they share."""
    p = means.shape[1]
    scale = alpha**2 * p  # = P + lam with lam = alpha^2 P - P
    lam = scale - p
    root = _psd_sqrt(scale * covs)

    points = np.empty((means.shape[0], 2 * p + 1, p))
    points[:, 0] = means
    points[:, 1 : p + 1] = means[:, None] + root
    points[:, p + 1 :] = means[:, None] - root

    w_mean = np.full(2 * p + 1, 1.0 / (2.0 * scale))
    w_mean[0] = lam / scale
    w_cov = w_mean.copy()
    w_cov[0] += 1.0 - alpha**2 + beta
    return points, w_mean, w_cov


def sigma_points(
    belief: GaussianBelief, alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA
) -> SigmaSet:
    """Scaled sigma set for the belief; reconstruction recovers mean and cov."""
    points, w_mean, w_cov = _sigma_stack(belief.mean[None], belief.cov[None], alpha, beta)
    return SigmaSet(points[0], w_mean, w_cov)


def per_window(predict_fn):
    """The batched form of a one-window predict_fn: it maps a sequence of
    windows to the (n, P) stack of predict_fn's outputs, one call each."""
    return lambda windows: np.array([np.atleast_1d(predict_fn(w)) for w in windows])


def prediction_update(
    belief,
    window,
    predict_fn,
    jitter: float = DEFAULT_JITTER,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
):
    """Unscented propagation of path beliefs through the predictor.

    Batched form: `belief` is a stacked pair (means (B, P), covs (B, P, P)),
    one row per path, `window` a sequence of B windows, and predict_fn maps
    the list of every path's sigma windows to an (n, P) array of next-cycle
    states in one call, as predictor.predict does. Returns the predicted
    (means, covs) pair.

    One path: `belief` is a GaussianBelief, `window` an InputWindow and
    predict_fn maps one window to a state. This is the batch of one, with
    predict_fn lifted by `per_window`; it returns one GaussianBelief.

    Each sigma point replaces its window's most recent estimate entry; each
    path's propagated set is recombined with the standard weighted sums and
    a small diagonal jitter keeps the predicted covariance positive definite.
    Every product is a stack of per-path products, so a path's prediction
    does not depend on the other rows of the batch.
    """
    if isinstance(belief, GaussianBelief):
        means, covs = prediction_update(
            (belief.mean[None], belief.cov[None]), [window], per_window(predict_fn),
            jitter, alpha, beta,
        )
        return GaussianBelief(means[0], covs[0])
    means, covs = belief
    if means.shape[0] != len(window):
        raise ValueError("need one window per belief")
    p = means.shape[1]
    if any(w.state_dim != p for w in window):
        raise ValueError("window state dimension does not match the belief")
    points, w_mean, w_cov = _sigma_stack(means, covs, alpha, beta)
    perturbed = []
    for w, path_points in zip(window, points):
        for point in path_points:
            estimates = w.past_estimates.copy()
            estimates[-1] = point
            perturbed.append(InputWindow(estimates, w.sensor_blocks))
    rows = np.asarray(predict_fn(perturbed), dtype=np.float64).reshape(points.shape)

    mean = w_mean @ rows
    centered = rows - mean[:, None]
    cov = (w_cov[:, None] * centered).swapaxes(-1, -2) @ centered
    cov = 0.5 * (cov + cov.swapaxes(-1, -2)) + jitter * np.eye(p)
    return mean, cov


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
    aods: np.ndarray,
) -> GaussianBelief:
    """Joint Kalman update of the L arrival angles from one pilot round.

    The belief stacks one arrival angle per path and `aods` holds the known
    departure angles. The complex pilot vector and Jacobian are real-stacked
    (real parts then imaginary parts) with per-component noise variance
    pilot.noise_var / 2.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    if belief.dim != gains.size:
        raise ValueError("belief must stack one arrival angle per path")
    if pilot.values.size != sounding.num_pilots:
        raise ValueError("pilot length does not match the sounding configuration")
    aoas = belief.mean
    aods = np.asarray(aods, dtype=np.float64)

    predicted = _measurement_from_angles(gains, aoas, aods, sounding, geom_rx, geom_tx)
    jac = _jacobian_from_angles(gains, aoas, aods, sounding, geom_rx, geom_tx)

    observed = np.concatenate([pilot.values.real, pilot.values.imag])
    predicted_r = np.concatenate([predicted.real, predicted.imag])
    jac_r = np.vstack([jac.real, jac.imag])
    mean, cov, _ = kalman_update(
        belief.mean, belief.cov, observed, predicted_r, jac_r, pilot.noise_var / 2.0
    )
    return GaussianBelief(mean, cov)


def joint_belief(means: np.ndarray, variances: np.ndarray) -> GaussianBelief:
    """Joint belief of independent per-path arrival angles: the stacked
    means and a diagonal covariance."""
    return GaussianBelief(means, np.diag(variances))


def split_joint(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Per-path marginals of a joint belief as (means, variances); the
    cross-path terms are dropped."""
    return belief.mean.copy(), np.diagonal(belief.cov).copy()
