"""Gaussian beliefs, scaled sigma points, and the tracking-cycle updates.

Both updates take the trackers' arrays. The prediction step propagates each
path's belief, a row of the stacked (means, covs) pair, through the
(nonlinear) learned predictor with the scaled unscented transform, the
sigma points of all paths in one predictor call: 2P+1 sigma points for
state dimension P, spread lam = alpha^2 * P - P, weights

    w0_mean = lam / (P + lam)            w0_cov = w0_mean + (1 - alpha^2 + beta)
    wi      = 1 / (2 (P + lam))          i = 1..2P

with alpha = 1e-3 and beta = 2, the value that is optimal for a Gaussian
prior (Wan & van der Merwe, 2000). Sigma offsets perturb only the most
recent estimate entry of the input window; older entries and sensor samples
are treated as exogenous.

The measurement step is a joint Kalman update of the L arrival angles, held
as the (means, variances) pair, on the real-stacked pilot vector: a complex
pilot with noise variance sigma^2 becomes two real measurements with
variance sigma^2/2 each. The update takes the pilot map and its Jacobian at
the prior means as arrays; the trackers evaluate them from the pilot
model's factors, and this module does Gaussian updates only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .measurement import PilotVector
from .measurement import (  # noqa: F401 - perfbench/tracer.py wraps them here
    _jacobian_from_angles,
    _measurement_from_angles,
)

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
BETA = 2.0
DEFAULT_JITTER = 1e-8


@dataclass
class GaussianBelief:
    """Mean and covariance of a real-valued state.

    A batch of beliefs stacks the means (..., d) and covariances (..., d, d).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        d = self.mean.shape[-1]
        if self.cov.shape != self.mean.shape + (d,):
            raise ValueError(f"covariance must be {self.mean.shape + (d,)}, got {self.cov.shape}")
        if d > 1 and not np.allclose(self.cov, self.cov.swapaxes(-1, -2), atol=1e-10):
            raise ValueError("covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


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


def _sigma_stack(means, covs, alpha):
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
    w_cov[0] += 1.0 - alpha**2 + BETA
    return points, w_mean, w_cov


def sigma_points(belief: GaussianBelief, alpha: float = DEFAULT_ALPHA) -> SigmaSet:
    """Scaled sigma set for the belief; reconstruction recovers mean and cov."""
    points, w_mean, w_cov = _sigma_stack(belief.mean[None], belief.cov[None], alpha)
    return SigmaSet(points[0], w_mean, w_cov)


def prediction_update(belief, window, predict_fn, jitter: float = DEFAULT_JITTER):
    """Unscented propagation of path beliefs through the predictor.

    `belief` is a stacked pair (means (B, P), covs (B, P, P)), one row per
    path, and `window` the stacked pair (past (B, delta, P), sensors
    (B, delta, KJ)) of the paths' input windows. predict_fn maps the pair of
    every path's sigma-point windows to an (n, P) array of next-cycle states
    in one call, as partial(predictor.predict, model) does. Returns the
    predicted (means, covs) pair.

    Each sigma point replaces its window's most recent estimate entry; each
    path's propagated set is recombined with the standard weighted sums and
    a small diagonal jitter keeps the predicted covariance positive definite.
    Every product is a stack of per-path products, so a path's prediction
    does not depend on the other rows of the batch.
    """
    means, covs = belief
    past, sensors = (np.asarray(a, dtype=np.float64) for a in window)
    if means.shape[0] != past.shape[0]:
        raise ValueError("need one window per belief")
    p = means.shape[1]
    if past.shape[-1] != p:
        raise ValueError("window state dimension does not match the belief")
    points, w_mean, w_cov = _sigma_stack(means, covs, DEFAULT_ALPHA)
    # Every path's window once per sigma point, in (path, point) order.
    past = np.repeat(past, points.shape[1], axis=0)
    past[:, -1] = points.reshape(-1, p)
    sigma_windows = past, np.repeat(sensors, points.shape[1], axis=0)
    rows = np.asarray(predict_fn(sigma_windows), dtype=np.float64).reshape(points.shape)

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

    Stacked updates carry leading batch axes on every argument (noise_var
    one per update) and return one flag per update; each update uses only
    its own slice of the stack.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    jac = np.asarray(jac, dtype=np.float64)
    jac_t = jac.swapaxes(-1, -2)

    m = observed.shape[-1]
    noise = np.asarray(noise_var, dtype=np.float64)[..., None, None]
    innovation_cov = jac @ cov @ jac_t + noise * np.eye(m)
    cond = np.linalg.cond(innovation_cov)
    regularized = ~np.isfinite(cond) | (cond > 1e12)
    if np.any(regularized):
        ridge = 1e-12 * np.maximum(1.0, np.trace(innovation_cov, axis1=-2, axis2=-1) / m)
        innovation_cov = np.where(
            regularized[..., None, None], innovation_cov + ridge[..., None, None] * np.eye(m),
            innovation_cov,
        )
        worst = np.argmax(np.where(regularized, cond, 0.0))
        warnings.warn(
            f"innovation covariance is ill-conditioned (cond {np.ravel(cond)[worst]:.3g}); "
            f"applying ridge {np.ravel(ridge)[worst]:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    gain = cov @ jac_t @ np.linalg.inv(innovation_cov)
    new_mean = mean + (gain @ (observed - predicted)[..., None])[..., 0]
    new_cov = (np.eye(mean.shape[-1]) - gain @ jac) @ cov
    new_cov = 0.5 * (new_cov + new_cov.swapaxes(-1, -2))
    return new_mean, new_cov, regularized


def measurement_update(belief, pilot: PilotVector, predicted: np.ndarray, jac: np.ndarray):
    """Joint Kalman update of the L arrival angles from one pilot round.

    `belief` is the trackers' (means, variances) pair of (..., L) arrays,
    one arrival angle per independent path. `predicted` (..., M) and `jac`
    (..., M, L) are the pilot map and its arrival-angle Jacobian at the
    prior means for the round's sounding, as `measurement._pilot_map`
    returns them. The complex pilot vector and Jacobian are real-stacked
    (real parts then imaginary parts) with per-component noise variance
    pilot.noise_var / 2. The posterior comes back as its per-path marginals,
    the same pair. A batch of episodes gives every argument the same leading
    axes, and each episode is updated from its own round.
    """
    means, cov = np.asarray(belief[0], dtype=np.float64), _diagonal_cov(belief[1])
    expected = (pilot.values.shape[-1], means.shape[-1])
    if jac.shape[-2:] != expected:
        raise ValueError(
            f"the Jacobian must be (pilot length, L) = {expected}, got {jac.shape[-2:]}"
        )
    observed = np.concatenate([pilot.values.real, pilot.values.imag], axis=-1)
    predicted_r = np.concatenate([predicted.real, predicted.imag], axis=-1)
    jac_r = np.concatenate([jac.real, jac.imag], axis=-2)
    mean, cov, _ = kalman_update(means, cov, observed, predicted_r, jac_r, pilot.noise_var / 2.0)
    return mean, np.diagonal(cov, axis1=-2, axis2=-1).copy()


def _diagonal_cov(variances) -> np.ndarray:
    """(..., L, L) covariances with the (..., L) variances on the diagonal."""
    variances = np.asarray(variances, dtype=np.float64)
    cov = np.zeros(variances.shape + variances.shape[-1:])
    diagonal = np.arange(variances.shape[-1])
    cov[..., diagonal, diagonal] = variances
    return cov


def joint_belief(means: np.ndarray, variances: np.ndarray) -> GaussianBelief:
    """Joint belief of independent per-path arrival angles: the stacked
    means and a diagonal covariance, per episode of any leading axes."""
    return GaussianBelief(means, _diagonal_cov(variances))


def split_joint(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Per-path marginals of a joint belief as (means, variances); the
    cross-path terms are dropped."""
    return belief.mean.copy(), np.diagonal(belief.cov, axis1=-2, axis2=-1).copy()
