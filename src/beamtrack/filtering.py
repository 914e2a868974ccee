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

    Batched form: `belief` and `window` are equal-length sequences, one entry
    per path, and predict_fn maps the list of every path's sigma windows to
    an (n, P) array of next-cycle states in one call, as predictor.predict
    does. Returns the list of predicted beliefs.

    One path: `belief` is a GaussianBelief, `window` an InputWindow and
    predict_fn maps one window to a state. This is the batch of one, with
    predict_fn lifted by `per_window`; it returns one GaussianBelief.

    Each sigma point replaces its window's most recent estimate entry; each
    path's propagated set is recombined with the standard weighted sums and
    a small diagonal jitter keeps the predicted covariance positive definite.
    """
    if isinstance(belief, GaussianBelief):
        return prediction_update([belief], [window], per_window(predict_fn), jitter, alpha, beta)[0]
    if len(belief) != len(window):
        raise ValueError("need one window per belief")
    sigmas = []
    perturbed = []
    for b, w in zip(belief, window):
        if w.state_dim != b.dim:
            raise ValueError("window state dimension does not match the belief")
        sigma = sigma_points(b, alpha=alpha, beta=beta)
        sigmas.append(sigma)
        for point in sigma.points:
            estimates = w.past_estimates.copy()
            estimates[-1] = point
            perturbed.append(InputWindow(estimates, w.sensor_blocks, w.context))
    outputs = np.asarray(predict_fn(perturbed), dtype=np.float64)

    predicted = []
    at = 0
    for b, sigma in zip(belief, sigmas):
        p = b.dim
        rows = outputs[at : at + 2 * p + 1]
        at += 2 * p + 1
        mean = sigma.mean_weights @ rows
        centered = rows - mean
        cov = (sigma.cov_weights[:, None] * centered).T @ centered
        cov = 0.5 * (cov + cov.T) + jitter * np.eye(p)
        predicted.append(GaussianBelief(mean, cov))
    return predicted


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
