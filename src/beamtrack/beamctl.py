"""Sounding-beam selection that minimizes the predicted angle error bound.

Candidate beam sets are scored with the Bayesian information matrix

    J = P_prior^-1 + (2 / sigma^2) * Re(O^H O)

where O is the pilot-map Jacobian with respect to the tracked arrival
angles at the predicted mean, the departure angles being known; the
objective is trace(J^-1), i.e. the posterior Cramer-Rao bound surrogate. The
transmit side is pinned to the codebook beams nearest the known departure
direction and the receive beams are found by exhaustive search over all
unordered codebook subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrays import Codebook
from .filtering import GaussianBelief
from .measurement import (
    SoundingConfig,
    _jacobian_from_angles,
    _measurement_factors,
)

__all__ = [
    "BeamSelection",
    "nearest_beams",
    "crlb_objective",
    "spd_inverse_trace",
    "select_sounding",
]

# Selection still needs a finite information weight when pilots are noiseless.
_MIN_NOISE_VAR = 1e-12


@dataclass
class BeamSelection:
    """Chosen codebook indices for one sounding round and their score; a
    batch of rounds stacks them along leading axes."""

    tx_indices: np.ndarray
    rx_indices: np.ndarray
    objective_value: float | np.ndarray

    def to_sounding(self, codebook: Codebook) -> SoundingConfig:
        return SoundingConfig(
            tx_angles=codebook.angles[self.tx_indices],
            rx_angles=codebook.angles[self.rx_indices],
        )


def nearest_beams(angle, codebook: Codebook, m: int) -> np.ndarray:
    """Indices of the m codebook entries closest to `angle`, ascending.

    Distance ties resolve toward the smaller index. An array of angles
    (...) gives one index set per angle, (..., m).
    """
    n = len(codebook)
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    distance = np.abs(codebook.angles - np.asarray(angle, dtype=np.float64)[..., None])
    order = np.argsort(distance, axis=-1, kind="stable")
    return np.sort(order[..., :m], axis=-1)


def crlb_objective(
    belief: GaussianBelief,
    sounding: SoundingConfig,
    gains: np.ndarray,
    noise_var: float,
    geom_rx,
    geom_tx,
    aods: np.ndarray,
) -> float:
    """trace(J^-1) for one candidate sounding; np.inf when J is singular."""
    jac = _jacobian_from_angles(
        np.asarray(gains, dtype=np.complex128), belief.mean,
        np.asarray(aods, dtype=np.float64), sounding, geom_rx, geom_tx,
    )
    noise = max(noise_var, _MIN_NOISE_VAR)
    info = np.linalg.inv(belief.cov) + (2.0 / noise) * (jac.conj().T @ jac).real
    try:
        return float(np.trace(np.linalg.inv(info)))
    except np.linalg.LinAlgError:
        return np.inf


def spd_inverse_trace(mats: np.ndarray) -> np.ndarray:
    """trace(A^-1) for each symmetric positive definite A in a (..., L, L) batch.

    With the lower Cholesky factor C of A, trace(A^-1) = ||C^-1||_F^2. The
    factorisation and the triangular inverse loop over matrix entries, each
    step one elementwise operation over the batch; only the lower triangle
    of A is read. An entry whose factorisation meets a non-positive or
    non-finite pivot (singular, indefinite or non-finite) scores np.inf; the
    others are unaffected.
    """
    mats = np.asarray(mats, dtype=np.float64)
    size = mats.shape[-1]
    ok = np.ones(mats.shape[:-2], dtype=bool)
    chol: list[list[np.ndarray]] = []  # chol[i][j], j <= i
    inv: list[list[np.ndarray]] = []  # inv[i][j] of C^-1, j <= i
    traces = np.zeros(mats.shape[:-2])
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(size):
            row = []
            for j in range(i + 1):
                acc = mats[..., i, j]
                other = row if j == i else chol[j]
                for k in range(j):
                    acc = acc - row[k] * other[k]
                if j < i:
                    row.append(acc / chol[j][j])
                    continue
                ok &= np.isfinite(acc) & (acc > 0.0)
                row.append(np.sqrt(np.where(ok, acc, 1.0)))
            chol.append(row)
        # Forward substitution for C^-1, also lower triangular.
        for i in range(size):
            recip = 1.0 / chol[i][i]
            row = []
            for j in range(i):
                acc = chol[i][j] * inv[j][j]
                for k in range(j + 1, i):
                    acc = acc + chol[i][k] * inv[k][j]
                row.append(-acc * recip)
            row.append(recip)
            inv.append(row)
            for entry in row:
                traces += entry * entry
    return np.where(ok, traces, np.inf)


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic unordered pairs (j1 < j2) of n beams, computed once per n."""
    j1, j2 = np.triu_indices(n, k=1)
    j1.flags.writeable = False
    j2.flags.writeable = False
    return j1, j2


def _rx_pair_scores(
    means: np.ndarray,
    variances: np.ndarray,
    tx_angles: np.ndarray,
    codebook: Codebook,
    gains: np.ndarray,
    noise_var,
    geom_rx,
    geom_tx,
    aods: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective for every unordered receive-beam pair, (..., n_pairs).

    The information matrix separates per pair: with transmit factors
    t[l, i] and receive derivative factors d[l, j], Re(O^H O)[l, l'] is the
    elementwise product of sum_i conj(t) t and sum_{j in pair} conj(d) d,
    so all pairs are scored with one batched Cholesky trace of J^-1. The
    prior is diagonal, so its inverse is 1 / variances, and only the lower
    triangle that the Cholesky trace reads is formed.
    """
    probe = SoundingConfig(tx_angles=tx_angles, rx_angles=codebook.angles)
    scale, gt, _, dgr = _measurement_factors(
        gains, means, aods, probe, geom_rx, geom_tx, with_derivatives=True
    )
    t = scale[..., None] * gt  # (..., L, M_b)
    t_mat = t.conj() @ t.swapaxes(-1, -2)  # (..., L, L): sum over tx beams
    d_mat = np.einsum("...lj,...mj->lm...j", dgr.conj(), dgr)  # (L, L, ..., n_beams)

    j1, j2 = _pair_indices(len(codebook))
    weight = (2.0 / np.maximum(noise_var, _MIN_NOISE_VAR))[..., None]
    num_paths = means.shape[-1]
    # Entry-major, so that each entry the Cholesky trace reads is contiguous.
    info = np.empty((num_paths, num_paths) + means.shape[:-1] + (j1.size,))
    for i in range(num_paths):
        for m in range(i + 1):
            pair_info = np.take(d_mat[i, m], j1, -1) + np.take(d_mat[i, m], j2, -1)
            info[i, m] = weight * (t_mat[..., i, m, None] * pair_info).real
        info[i, i] += 1.0 / variances[..., i, None]
    return j1, j2, spd_inverse_trace(np.moveaxis(info, (0, 1), (-2, -1)))


def select_sounding(
    belief: GaussianBelief,
    codebook: Codebook,
    gains: np.ndarray,
    noise_var,
    geom_rx,
    geom_tx,
    mode: str = "aoa_only",
    known_aod=None,
    aods: np.ndarray | None = None,
    num_tx: int = 2,
    num_rx: int = 2,
) -> BeamSelection:
    """Pick the sounding beams that minimize the predicted error bound.

    The transmit beams are the `num_tx` codebook entries nearest `known_aod`,
    and the receive side is an exhaustive search over all unordered
    `num_rx`-subsets of the codebook (vectorized for pairs). `aods` defaults
    to `known_aod` for every path. `mode` accepts only "aoa_only", the one
    tracked state. Objective ties resolve toward the lexicographically
    smallest index tuple. The belief's covariance must be diagonal, as every
    tracker's prior is.

    A batch of episodes stacks the belief (..., L) and gives gains, aods,
    noise_var and known_aod the same leading axes; the indices and scores
    of the selection then carry them too.
    """
    if mode != "aoa_only":
        raise ValueError(f"unknown mode {mode!r}: only 'aoa_only' is tracked")
    if known_aod is None:
        raise ValueError("select_sounding needs known_aod for the transmit side")
    variances = np.diagonal(belief.cov, axis1=-2, axis2=-1)
    if np.count_nonzero(belief.cov) > np.count_nonzero(variances):
        raise ValueError("select_sounding needs a diagonal prior covariance")
    gains = np.asarray(gains, dtype=np.complex128)
    if aods is None:
        aods = np.broadcast_to(np.asarray(known_aod, dtype=np.float64)[..., None], gains.shape)
    tx_idx = nearest_beams(known_aod, codebook, num_tx)
    tx_angles = codebook.angles[tx_idx]
    if num_rx == 2:
        j1, j2, scores = _rx_pair_scores(
            belief.mean, variances, tx_angles, codebook, gains, noise_var, geom_rx, geom_tx, aods
        )
        best = np.argmin(scores, axis=-1)
        return BeamSelection(tx_idx, np.stack([j1[best], j2[best]], axis=-1), scores.min(axis=-1))
    if belief.mean.ndim > 1:  # the exhaustive search takes one episode at a time
        picks = [
            select_sounding(
                GaussianBelief(belief.mean[k], belief.cov[k]), codebook, gains[k],
                np.asarray(noise_var)[k], geom_rx, geom_tx, known_aod=np.asarray(known_aod)[k],
                aods=aods[k], num_tx=num_tx, num_rx=num_rx,
            )
            for k in range(len(belief.mean))
        ]
        fields = zip(*((p.tx_indices, p.rx_indices, p.objective_value) for p in picks))
        return BeamSelection(*map(np.stack, fields))
    best_idx, best_val = None, np.inf
    for combo in itertools.combinations(range(len(codebook)), num_rx):
        sounding = SoundingConfig(tx_angles=tx_angles, rx_angles=codebook.angles[list(combo)])
        val = crlb_objective(belief, sounding, gains, noise_var, geom_rx, geom_tx, aods)
        if val < best_val:
            best_idx, best_val = combo, val
    return BeamSelection(tx_idx, np.array(best_idx), float(best_val))
