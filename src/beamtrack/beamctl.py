"""Sounding-beam selection that minimizes the predicted angle error bound.

Candidate beam sets are scored with the Bayesian information matrix

    J = P_prior^-1 + (2 / sigma^2) * Re(O^H O)

where O is the pilot-map Jacobian with respect to the tracked arrival
angles at the predicted mean, the departure angles being known; the
objective is trace(J^-1), i.e. the posterior Cramer-Rao bound surrogate. The
transmit side is pinned to the codebook beams nearest the known departure
direction and the receive beams are found by exhaustive search over all
unordered codebook subsets of the requested size, scored as one batch per
slice of episodes that holds at most 2**18 subset x episode entries (or
one episode, when that alone has more subsets). A search over more than
2**20 subsets is refused before anything is built.
"""

from __future__ import annotations

import itertools
import math
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


# Receive subsets one search may score: 4 of 64 beams (635,376 subsets) fit,
# 5 of 64 (7,624,512) would take a 305 MB table and gigabytes per episode.
_MAX_SUBSETS = 2**20

# Subset x episode entries scored at once. A slice holds a few tens of MB of
# information matrices and Cholesky intermediates, whatever the batch size.
_SLICE_ENTRIES = 2**18


def _check_beam_count(codebook_size: int, count: int, name: str, receive: bool) -> None:
    """Raise ValueError unless `count` beams of `codebook_size` can be sounded:
    1 <= count <= codebook_size and, on the receive side, whose search scores
    every `count`-subset, at most _MAX_SUBSETS subsets. `name` is the count
    as its caller knows it (num_rx here, m_b or m_m in a SimConfig)."""
    if not 1 <= count <= codebook_size:
        raise ValueError(f"{name} must lie in [1, {codebook_size}], got {count}")
    if not receive:
        return
    subsets = math.comb(codebook_size, count)
    if subsets > _MAX_SUBSETS:
        raise ValueError(
            f"{name}={count} of {codebook_size} beams is {subsets} receive subsets, "
            f"above the cap of {_MAX_SUBSETS}"
        )


@lru_cache(maxsize=None)
def _subset_table(n: int, k: int) -> np.ndarray:
    """Lexicographic k-subsets of n beams, (k, n_subsets): row r holds every
    subset's r-th smallest member. Computed once per (n, k)."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    table = np.fromiter(combos, dtype=np.intp).reshape(-1, k).T.copy()
    table.flags.writeable = False
    return table


def _best_rx_subsets(
    means: np.ndarray,
    variances: np.ndarray,
    tx_angles: np.ndarray,
    codebook: Codebook,
    gains: np.ndarray,
    noise_var,
    geom_rx,
    geom_tx,
    aods: np.ndarray,
    num_rx: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The receive subset of least objective and that objective, (..., num_rx)
    and (...).

    The information matrix separates per subset: with transmit factors
    t[l, i] and receive derivative factors d[l, j], Re(O^H O)[l, l'] is the
    elementwise product of sum_i conj(t) t and sum_{j in subset} conj(d) d,
    the latter added in member order. So all subsets are scored with one
    batched Cholesky trace of J^-1. The prior is diagonal, so its inverse is
    1 / variances, and only the lower triangle that the Cholesky trace reads
    is formed. Episodes are scored in slices of at most _SLICE_ENTRIES
    subset x episode entries, at least one episode each; every stage is per
    episode, so the slicing changes no result.
    """
    probe = SoundingConfig(tx_angles=tx_angles, rx_angles=codebook.angles)
    scale, gt, _, dgr = _measurement_factors(
        gains, means, aods, probe, geom_rx, geom_tx, with_derivatives=True
    )
    t = scale[..., None] * gt  # (..., L, M_b)
    t_mat = t.conj() @ t.swapaxes(-1, -2)  # (..., L, L): sum over tx beams
    d_mat = np.einsum("...lj,...mj->lm...j", dgr.conj(), dgr)  # (L, L, ..., n_beams)

    lead, num_paths = means.shape[:-1], means.shape[-1]
    episodes = math.prod(lead)
    t_mat = t_mat.reshape(episodes, num_paths, num_paths)
    d_mat = d_mat.reshape(num_paths, num_paths, episodes, -1)
    variances = variances.reshape(episodes, num_paths)
    weight = np.broadcast_to(2.0 / np.maximum(noise_var, _MIN_NOISE_VAR), lead).reshape(episodes, 1)

    members = _subset_table(len(codebook), num_rx)
    best = np.empty(episodes, dtype=np.intp)
    values = np.empty(episodes)
    step = max(1, _SLICE_ENTRIES // members.shape[1])
    for start in range(0, episodes, step):
        part = slice(start, min(start + step, episodes))
        # Entry-major, so that each entry the Cholesky trace reads is contiguous.
        info = np.empty((num_paths, num_paths, part.stop - start, members.shape[1]))
        for i in range(num_paths):
            for m in range(i + 1):
                d_col = d_mat[i, m, part]
                subset_info = np.take(d_col, members[0], -1)
                for column in members[1:]:
                    subset_info = subset_info + np.take(d_col, column, -1)
                info[i, m] = weight[part] * (t_mat[part, i, m, None] * subset_info).real
            info[i, i] += 1.0 / variances[part, i, None]
        scores = spd_inverse_trace(np.moveaxis(info, (0, 1), (-2, -1)))
        best[part] = np.argmin(scores, axis=-1)
        values[part] = scores.min(axis=-1)
    return members.T[best].reshape(lead + (num_rx,)), values.reshape(lead)[()]


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
    `num_rx`-subsets of the codebook, 1 <= num_rx <= len(codebook), all
    scored in one batch per slice of episodes. A slice holds at most 2**18
    subset x episode entries, or one episode when that alone has more, which
    bounds the memory a call takes whatever the batch size; more than
    2**20 subsets raise ValueError before any is scored. `aods` defaults
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
    _check_beam_count(len(codebook), num_rx, "num_rx", receive=True)
    if known_aod is None:
        raise ValueError("select_sounding needs known_aod for the transmit side")
    variances = np.diagonal(belief.cov, axis1=-2, axis2=-1)
    if np.count_nonzero(belief.cov) > np.count_nonzero(variances):
        raise ValueError("select_sounding needs a diagonal prior covariance")
    gains = np.asarray(gains, dtype=np.complex128)
    if aods is None:
        aods = np.broadcast_to(np.asarray(known_aod, dtype=np.float64)[..., None], gains.shape)
    tx_idx = nearest_beams(known_aod, codebook, num_tx)
    rx_idx, value = _best_rx_subsets(
        belief.mean, variances, codebook.angles[tx_idx], codebook, gains, noise_var,
        geom_rx, geom_tx, aods, num_rx,
    )
    return BeamSelection(tx_idx, rx_idx, value)
