"""Sounding-beam selection that minimizes the predicted angle error bound.

Candidate beam sets are scored with the Bayesian information matrix

    J = P_prior^-1 + (2 / sigma^2) * Re(O^H O)

where O is the pilot-map Jacobian with respect to the tracked arrival
angles at the predicted mean, the departure angles being known; the
objective is trace(J^-1), i.e. the posterior Cramer-Rao bound surrogate. The
transmit side is pinned to the codebook beams nearest the known departure
direction and the receive beams are found by an exact branch and bound over
all unordered codebook subsets of the requested size, with the same result
as the exhaustive search: the lower bound sum_l 1 / J_ll, which needs only
the diagonal of J, rules out nearly every subset, and only the rest get a
Cholesky trace. Episodes are searched in slices that hold at most 2**14
subset x episode entries (or one episode, when that alone has more
subsets). A search over more than 2**20 subsets is refused before anything
is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrays import Codebook
from .filtering import GaussianBelief
from .measurement import (  # noqa: F401 - perfbench/tracer.py wraps _measurement_factors here
    SoundingConfig,
    _jacobian_from_angles,
    _measurement_factors,
    _receive_factors,
    _transmit_factors,
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
    batch of rounds stacks them along leading axes. `rx_factors` holds the
    receive factors (gr, dgr) of the chosen beams at the prior means,
    (..., L, num_rx) each, from which the trackers form the pilot map."""

    tx_indices: np.ndarray
    rx_indices: np.ndarray
    objective_value: float | np.ndarray
    rx_factors: tuple[np.ndarray, np.ndarray]

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

# Subset x episode entries searched at once (at least one episode). A
# slice's bound and score arrays then take about 128 KB each, memory that the
# allocator hands out again from one slice and call to the next: at 2**18
# entries they were mapped afresh each time, at a page fault per 4 KB.
_SLICE_ENTRIES = 2**14

# The diagonal bound of a subset exceeds its Cholesky-trace score by rounding
# only: by at most 9.4e-16 relative over 19M entries of random and captured
# beliefs. A subset is scored exactly unless its bound passes the threshold
# by this relative margin.
_BOUND_SLACK = 1e-9

# Lowest-bound subsets per episode scored exactly to seed the threshold. In
# tracking runs 88-96% of episodes need no other subset (a median of 2-4 can
# still win).
_SEED_SUBSETS = 16


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


def _transmit_side(codebook: Codebook, gains, geom_rx, geom_tx, known_aod, aods=None,
                   num_tx: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Selection's per-episode constants: the transmit beams, the `num_tx`
    codebook entries nearest `known_aod`, (..., num_tx), and the transmit
    Gram matrix T[l, l'] = sum_i conj(t[l, i]) t[l', i] of the transmit
    factors t = scale * gt at the departures `aods`, (..., L, L). `aods`
    defaults to `known_aod` for every path."""
    gains = np.asarray(gains, dtype=np.complex128)
    if aods is None:
        aods = np.broadcast_to(np.asarray(known_aod, dtype=np.float64)[..., None], gains.shape)
    tx_idx = nearest_beams(known_aod, codebook, num_tx)
    scale, gt = _transmit_factors(
        gains, np.asarray(aods, dtype=np.float64), codebook.angles[tx_idx], geom_rx, geom_tx
    )
    t = scale[..., None] * gt  # (..., L, M_b)
    return tx_idx, t.conj() @ t.swapaxes(-1, -2)


def _subset_factors(
    t_mat: np.ndarray, dgr: np.ndarray, noise_var, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors of every receive subset's information matrix, episodes flattened.

    The information matrix separates per subset: with transmit factors
    t[l, i] and receive derivative factors d[l, j], Re(O^H O)[l, l'] is the
    real part of the product of T[l, l'] = sum_i conj(t) t, `t_mat`, and
    the sum over the subset's beams of D[l, l', j] = conj(d) d, d being
    `dgr` over the codebook, (..., L, n_beams). Returns T, (E, L, L), D,
    (L, L, E, n_beams), the information weight 2 / sigma^2, (E,), and the
    prior's inverse, 1 / variances, (E, L): the prior is diagonal.
    """
    d_mat = np.einsum("...lj,...mj->lm...j", dgr.conj(), dgr)  # (L, L, ..., n_beams)
    lead, num_paths = variances.shape[:-1], variances.shape[-1]
    episodes = math.prod(lead)
    return (
        t_mat.reshape(episodes, num_paths, num_paths),
        d_mat.reshape(num_paths, num_paths, episodes, -1),
        np.broadcast_to(2.0 / np.maximum(noise_var, _MIN_NOISE_VAR), lead).reshape(episodes),
        1.0 / variances.reshape(episodes, num_paths),
    )


def _entry_scores(factors, members: np.ndarray, episodes: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """trace(J^-1) of the (episode, subset) entries that `episodes` and
    `subsets` list, (N,), from `_subset_factors` and the subset table.

    Every entry goes through the same operations whichever others are
    listed: its beams' D summed in member order, T times that sum, the real
    part times the weight, the prior's inverse added on the diagonal, then
    `spd_inverse_trace`. So a score does not depend on the list it came in,
    and scoring every entry is the exhaustive search.
    """
    t_mat, d_mat, weight, inv_var = factors
    summed = d_mat[:, :, episodes, members[0, subsets]]
    for column in members[1:]:
        summed = summed + d_mat[:, :, episodes, column[subsets]]
    # (L, L, N): entry-last, so that each entry the Cholesky trace reads is contiguous.
    info = weight.take(episodes) * (t_mat.take(episodes, axis=0).transpose(1, 2, 0) * summed).real
    diag = np.arange(inv_var.shape[-1])
    info[diag, diag] += inv_var.take(episodes, axis=0).T
    return spd_inverse_trace(info.transpose(2, 0, 1))


def _subset_bounds(factors, members: np.ndarray, part: slice) -> np.ndarray:
    """sum_l 1 / J_ll of every subset for the episodes in `part`, (episodes,
    subsets): a lower bound on trace(J^-1), since (J^-1)_ll >= 1 / J_ll for
    a positive definite J. It reads only the real diagonals of T and D, so
    it costs O(L) real operations per subset and no Cholesky factorisation.
    Its rounding differs from the exact score's by a few ulps.
    """
    t_mat, d_mat, weight, inv_var = factors
    diag = np.arange(inv_var.shape[-1])
    # (L, episodes, n_beams): each beam's share of J_ll; the first member
    # also carries the prior's.
    gain = d_mat[diag, diag, part].real * (weight[part] * t_mat[part, diag, diag].real.T)[..., None]
    first = gain + inv_var[part].T[..., None]
    bounds = np.zeros((gain.shape[1], members.shape[1]))
    info = np.empty_like(bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        for path in range(len(diag)):
            np.take(first[path], members[0], -1, out=info, mode="clip")
            for column in members[1:]:
                info += np.take(gain[path], column, -1)
            bounds += np.reciprocal(info, out=info)
    return bounds


def _best_rx_subsets(
    t_mat: np.ndarray, dgr: np.ndarray, noise_var, variances: np.ndarray, num_rx: int
) -> tuple[np.ndarray, np.ndarray]:
    """The receive subset of least objective and that objective, (..., num_rx)
    and (...), from the transmit Gram matrix and the receive derivative
    factors over the codebook (see `_subset_factors`).

    A one-level branch and bound (Land & Doig, Econometrica 28(3), 1960) that
    returns the exhaustive search's result bit for bit. Per episode:

    1. the diagonal bound of every subset (`_subset_bounds`);
    2. the exact score of the _SEED_SUBSETS subsets of least bound; their
       minimum is a threshold that the best subset's score cannot exceed;
    3. the exact score of every other subset whose bound is at most the
       threshold times (1 + _BOUND_SLACK), or is not finite. Any subset left
       out has a score above the threshold, because its bound exceeds its
       score by rounding only, and _BOUND_SLACK is far above that rounding;
    4. the first minimum over the exact scores in lexicographic subset
       order, so ties resolve as the exhaustive search resolves them.

    `_entry_scores` gives each entry the score that scoring all of them
    would, so the result equals the exhaustive argmin and minimum. Episodes
    are searched in slices of at most _SLICE_ENTRIES subset x episode
    entries, at least one episode each; every stage is per episode, so the
    slicing changes no result.
    """
    factors = _subset_factors(t_mat, dgr, noise_var, variances)
    lead = variances.shape[:-1]
    episodes = math.prod(lead)
    members = _subset_table(dgr.shape[-1], num_rx)
    subsets = members.shape[1]
    seeds = min(_SEED_SUBSETS, subsets)
    best = np.empty(episodes, dtype=np.intp)
    values = np.empty(episodes)
    step = max(1, _SLICE_ENTRIES // subsets)
    for start in range(0, episodes, step):
        part = slice(start, min(start + step, episodes))
        bounds = _subset_bounds(factors, members, part)
        rows = np.arange(part.stop - start)
        seeded = np.argpartition(bounds, seeds - 1, axis=-1)[:, :seeds]
        seed_scores = _entry_scores(
            factors, members, np.repeat(rows + start, seeds), seeded.ravel()
        ).reshape(seeded.shape)
        limit = seed_scores.min(axis=-1, keepdims=True) * (1.0 + _BOUND_SLACK)
        pending = (bounds <= limit) | ~np.isfinite(bounds)
        pending[rows[:, None], seeded] = False
        scores = np.full(bounds.shape, np.inf)
        scores[rows[:, None], seeded] = seed_scores
        if pending.any():
            entry, subset = np.nonzero(pending)
            scores[entry, subset] = _entry_scores(factors, members, entry + start, subset)
        best[part] = np.argmin(scores, axis=-1)
        values[part] = scores[rows, best[part]]
    return members.T[best].reshape(lead + (num_rx,)), values.reshape(lead)[()]


def select_sounding(
    belief,
    codebook: Codebook,
    gains: np.ndarray,
    noise_var,
    geom_rx,
    geom_tx,
    mode: str = "aoa_only",
    *,
    known_aod,
    aods: np.ndarray | None = None,
    num_tx: int = 2,
    num_rx: int = 2,
    transmit: tuple[np.ndarray, np.ndarray] | None = None,
) -> BeamSelection:
    """Pick the sounding beams that minimize the predicted error bound.

    The transmit beams are the `num_tx` codebook entries nearest `known_aod`,
    and the receive side is an exact branch and bound over all unordered
    `num_rx`-subsets of the codebook, 1 <= num_rx <= len(codebook), with the
    same result as the exhaustive search, bit for bit: only subsets whose
    lower bound on trace(J^-1) can still win are scored exactly. Episodes
    are searched as one batch per slice. A slice holds at most 2**14
    subset x episode entries, or one episode when that alone has more, which
    bounds the memory a call takes whatever the batch size; more than
    2**20 subsets raise ValueError before any is scored. `aods` defaults
    to `known_aod` for every path. `mode` accepts only "aoa_only", the one
    tracked state. Objective ties resolve toward the lexicographically
    smallest index tuple. `belief` is the trackers' (means, variances)
    pair; a GaussianBelief with a diagonal covariance, the same prior in
    dense form, stays accepted for callers outside the package.

    A batch of episodes stacks the belief (..., L) and gives gains, aods,
    noise_var and known_aod the same leading axes; the indices and scores
    of the selection then carry them too.

    The receive factors are evaluated once over the codebook, and the
    chosen beams' columns come back in `rx_factors`. `transmit` is the pair
    `_transmit_side` returns for these arguments; the trackers compute it
    once per episode and pass it, and the transmit side is then not
    evaluated here.
    """
    if mode != "aoa_only":
        raise ValueError(f"unknown mode {mode!r}: only 'aoa_only' is tracked")
    _check_beam_count(len(codebook), num_rx, "num_rx", receive=True)
    if isinstance(belief, GaussianBelief):
        means, variances = belief.mean, np.diagonal(belief.cov, axis1=-2, axis2=-1)
        if np.count_nonzero(belief.cov) > np.count_nonzero(variances):
            raise ValueError("select_sounding needs a diagonal prior covariance")
    else:
        means, variances = (np.asarray(a, dtype=np.float64) for a in belief)
    if transmit is None:
        transmit = _transmit_side(codebook, gains, geom_rx, geom_tx, known_aod, aods, num_tx)
    tx_idx, t_mat = transmit
    gr, dgr = _receive_factors(means, codebook.angles, geom_rx, with_derivatives=True)
    rx_idx, value = _best_rx_subsets(t_mat, dgr, noise_var, variances, num_rx)
    columns = rx_idx[..., None, :]
    chosen = np.take_along_axis(gr, columns, -1), np.take_along_axis(dgr, columns, -1)
    return BeamSelection(tx_idx, rx_idx, value, chosen)
