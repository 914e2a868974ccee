"""Uniform linear arrays: steering vectors, beam codebooks, and the
angular-domain multipath channel.

Angles are carried in the sine domain throughout: theta = sin(phi) in
[-1, 1] for a physical angle phi in [-pi/2, pi/2]. With half-wavelength
element spacing the per-element phase advance is pi * theta, so beams
uniformly spaced in theta form the familiar DFT-like grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayGeometry",
    "PathState",
    "Codebook",
    "steering_vector",
    "assemble_channel",
    "make_codebook",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array of half-wavelength spaced elements."""

    num_elements: int

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")

    @property
    def spatial_freq(self) -> float:
        """Phase advance per element per unit sine-angle, 2*pi*(d/lambda) = pi
        at half-wavelength spacing, which the DFT codebook grid assumes."""
        return np.pi


@dataclass(frozen=True)
class PathState:
    """One propagation path: complex gain plus arrival/departure sine-angles."""

    gain: complex
    aoa: float
    aod: float

    def __post_init__(self):
        if not abs(self.aoa) <= 1.0:
            raise ValueError(f"aoa must lie in [-1, 1], got {self.aoa}")
        if not abs(self.aod) <= 1.0:
            raise ValueError(f"aod must lie in [-1, 1], got {self.aod}")


@dataclass(frozen=True)
class Codebook:
    """A finite grid of beam steering angles, strictly increasing in [-1, 1]."""

    angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64)
        if angles.ndim != 1 or angles.size < 1:
            raise ValueError("codebook needs a 1-D, non-empty angle grid")
        if np.any(np.abs(angles) > 1.0):
            raise ValueError("codebook angles must lie in [-1, 1]")
        if angles.size > 1 and np.any(np.diff(angles) <= 0):
            raise ValueError("codebook angles must be strictly increasing")
        object.__setattr__(self, "angles", angles)

    def __len__(self) -> int:
        return self.angles.size

    def __getitem__(self, idx) -> float:
        return self.angles[idx]


def steering_vector(geom: ArrayGeometry, theta) -> np.ndarray:
    """Unit-norm array response at sine-angle theta.

    Element k carries (1/sqrt(N)) * exp(j * pi * k * theta),
    k = 0..N-1, so the vector has Euclidean norm 1 for any theta. An array of
    angles (..., M) gives its vectors as the columns of an (..., N, M) array.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.abs(theta) <= 1.0):
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    return _steering(geom, theta)


def _steering(geom: ArrayGeometry, theta) -> np.ndarray:
    """`steering_vector` without its range check, for angles the program
    computed itself, such as estimates that a tracker moved past +-1."""
    theta = np.asarray(theta, dtype=np.float64)
    n = geom.num_elements
    k = np.arange(n)
    if theta.ndim:
        theta, k = theta[..., None, :], k[:, None]
    phase = geom.spatial_freq * theta * k
    return np.exp(1j * phase) / np.sqrt(n)


def _path_arrays(paths: list[PathState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gains = np.array([p.gain for p in paths], dtype=np.complex128)
    aoas = np.array([p.aoa for p in paths], dtype=np.float64)
    aods = np.array([p.aod for p in paths], dtype=np.float64)
    return gains, aoas, aods


def assemble_channel(paths, geom_rx: ArrayGeometry, geom_tx: ArrayGeometry) -> np.ndarray:
    """Sum of per-path rank-one terms gain * a_rx(aoa) * a_tx(aod)^H.

    `paths` is a list of PathState, or a (gains, aoas, aods) triple of
    (..., L) arrays for a stack of channels. Returns the (..., N_rx, N_tx)
    complex channel matrices.
    """
    if not isinstance(paths, tuple):
        if not paths:
            raise ValueError("need at least one path")
        paths = _path_arrays(paths)
    gains, aoas, aods = paths
    gains = np.asarray(gains, dtype=np.complex128)
    a_rx = steering_vector(geom_rx, aoas)  # (..., N_rx, L)
    a_tx = steering_vector(geom_tx, aods).conj()
    shape = gains.shape[:-1] + (geom_rx.num_elements, geom_tx.num_elements)
    h = np.zeros(shape, dtype=np.complex128)
    for l in range(gains.shape[-1]):
        h += gains[..., l, None, None] * (a_rx[..., :, l, None] * a_tx[..., None, :, l])
    return h


def make_codebook(size: int) -> Codebook:
    """Codebook whose entries are the midpoints of a uniform partition of [-1, 1].

    Entry k is -1 + (2k + 1)/size, so the grid is symmetric about zero and
    spaced by 2/size.
    """
    if size < 2:
        raise ValueError(f"codebook size must be >= 2, got {size}")
    k = np.arange(size)
    return Codebook(-1.0 + (2.0 * k + 1.0) / size)
