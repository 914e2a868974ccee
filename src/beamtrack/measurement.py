"""Beam sounding and the pilot measurement model.

A sounding round probes the channel with M_b transmit beams and M_m receive
beams. Stacking the beamformed outputs column-major gives the noiseless pilot
map

    q(gamma) = vec(W^H H F),

whose entry (i-1)*M_m + j (1-based) pairs transmit beam i with receive beam j.
Because steering vectors are geometric sequences, every entry of q and of its
angle Jacobian reduces to ratios of short geometric sums; those closed forms
are used here, with a direct-summation fallback near the singular alignments
where the ratio denominators vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayGeometry, PathState, assemble_channel, steering_vector

__all__ = [
    "SoundingConfig",
    "PilotVector",
    "sounding_matrices",
    "predicted_measurement",
    "predicted_measurement_closed_form",
    "measurement_jacobian",
    "receive",
]

# Width of the sine-angle window around each singular alignment inside which
# the ratio forms are abandoned for direct summation. The ratio numerators
# cancel to O(x^2) there, so float64 loses roughly (1e-16 / x^2) relative
# accuracy; 1e-4 keeps the closed form comfortably below 1e-8 relative error
# while the fallback is exact at any x.
_SINGULAR_GUARD = 1e-4


@dataclass(frozen=True)
class SoundingConfig:
    """Transmit and receive beam angles used for one pilot round."""

    tx_angles: np.ndarray = field(repr=False)
    rx_angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        tx = np.atleast_1d(np.asarray(self.tx_angles, dtype=np.float64))
        rx = np.atleast_1d(np.asarray(self.rx_angles, dtype=np.float64))
        for name, arr in (("tx_angles", tx), ("rx_angles", rx)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if np.any(np.abs(arr) > 1.0):
                raise ValueError(f"{name} must lie in [-1, 1]")
        object.__setattr__(self, "tx_angles", tx)
        object.__setattr__(self, "rx_angles", rx)

    @property
    def m_b(self) -> int:
        return self.tx_angles.size

    @property
    def m_m(self) -> int:
        return self.rx_angles.size

    @property
    def num_pilots(self) -> int:
        return self.m_b * self.m_m


@dataclass
class PilotVector:
    """Received pilot samples for one sounding round plus their noise variance."""

    values: np.ndarray
    noise_var: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise ValueError("pilot values must be 1-D")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")


def sounding_matrices(
    sounding: SoundingConfig, geom_rx: ArrayGeometry, geom_tx: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Combiner W (N_m x M_m) and precoder F (N_b x M_b), one steering vector per column."""
    w = np.column_stack([steering_vector(geom_rx, mu) for mu in sounding.rx_angles])
    f = np.column_stack([steering_vector(geom_tx, nu) for nu in sounding.tx_angles])
    return w, f


def _vec_received(
    channel: np.ndarray, sounding: SoundingConfig, geom_rx: ArrayGeometry, geom_tx: ArrayGeometry
) -> np.ndarray:
    w, f = sounding_matrices(sounding, geom_rx, geom_tx)
    return np.asarray(w.conj().T @ channel @ f).ravel(order="F")


def predicted_measurement(
    paths: list[PathState],
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> np.ndarray:
    """Noiseless pilot vector vec(W^H H F) via explicit matrix products."""
    h = assemble_channel(paths, geom_rx, geom_tx)
    return _vec_received(h, sounding, geom_rx, geom_tx)


def _near_singular(kappa: float, x) -> tuple[np.ndarray, np.ndarray]:
    """x as a float array, and the mask of its entries inside the guard window
    around a singular alignment (kappa*x = 0 mod 2*pi)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    period = 2.0 * np.pi / kappa
    wrapped = x - period * np.round(x / period)
    return x, np.abs(wrapped) < _SINGULAR_GUARD


def _geometric_sum(n: int, kappa: float, x: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{n-1} exp(j*kappa*k*x), elementwise over x.

    Uses the ratio form (1 - e^{j*kappa*n*x}) / (1 - e^{j*kappa*x}) away from
    singular alignments (kappa*x = 0 mod 2*pi) and exact direct summation
    inside the guard window.
    """
    x, near = _near_singular(kappa, x)

    out = np.empty(x.shape, dtype=np.complex128)
    safe = ~near
    if np.any(safe):
        xs = x[safe]
        out[safe] = (1.0 - np.exp(1j * kappa * n * xs)) / (1.0 - np.exp(1j * kappa * xs))
    if np.any(near):
        k = np.arange(n)
        out[near] = np.exp(1j * kappa * np.multiply.outer(x[near], k)).sum(axis=-1)
    return out


def _geometric_sum_deriv(n: int, kappa: float, x: np.ndarray) -> np.ndarray:
    """d/dx of _geometric_sum: sum_{k=0}^{n-1} (j*kappa*k) exp(j*kappa*k*x).

    Ratio form: with a = j*kappa and s = e^{a x},
        a * (s - n*s^n + (n-1)*s^(n+1)) / (1 - s)^2 .
    """
    x, near = _near_singular(kappa, x)

    out = np.empty(x.shape, dtype=np.complex128)
    safe = ~near
    if np.any(safe):
        a = 1j * kappa
        s = np.exp(a * x[safe])
        sn = np.exp(a * n * x[safe])
        out[safe] = a * (s - n * sn + (n - 1) * sn * s) / (1.0 - s) ** 2
    if np.any(near):
        k = np.arange(n)
        phases = np.exp(1j * kappa * np.multiply.outer(x[near], k))
        out[near] = (1j * kappa * k * phases).sum(axis=-1)
    return out


def _path_arrays(paths: list[PathState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gains = np.array([p.gain for p in paths], dtype=np.complex128)
    aoas = np.array([p.aoa for p in paths], dtype=np.float64)
    aods = np.array([p.aod for p in paths], dtype=np.float64)
    return gains, aoas, aods


def _measurement_factors(
    gains: np.ndarray,
    aoas: np.ndarray,
    aods: np.ndarray,
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
    with_derivatives: bool = False,
):
    """Per-path transmit/receive inner products of the pilot map.

    For path l, transmit beam i and receive beam j,

        q_(i,j) = sum_l gain_l / (N_b * N_m) * conj(G_b(aod_l - nu_i)) * G_m(aoa_l - mu_j)

    where G_n is the n-term geometric sum above. Returns (scale, gt, gr) and,
    when requested, the arrival-angle derivative factor dgr.
    """
    n_b, n_m = geom_tx.num_elements, geom_rx.num_elements
    kb, km = geom_tx.spatial_freq, geom_rx.spatial_freq
    dx_t = aods[:, None] - sounding.tx_angles[None, :]  # (L, M_b)
    dx_r = aoas[:, None] - sounding.rx_angles[None, :]  # (L, M_m)
    gt = _geometric_sum(n_b, kb, dx_t).conj()
    gr = _geometric_sum(n_m, km, dx_r)
    scale = gains / (n_b * n_m)
    if not with_derivatives:
        return scale, gt, gr
    return scale, gt, gr, _geometric_sum_deriv(n_m, km, dx_r)


def _measurement_from_angles(
    gains: np.ndarray,
    aoas: np.ndarray,
    aods: np.ndarray,
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> np.ndarray:
    """Closed-form pilot map on raw angle arrays (no [-1, 1] validation).

    Used by the tracking filters, whose angle estimates may transiently leave
    the physical range; the expression stays well defined there.
    """
    scale, gt, gr = _measurement_factors(gains, aoas, aods, sounding, geom_rx, geom_tx)
    entries = np.einsum("l,li,lj->ij", scale, gt, gr)  # (M_b, M_m)
    return entries.ravel()


def predicted_measurement_closed_form(
    paths: list[PathState],
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> np.ndarray:
    """Noiseless pilot vector computed from geometric-sum factors.

    Agrees with predicted_measurement to floating-point accuracy; kept as an
    independent route for cross-checking and as the basis of the Jacobian.
    """
    gains, aoas, aods = _path_arrays(paths)
    return _measurement_from_angles(gains, aoas, aods, sounding, geom_rx, geom_tx)


def _jacobian_from_angles(
    gains: np.ndarray,
    aoas: np.ndarray,
    aods: np.ndarray,
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> np.ndarray:
    """Complex Jacobian of the pilot map in the arrival angles: (M_b*M_m, L),
    column l holds dq/d(aoa_l). The trackers estimate arrival angles only."""
    scale, gt, _, dgr = _measurement_factors(
        gains, aoas, aods, sounding, geom_rx, geom_tx, with_derivatives=True
    )
    jac = np.empty((sounding.num_pilots, gains.size), dtype=np.complex128)
    for l in range(gains.size):
        jac[:, l] = (scale[l] * np.outer(gt[l], dgr[l])).ravel()
    return jac


def measurement_jacobian(
    paths: list[PathState],
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> np.ndarray:
    """Jacobian of q with respect to the per-path angles.

    Shape (M_b*M_m, 2*L); column 2l holds dq/d(aod_l) and column 2l+1 holds
    dq/d(aoa_l). Matches central finite differences of predicted_measurement.
    """
    gains, aoas, aods = _path_arrays(paths)
    scale, _, gr = _measurement_factors(gains, aoas, aods, sounding, geom_rx, geom_tx)
    dx_t = aods[:, None] - sounding.tx_angles[None, :]
    dgt = _geometric_sum_deriv(geom_tx.num_elements, geom_tx.spatial_freq, dx_t).conj()
    jac = np.empty((sounding.num_pilots, 2 * gains.size), dtype=np.complex128)
    for l in range(gains.size):
        jac[:, 2 * l] = (scale[l] * np.outer(dgt[l], gr[l])).ravel()
    jac[:, 1::2] = _jacobian_from_angles(gains, aoas, aods, sounding, geom_rx, geom_tx)
    return jac


def receive(
    channel: np.ndarray,
    sounding: SoundingConfig,
    snr_db: float,
    rng: np.random.Generator,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> PilotVector:
    """Sound the channel once and return noisy pilots.

    Pilot symbols are unit amplitude, so with unit-modulus path gains the
    per-pilot SNR convention is 1/sigma^2 and the complex noise variance is
    sigma^2 = 10^(-snr_db/10), split evenly between real and imaginary parts.
    Passing snr_db = inf disables the noise.
    """
    clean = _vec_received(channel, sounding, geom_rx, geom_tx)
    noise_var = float(10.0 ** (-snr_db / 10.0))
    sigma = np.sqrt(noise_var / 2.0)
    noise = rng.normal(scale=sigma, size=(clean.size, 2)) if sigma > 0 else np.zeros((clean.size, 2))
    return PilotVector(clean + noise[:, 0] + 1j * noise[:, 1], noise_var)
