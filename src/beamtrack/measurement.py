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

from .arrays import ArrayGeometry, PathState, _path_arrays, assemble_channel, steering_vector

__all__ = [
    "SoundingConfig",
    "PilotVector",
    "sounding_matrices",
    "predicted_measurement",
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
    """Transmit and receive beam angles used for one pilot round.

    The angle arrays may carry leading batch axes, (..., M_b) and (..., M_m),
    for one round per episode of a batch.
    """

    tx_angles: np.ndarray = field(repr=False)
    rx_angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        tx = np.atleast_1d(np.asarray(self.tx_angles, dtype=np.float64))
        rx = np.atleast_1d(np.asarray(self.rx_angles, dtype=np.float64))
        for name, arr in (("tx_angles", tx), ("rx_angles", rx)):
            if arr.shape[-1] < 1:
                raise ValueError(f"{name} must hold at least one beam angle")
            if np.any(np.abs(arr) > 1.0):
                raise ValueError(f"{name} must lie in [-1, 1]")
        object.__setattr__(self, "tx_angles", tx)
        object.__setattr__(self, "rx_angles", rx)

    @property
    def m_b(self) -> int:
        return self.tx_angles.shape[-1]

    @property
    def m_m(self) -> int:
        return self.rx_angles.shape[-1]

    @property
    def num_pilots(self) -> int:
        return self.m_b * self.m_m


@dataclass
class PilotVector:
    """Received pilot samples for one sounding round plus their noise variance.

    A batch of rounds stacks the values (..., M) and gives one noise
    variance per round.
    """

    values: np.ndarray
    noise_var: float | np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim < 1:
            raise ValueError("pilot values must be an array")
        if np.any(np.asarray(self.noise_var) < 0):
            raise ValueError("noise_var must be nonnegative")


def sounding_matrices(
    sounding: SoundingConfig, geom_rx: ArrayGeometry, geom_tx: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Combiner W (N_m x M_m) and precoder F (N_b x M_b), one steering vector per column."""
    w = steering_vector(geom_rx, sounding.rx_angles)
    f = steering_vector(geom_tx, sounding.tx_angles)
    return w, f


def _vec_received(
    channel: np.ndarray, sounding: SoundingConfig, geom_rx: ArrayGeometry, geom_tx: ArrayGeometry
) -> np.ndarray:
    w, f = sounding_matrices(sounding, geom_rx, geom_tx)
    received = w.conj().swapaxes(-1, -2) @ channel @ f  # (..., M_m, M_b)
    return received.swapaxes(-1, -2).reshape(received.shape[:-2] + (-1,))


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


def _geometric_sum(n: int, kappa: float, x: np.ndarray, with_derivative: bool = False):
    """sum_{k=0}^{n-1} exp(j*kappa*k*x), elementwise over x, and, with
    `with_derivative`, the pair (sum, d/dx sum) from the same exponentials.

    Uses the ratio forms away from singular alignments (kappa*x = 0 mod
    2*pi): with a = j*kappa and s = e^{a x},

        sum = (1 - s^n) / (1 - s),
        d/dx sum = a * (s - n*s^n + (n-1)*s^(n+1)) / (1 - s)^2,

    and exact direct summation inside the guard window.
    """
    x, near = _near_singular(kappa, x)

    out = np.empty(x.shape, dtype=np.complex128)
    deriv = np.empty(x.shape, dtype=np.complex128) if with_derivative else None
    safe = ~near
    if np.any(safe):
        a = 1j * kappa
        s = np.exp(a * x[safe])
        sn = np.exp(a * n * x[safe])
        out[safe] = (1.0 - sn) / (1.0 - s)
        if with_derivative:
            deriv[safe] = a * (s - n * sn + (n - 1) * sn * s) / (1.0 - s) ** 2
    if np.any(near):
        k = np.arange(n)
        phases = np.exp(1j * kappa * np.multiply.outer(x[near], k))
        out[near] = phases.sum(axis=-1)
        if with_derivative:
            deriv[near] = (1j * kappa * k * phases).sum(axis=-1)
    return (out, deriv) if with_derivative else out


def _transmit_factors(gains: np.ndarray, aods: np.ndarray, tx_angles: np.ndarray,
                      geom_rx: ArrayGeometry, geom_tx: ArrayGeometry):
    """The transmit half of the pilot map's factors: (scale, gt), the path
    weights gain_l / (N_b * N_m), (..., L), and conj(G_b(aod_l - nu_i)),
    (..., L, M_b). Gains, departures and transmit beams stay fixed over an
    episode, so a tracker computes these once."""
    n_b = geom_tx.num_elements
    dx_t = aods[..., :, None] - tx_angles[..., None, :]  # (..., L, M_b)
    gt = _geometric_sum(n_b, geom_tx.spatial_freq, dx_t).conj()
    return gains / (n_b * geom_rx.num_elements), gt


def _receive_factors(aoas: np.ndarray, rx_angles: np.ndarray, geom_rx: ArrayGeometry,
                     with_derivatives: bool = False):
    """The receive half: gr = G_m(aoa_l - mu_j), (..., L, M_m), or with
    `with_derivatives` the pair (gr, dgr), dgr its arrival-angle derivative.
    Each entry is computed on its own, so the columns of an evaluation over
    a whole codebook equal an evaluation over those beams alone, bit for bit."""
    dx_r = aoas[..., :, None] - rx_angles[..., None, :]  # (..., L, M_m)
    return _geometric_sum(
        geom_rx.num_elements, geom_rx.spatial_freq, dx_r, with_derivative=with_derivatives
    )


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
    when requested, the arrival-angle derivative factor dgr: the transmit
    half `_transmit_factors` followed by the receive half `_receive_factors`.
    """
    received = _receive_factors(aoas, sounding.rx_angles, geom_rx, with_derivatives)
    transmit = _transmit_factors(gains, aods, sounding.tx_angles, geom_rx, geom_tx)
    return transmit + (received if with_derivatives else (received,))


def _pilot_map(scale, gt, gr, dgr=None):
    """The pilot map (..., M_b*M_m) from its factors and, given dgr, the
    pair (pilot map, arrival-angle Jacobian)."""
    entries = np.einsum("...l,...li,...lj->...ij", scale, gt, gr)  # (..., M_b, M_m)
    predicted = entries.reshape(entries.shape[:-2] + (-1,))
    if dgr is None:
        return predicted
    return predicted, _jacobian_from_factors(scale, gt, dgr)


def _measurement_from_angles(
    gains: np.ndarray,
    aoas: np.ndarray,
    aods: np.ndarray,
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
):
    """Closed-form pilot map on raw angle arrays (no [-1, 1] validation).

    The angles may leave the physical range, as tracking estimates
    transiently do; the expression stays well defined there. Leading batch axes of the angles
    and the sounding carry through to the result.
    """
    return _pilot_map(*_measurement_factors(gains, aoas, aods, sounding, geom_rx, geom_tx))


def _jacobian_from_factors(scale, gt, dgr) -> np.ndarray:
    """The arrival-angle Jacobian (..., M_b*M_m, L) from the pilot map's
    factors; column l holds dq/d(aoa_l)."""
    # (..., L, M_b, M_m): path l's column before flattening
    terms = scale[..., None, None] * (gt[..., :, :, None] * dgr[..., :, None, :])
    columns = terms.reshape(terms.shape[:-2] + (-1,))
    return np.ascontiguousarray(columns.swapaxes(-1, -2))


def _jacobian_from_angles(
    gains: np.ndarray,
    aoas: np.ndarray,
    aods: np.ndarray,
    sounding: SoundingConfig,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> np.ndarray:
    """Complex Jacobian of the pilot map in the arrival angles: (..., M_b*M_m, L),
    column l holds dq/d(aoa_l). The trackers estimate arrival angles only."""
    scale, gt, _, dgr = _measurement_factors(
        gains, aoas, aods, sounding, geom_rx, geom_tx, with_derivatives=True
    )
    return _jacobian_from_factors(scale, gt, dgr)


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
    scale, gt, gr, dgr = _measurement_factors(
        gains, aoas, aods, sounding, geom_rx, geom_tx, with_derivatives=True
    )
    dx_t = aods[:, None] - sounding.tx_angles[None, :]
    dgt = _geometric_sum(
        geom_tx.num_elements, geom_tx.spatial_freq, dx_t, with_derivative=True
    )[1].conj()
    jac = np.empty((sounding.num_pilots, 2 * gains.size), dtype=np.complex128)
    for l in range(gains.size):
        jac[:, 2 * l] = (scale[l] * np.outer(dgt[l], gr[l])).ravel()
    jac[:, 1::2] = _jacobian_from_factors(scale, gt, dgr)
    return jac


def receive(
    channel: np.ndarray,
    sounding: SoundingConfig,
    snr_db,
    rng,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
) -> PilotVector:
    """Sound the channel once and return noisy pilots.

    Pilot symbols are unit amplitude, so with unit-modulus path gains the
    per-pilot SNR convention is 1/sigma^2 and the complex noise variance is
    sigma^2 = 10^(-snr_db/10), split evenly between real and imaginary parts.
    Passing snr_db = inf disables the noise.

    A batch of B channels (B, N_rx, N_tx) is sounded with B soundings, a (B,)
    array of SNRs and a sequence of B generators, each episode drawing its
    noise from its own generator.

    This dense W^H H F is the oracle of the factored pilot map that the
    trackers and `trackers.PilotChannel` use; no tracking cycle calls it.
    """
    return _noisy_pilots(_vec_received(channel, sounding, geom_rx, geom_tx), snr_db, rng)


def _noisy_pilots(clean: np.ndarray, snr_db, rng) -> PilotVector:
    """The noiseless pilots `clean` plus the noise `receive` documents, with
    its arguments `snr_db` and `rng`: one draw per episode from its own
    generator, of shape (pilots, 2) for the real and imaginary parts."""
    batched = clean.ndim > 1
    snrs, rngs = (snr_db, rng) if batched else ([snr_db], [rng])
    noise_var = np.array([10.0 ** (-float(snr) / 10.0) for snr in snrs])
    size = (clean.shape[-1], 2)
    noise = np.stack([
        gen.normal(scale=sigma, size=size) if sigma > 0 else np.zeros(size)
        for gen, sigma in zip(rngs, np.sqrt(noise_var / 2.0))
    ]).reshape(clean.shape + (2,))
    values = clean + noise[..., 0] + 1j * noise[..., 1]
    return PilotVector(values, noise_var if batched else float(noise_var[0]))
