"""Pilot sounding model: geometric sums, closed form, Jacobian, reception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.arrays import ArrayGeometry, PathState, _path_arrays, assemble_channel, make_codebook
from beamtrack import measurement
from beamtrack.measurement import (
    PilotVector,
    SoundingConfig,
    measurement_jacobian,
    predicted_measurement,
    receive,
    sounding_matrices,
)


def _random_paths(rng, n=3):
    return [
        PathState(
            np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(-0.98, 0.98),
            rng.uniform(-0.98, 0.98),
        )
        for _ in range(n)
    ]


def _random_sounding(rng, codebook):
    tx = codebook.angles[rng.choice(len(codebook), 2, replace=False)]
    rx = codebook.angles[rng.choice(len(codebook), 2, replace=False)]
    return SoundingConfig(tx_angles=np.sort(tx), rx_angles=np.sort(rx))


def test_geometric_sum_hand_case():
    # N=3, kappa=pi, x=0.5: 1 + e^{j pi/2} + e^{j pi} = j
    val = measurement._geometric_sum(3, np.pi, 0.5)
    np.testing.assert_allclose(val, 1j, atol=1e-14)


def test_geometric_sum_orthogonal_zero():
    # N=4, x=0.5: 1 + j - 1 - j = 0 (beams a full DFT bin apart)
    val = measurement._geometric_sum(4, np.pi, 0.5)
    np.testing.assert_allclose(val, 0.0, atol=1e-14)


def test_geometric_sum_alignment_peak():
    for n in (1, 4, 32):
        np.testing.assert_allclose(measurement._geometric_sum(n, np.pi, 0.0), n, atol=1e-13)


def test_geometric_sum_matches_direct_sum(rng):
    # Ratio form against literal summation, including near-singular offsets.
    kappa = np.pi
    for x in [*rng.uniform(-2, 2, 40), 1e-10, -1e-7, 1e-5, 2.0 - 1e-9]:
        direct = np.exp(1j * kappa * np.arange(17) * x).sum()
        np.testing.assert_allclose(
            measurement._geometric_sum(17, kappa, x), direct, atol=1e-10
        )


def test_geometric_sum_deriv_matches_finite_difference(rng):
    kappa = np.pi
    h = 1e-7
    for x in [*rng.uniform(-1.9, 1.9, 30), 1e-9, -3e-5]:
        fd = (
            measurement._geometric_sum(11, kappa, x + h)
            - measurement._geometric_sum(11, kappa, x - h)
        ) / (2 * h)
        np.testing.assert_allclose(
            measurement._geometric_sum(11, kappa, x, with_derivative=True)[1], fd,
            rtol=2e-6, atol=2e-6,
        )


def test_geometric_sum_with_its_derivative_is_the_sum_alone(rng):
    # The pair shares the exponentials: its sum is _geometric_sum's bit for
    # bit, in the ratio form and inside the guard window.
    x = np.concatenate([rng.uniform(-1.9, 1.9, 200), [0.0, 1e-9, -3e-5, 2.0]])
    total, _ = measurement._geometric_sum(11, np.pi, x, with_derivative=True)
    np.testing.assert_array_equal(total, measurement._geometric_sum(11, np.pi, x))


def test_sounding_matrices_columns_are_steering_vectors(geom32, codebook64):
    snd = SoundingConfig(tx_angles=[codebook64[3], codebook64[40]],
                         rx_angles=[codebook64[10], codebook64[20]])
    f, w = sounding_matrices(snd, geom32, geom32)
    assert f.shape == (32, 2) and w.shape == (32, 2)
    np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-14)


def test_aligned_single_pilot_is_unity(geom32):
    # Beams exactly on the path angles: q = conj(D(0))*D(0)/(N*N) = 1.
    path = PathState(1.0 + 0j, 0.25, -0.5)
    snd = SoundingConfig(tx_angles=[-0.5], rx_angles=[0.25])
    q = predicted_measurement([path], snd, geom32, geom32)
    np.testing.assert_allclose(q, [1.0 + 0j], atol=1e-13)


def test_closed_form_matches_matrix_route(geom32, codebook64):
    rng = np.random.default_rng(17)
    for _ in range(25):
        paths = _random_paths(rng)
        snd = _random_sounding(rng, codebook64)
        q_mat = predicted_measurement(paths, snd, geom32, geom32)
        gains, aoas, aods = _path_arrays(paths)
        q_cf = measurement._measurement_from_angles(gains, aoas, aods, snd, geom32, geom32)
        np.testing.assert_allclose(q_cf, q_mat, atol=1e-10)


def test_measurement_vector_ordering(geom32, codebook64):
    # Entry (i-1)*M_m + j pairs Tx beam i with Rx beam j: with a path only
    # visible to (tx0, rx1) the hot entry must be index 1.
    path = PathState(1.0 + 0j, codebook64[40], codebook64[8])
    snd = SoundingConfig(
        tx_angles=[codebook64[8], codebook64[50]],
        rx_angles=[codebook64[4], codebook64[40]],
    )
    q = predicted_measurement([path], snd, geom32, geom32)
    assert np.argmax(np.abs(q)) == 1
    others = np.abs(np.delete(q, 1))
    assert np.abs(q[1]) > 1e10 * others.max()


def test_jacobian_matches_finite_differences(geom32, codebook64):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        paths = _random_paths(rng)
        snd = _random_sounding(rng, codebook64)
        jac = measurement_jacobian(paths, snd, geom32, geom32)
        assert jac.shape == (4, 6)
        # The trackers' Jacobian is the arrival columns alone.
        arrival = measurement._jacobian_from_angles(
            *measurement._path_arrays(paths), snd, geom32, geom32
        )
        np.testing.assert_array_equal(arrival, jac[:, 1::2])
        fd = np.zeros_like(jac)
        for l, p in enumerate(paths):
            for col, (daod, daoa) in ((2 * l, (h, 0.0)), (2 * l + 1, (0.0, h))):
                plus = list(paths)
                minus = list(paths)
                plus[l] = PathState(p.gain, p.aoa + daoa, p.aod + daod)
                minus[l] = PathState(p.gain, p.aoa - daoa, p.aod - daod)
                fd[:, col] = (
                    predicted_measurement(plus, snd, geom32, geom32)
                    - predicted_measurement(minus, snd, geom32, geom32)
                ) / (2 * h)
        scale = np.max(np.abs(jac))
        assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_jacobian_near_beam_alignment(geom32):
    # Wrapped offset inside the singular guard: derivative must stay finite
    # and match finite differences of the matrix route.
    path = PathState(1.0 + 0j, 0.3, -0.2)
    snd = SoundingConfig(tx_angles=[-0.2 + 5e-5], rx_angles=[0.3 - 5e-5])
    jac = measurement_jacobian([path], snd, geom32, geom32)
    assert np.all(np.isfinite(jac))
    h = 1e-6
    plus = [PathState(1.0 + 0j, 0.3 + h, -0.2)]
    minus = [PathState(1.0 + 0j, 0.3 - h, -0.2)]
    fd = (
        predicted_measurement(plus, snd, geom32, geom32)
        - predicted_measurement(minus, snd, geom32, geom32)
    ) / (2 * h)
    np.testing.assert_allclose(jac[:, 1], fd, rtol=1e-5, atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), num_paths=st.integers(1, 4),
    batch=st.sampled_from([(), (3,), (2, 2)]), on_codebook=st.booleans(),
    num_rx=st.integers(1, 3), num_tx=st.integers(1, 3),
)
def test_factored_pilots_equal_the_dense_oracle(seed, batch, num_paths, on_codebook, num_rx,
                                                num_tx):
    # The true channel is sounded through the factors that the trackers
    # predict it with, `_transmit_factors` and `_receive_factors`, so a
    # defect there no longer shows as a mismatch between truth and model.
    # The dense W^H H F of `predicted_measurement` is the independent oracle:
    # the factored pilots must equal it to 1e-13 of the pilots' scale, the
    # summed path-gain magnitude, for any leading batch axes, with angles on
    # codebook beam angles (the singular-alignment branch) and at +-1.
    geom_rx, geom_tx, cb = ArrayGeometry(16), ArrayGeometry(32), make_codebook(32)
    rng = np.random.default_rng(seed)
    shape = batch + (num_paths,)
    gains = np.exp(2j * np.pi * rng.random(shape)) * rng.uniform(0.1, 1.0, shape)
    aoas, aods = rng.uniform(-1.0, 1.0, (2,) + shape)
    if on_codebook:
        for angles in (aoas, aods):
            picks = rng.random(shape)
            angles[picks < 0.4] = cb.angles[rng.integers(len(cb), size=shape)][picks < 0.4]
            angles[picks > 0.8] = rng.choice([-1.0, 1.0], size=shape)[picks > 0.8]
    tx_angles = cb.angles[rng.integers(len(cb), size=batch + (num_tx,))]
    rx_angles = cb.angles[rng.integers(len(cb), size=batch + (num_rx,))]
    factored = measurement._pilot_map(
        *measurement._transmit_factors(gains, aods, tx_angles, geom_rx, geom_tx),
        measurement._receive_factors(aoas, rx_angles, geom_rx),
    )
    assert factored.shape == batch + (num_tx * num_rx,)
    for b in np.ndindex(batch):
        paths = [PathState(g, a, d) for g, a, d in zip(gains[b], aoas[b], aods[b])]
        sounding = SoundingConfig(tx_angles=tx_angles[b], rx_angles=rx_angles[b])
        dense = predicted_measurement(paths, sounding, geom_rx, geom_tx)
        scale = np.abs(gains[b]).sum()
        np.testing.assert_allclose(factored[b], dense, rtol=0.0, atol=1e-13 * scale)


def test_receive_noiseless_matches_prediction(geom32, codebook64, rng):
    paths = _random_paths(rng)
    snd = _random_sounding(rng, codebook64)
    h = assemble_channel(paths, geom32, geom32)
    pilot = receive(h, snd, np.inf, rng, geom32, geom32)
    assert pilot.noise_var == 0.0
    np.testing.assert_allclose(
        pilot.values, predicted_measurement(paths, snd, geom32, geom32), atol=1e-12
    )


def test_receive_noise_statistics(geom32, codebook64):
    rng = np.random.default_rng(11)
    paths = _random_paths(rng)
    snd = _random_sounding(rng, codebook64)
    h = assemble_channel(paths, geom32, geom32)
    clean = predicted_measurement(paths, snd, geom32, geom32)
    snr_db = 7.0
    draws = np.array(
        [receive(h, snd, snr_db, rng, geom32, geom32).values - clean for _ in range(4000)]
    )
    var = 10 ** (-snr_db / 10)
    np.testing.assert_allclose(draws.real.var(), var / 2, rtol=0.1)
    np.testing.assert_allclose(draws.imag.var(), var / 2, rtol=0.1)
    assert receive(h, snd, snr_db, rng, geom32, geom32).noise_var == pytest.approx(var)


def test_pilot_vector_validation():
    with pytest.raises(ValueError):
        PilotVector(np.zeros(4, dtype=complex), noise_var=-1.0)


def test_sounding_config_validation():
    with pytest.raises(ValueError):
        SoundingConfig(tx_angles=[0.0, 1.5], rx_angles=[0.0])
