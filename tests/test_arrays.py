"""Array geometry, steering vectors, codebooks."""

import numpy as np
import pytest

from beamtrack.arrays import (
    ArrayGeometry,
    PathState,
    assemble_channel,
    make_codebook,
    steering_vector,
)


def test_steering_two_elements_endfire():
    # kappa = pi at half-wavelength spacing, theta = 1:
    # (1/sqrt2) * (e^0, e^{j pi}) = (0.7071, -0.7071)
    v = steering_vector(ArrayGeometry(2), 1.0)
    np.testing.assert_allclose(v, [0.70710678118654752, -0.70710678118654752], atol=1e-15)


def test_steering_four_elements_quarter():
    # theta = 0.5: phases are k*pi/2, so elements cycle 1, j, -1, -j over 2.
    v = steering_vector(ArrayGeometry(4), 0.5)
    np.testing.assert_allclose(v, [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)


def test_steering_unit_norm():
    for n in (1, 2, 7, 32, 128):
        for theta in (-1.0, -0.37, 0.0, 0.99):
            v = steering_vector(ArrayGeometry(n), theta)
            assert v.shape == (n,)
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-14)


def test_steering_rejects_out_of_range():
    with pytest.raises(ValueError):
        steering_vector(ArrayGeometry(8), 1.01)


def test_spatial_freq_default_half_wavelength():
    assert ArrayGeometry(16).spatial_freq == 2.0 * np.pi * 0.5


def test_assemble_channel_single_path_hand_case():
    # gain 2, aoa 0 -> a_rx = (1,1)/sqrt2; aod 1 -> a_tx = (1,-1)/sqrt2.
    # H = 2 * outer(a_rx, conj(a_tx)) = [[1,-1],[1,-1]].
    geom = ArrayGeometry(2)
    h = assemble_channel([PathState(2.0 + 0j, 0.0, 1.0)], geom, geom)
    np.testing.assert_allclose(h, [[1.0, -1.0], [1.0, -1.0]], atol=1e-14)


def test_assemble_channel_superposition(rng):
    geom_rx, geom_tx = ArrayGeometry(8), ArrayGeometry(4)
    paths = [
        PathState(np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(3)
    ]
    total = assemble_channel(paths, geom_rx, geom_tx)
    parts = sum(assemble_channel([p], geom_rx, geom_tx) for p in paths)
    np.testing.assert_allclose(total, parts, atol=1e-14)
    assert total.shape == (8, 4)


def test_path_state_validates_angles():
    PathState(1.0 + 0j, -1.0, 1.0)
    with pytest.raises(ValueError):
        PathState(1.0 + 0j, -1.2, 0.0)
    with pytest.raises(ValueError):
        PathState(1.0 + 0j, 0.0, 1.0001)


def test_codebook_midpoints_size_four():
    cb = make_codebook(4)
    np.testing.assert_allclose(cb.angles, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
    assert len(cb) == 4
    assert cb[2] == pytest.approx(0.25)


def test_codebook_sixty_four_within_domain():
    cb = make_codebook(64)
    assert cb.angles[0] == pytest.approx(-1 + 1 / 64)
    assert cb.angles[-1] == pytest.approx(1 - 1 / 64)
    assert np.all(np.diff(cb.angles) > 0)
    assert np.all(np.abs(cb.angles) < 1)


def test_codebook_rejects_tiny():
    with pytest.raises(ValueError):
        make_codebook(1)
