"""Error-bound-driven sounding beam selection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.arrays import make_codebook
from beamtrack.beamctl import (
    BeamSelection,
    crlb_objective,
    nearest_beams,
    select_sounding,
    spd_inverse_trace,
)
from beamtrack.filtering import GaussianBelief
from beamtrack.measurement import SoundingConfig


def test_nearest_beams_hand_oracles():
    cb = make_codebook(4)  # (-0.75, -0.25, 0.25, 0.75)
    np.testing.assert_array_equal(nearest_beams(-1.0, cb, 1), [0])
    np.testing.assert_array_equal(nearest_beams(0.3, cb, 2), [2, 3])
    np.testing.assert_array_equal(nearest_beams(0.3, cb, 4), [0, 1, 2, 3])
    # Equidistant between entries 1 and 2: the tie goes to the smaller index.
    np.testing.assert_array_equal(nearest_beams(0.0, cb, 1), [1])
    np.testing.assert_array_equal(nearest_beams(0.0, cb, 2), [1, 2])


def test_nearest_beams_validation(codebook64):
    with pytest.raises(ValueError):
        nearest_beams(0.0, codebook64, 0)
    with pytest.raises(ValueError):
        nearest_beams(0.0, codebook64, 65)


def test_nearest_beams_ascending(codebook64, rng):
    for _ in range(20):
        idx = nearest_beams(rng.uniform(-1, 1), codebook64, 4)
        assert np.all(np.diff(idx) > 0)


def test_crlb_zero_gain_returns_prior_trace(geom32, rng):
    # Zero path gains carry no pilot information, so the bound is the prior.
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    belief = GaussianBelief([0.2, -0.4], cov)
    snd = SoundingConfig(tx_angles=[0.1, 0.3], rx_angles=[-0.2, 0.5])
    val = crlb_objective(
        belief, snd, np.zeros(2, dtype=complex), 0.1, geom32, geom32,
        aods=np.array([0.1, 0.3]),
    )
    assert val == pytest.approx(np.trace(cov), rel=1e-12)


def test_crlb_rewards_informative_beams(geom32, codebook64):
    belief = GaussianBelief([0.3], [[1e-3]])
    gains = np.array([1.0 + 0j])
    aods = np.array([-0.5])
    tx = [codebook64[15], codebook64[16]]  # near the departure direction
    near = SoundingConfig(tx_angles=tx, rx_angles=[codebook64[41], codebook64[42]])
    far = SoundingConfig(tx_angles=tx, rx_angles=[codebook64[2], codebook64[3]])
    v_near = crlb_objective(belief, near, gains, 0.1, geom32, geom32, aods=aods)
    v_far = crlb_objective(belief, far, gains, 0.1, geom32, geom32, aods=aods)
    assert v_near < v_far
    assert v_far <= np.trace(belief.cov) + 1e-12


def test_crlb_requires_departures(geom32):
    belief = GaussianBelief([0.0], [[0.01]])
    snd = SoundingConfig(tx_angles=[0.0], rx_angles=[0.1])
    with pytest.raises(ValueError):
        crlb_objective(belief, snd, np.ones(1, dtype=complex), 0.1, geom32, geom32)


def test_vectorized_pair_search_matches_bruteforce(geom32, rng):
    # The batched pair scorer must agree with scoring each candidate pair
    # through the generic objective, including the argmin choice.
    cb = make_codebook(8)
    belief = GaussianBelief([0.22, -0.41], np.diag([2e-3, 3e-3]))
    gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    aods = np.array([0.15, 0.15])
    noise_var = 10 ** (-0.9)
    sel = select_sounding(
        belief, cb, gains, noise_var, geom32, geom32, known_aod=0.15
    )
    tx_angles = cb.angles[sel.tx_indices]
    best_combo, best_val = None, np.inf
    for combo in itertools.combinations(range(len(cb)), 2):
        snd = SoundingConfig(tx_angles=tx_angles, rx_angles=cb.angles[list(combo)])
        val = crlb_objective(belief, snd, gains, noise_var, geom32, geom32, aods=aods)
        if val < best_val:
            best_combo, best_val = combo, val
    np.testing.assert_array_equal(sel.rx_indices, best_combo)
    assert sel.objective_value == pytest.approx(best_val, rel=1e-9)


def test_select_sounding_pins_tx_to_known_departure(geom32, codebook64):
    belief = GaussianBelief([0.1, 0.2, 0.3], 1e-3 * np.eye(3))
    gains = np.ones(3, dtype=complex)
    sel = select_sounding(
        belief, codebook64, gains, 0.1, geom32, geom32, known_aod=0.37
    )
    np.testing.assert_array_equal(sel.tx_indices, nearest_beams(0.37, codebook64, 2))
    assert np.all(np.diff(sel.rx_indices) > 0)
    assert len(sel.rx_indices) == 2
    snd = sel.to_sounding(codebook64)
    assert snd.m_b == 2 and snd.m_m == 2


def test_select_sounding_three_rx_beams(geom32):
    cb = make_codebook(6)
    belief = GaussianBelief([0.25], [[1e-3]])
    sel = select_sounding(
        belief, cb, np.ones(1, dtype=complex), 0.1, geom32, geom32,
        known_aod=0.0, num_rx=3,
    )
    assert len(sel.rx_indices) == 3
    snd = sel.to_sounding(cb)
    val = crlb_objective(
        belief, snd, np.ones(1, dtype=complex), 0.1, geom32, geom32,
        aods=np.array([0.0]),
    )
    assert sel.objective_value == pytest.approx(val, rel=1e-12)


def test_select_sounding_full_mode_bruteforce(geom32):
    cb = make_codebook(4)
    belief = GaussianBelief([0.2, -0.3], np.diag([1e-3, 1e-3]))
    gains = np.ones(1, dtype=complex)
    sel = select_sounding(
        belief, cb, gains, 0.1, geom32, geom32, mode="full", num_tx=1, num_rx=1
    )
    best_val = np.inf
    for ti in range(4):
        for ri in range(4):
            snd = SoundingConfig(tx_angles=[cb[ti]], rx_angles=[cb[ri]])
            val = crlb_objective(belief, snd, gains, 0.1, geom32, geom32, mode="full")
            best_val = min(best_val, val)
    assert sel.objective_value == pytest.approx(best_val, rel=1e-9)


def test_confident_prior_selects_bracketing_beams(geom32, codebook64, rng):
    # With a tight single-path prior the chosen receive pair should straddle
    # the believed arrival angle.
    for _ in range(10):
        aoa = rng.uniform(-0.8, 0.8)
        belief = GaussianBelief([aoa], [[1e-4]])
        sel = select_sounding(
            belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32,
            known_aod=rng.uniform(-0.8, 0.8),
        )
        true_idx = int(np.argmin(np.abs(codebook64.angles - aoa)))
        assert np.all(np.abs(sel.rx_indices - true_idx) <= 2)


def test_select_sounding_validation(geom32, codebook64):
    belief = GaussianBelief([0.0], [[0.01]])
    with pytest.raises(ValueError, match="known_aod"):
        select_sounding(belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32)
    with pytest.raises(ValueError, match="unknown mode"):
        select_sounding(
            belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32,
            mode="bogus", known_aod=0.0,
        )


def _spd_batch(seed, size, batch, log_scale):
    """SPD matrices Q diag(lam) Q^T, condition number at most 1e4."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(batch, size, size)))
    lam = 10.0 ** (log_scale + rng.uniform(-2.0, 2.0, size=(batch, size)))
    mats = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (mats + mats.transpose(0, 2, 1))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 4),
    batch=st.integers(1, 12),
    log_scale=st.floats(-6.0, 6.0),
)
def test_spd_inverse_trace_matches_explicit_inverse(seed, size, batch, log_scale):
    mats = _spd_batch(seed, size, batch, log_scale)
    expected = np.trace(np.linalg.inv(mats), axis1=1, axis2=2)
    got = spd_inverse_trace(mats)
    assert got.shape == (batch,)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 4),
    batch=st.integers(2, 12),
    kind=st.sampled_from(["singular", "indefinite", "nan", "inf"]),
    data=st.data(),
)
def test_spd_inverse_trace_flags_only_the_bad_entry(seed, size, batch, kind, data):
    mats = _spd_batch(seed, size, batch, 0.0)
    bad = data.draw(st.integers(0, batch - 1), label="bad entry")
    col = data.draw(st.integers(0, size - 1), label="bad row/column")
    broken = mats.copy()
    if kind in ("singular", "indefinite"):
        broken[bad, col, :] = 0.0
        broken[bad, :, col] = 0.0
        broken[bad, col, col] = 0.0 if kind == "singular" else -1.0
    else:
        broken[bad, col, 0] = broken[bad, 0, col] = np.nan if kind == "nan" else np.inf
    got = spd_inverse_trace(broken)
    assert got[bad] == np.inf
    keep = np.arange(batch) != bad
    np.testing.assert_array_equal(got[keep], spd_inverse_trace(mats[keep]))
    assert np.all(np.isfinite(got[keep]))
