"""Sigma-point propagation and Kalman measurement updates."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.arrays import PathState, assemble_channel
from beamtrack.filtering import (
    GaussianBelief,
    _psd_sqrt,
    joint_belief,
    kalman_update,
    measurement_update,
    prediction_update,
    sigma_points,
    split_joint,
)
from beamtrack import measurement
from beamtrack.measurement import PilotVector, SoundingConfig, receive
from beamtrack.predictor import NormStats, build_model, predict


def _random_psd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.1 * np.eye(n)


def _window(mean, delta=3, sensors=8):
    """The (past, sensors) pair of one path's window that holds `mean` in
    every entry: a batch of one."""
    est = np.tile(np.atleast_1d(mean), (1, delta, 1))
    return est, np.zeros((1, delta, sensors))


def _affine(a, b):
    """A predictor that maps each window's newest estimate x to a x + b."""
    return lambda pair: np.array([a @ past[-1] + b for past in pair[0]])


def test_belief_validation():
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))
    b = GaussianBelief(0.3, 0.01)
    assert b.dim == 1 and b.cov.shape == (1, 1)


@pytest.mark.parametrize(
    "upper, lower",
    [
        (0.5, 0.5),
        (0.5, 0.5 + 1e-11),
        (0.5, 0.5 + 1e-9),
        (1e-8, 1e-8 + 5e-11),
        (1e-8, 1e-8 + 2e-10),
        (1e6, 1e6 * (1 + 9e-6)),
        (1e6, 1e6 * (1 + 2e-5)),
        (np.nan, np.nan),
        (np.inf, np.inf),
        (np.inf, -np.inf),
        (np.inf, 1.0),
        (1.0, np.inf),
        (np.nan, 1.0),
    ],
)
def test_belief_symmetry_check_matches_allclose(upper, lower):
    cov = np.array([[1.0, upper, 0.0], [lower, 1.0, 0.0], [0.0, 0.0, 1.0]])
    if np.allclose(cov, cov.T, atol=1e-10):
        assert GaussianBelief(np.zeros(3), cov).dim == 3
    else:
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief(np.zeros(3), cov)


def test_psd_sqrt_round_trip(rng):
    for n in (1, 3, 6):
        mat = _random_psd(rng, n)
        root = _psd_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, atol=1e-10)
        np.testing.assert_allclose(root, root.T, atol=1e-12)
        roots = _psd_sqrt(np.stack([mat, 2.0 * mat]))
        np.testing.assert_array_equal(roots[0], root)
        np.testing.assert_allclose(roots[1] @ roots[1], 2.0 * mat, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    variances=st.lists(
        st.floats(0.0, 1e300, allow_subnormal=True) | st.sampled_from([0.0, 5e-324, 1e-3]),
        min_size=1, max_size=64,
    ),
    scale=st.sampled_from([1e-6, 1.0, 3.0]),
)
def test_psd_sqrt_of_one_by_one_stacks_is_the_scalar_root(variances, scale):
    # The Kalman trackers root (B, 1, 1) stacks of scale * variance, scale
    # alpha^2 = 1e-6 for one state. On this path the stacked eigh returns the
    # entry and a unit eigenvector, so the root equals sqrt(scale * var) in
    # the last bit, for every variance whose doubled scaled value is finite.
    var = np.array(variances)
    root = _psd_sqrt((scale * var)[:, None, None])
    np.testing.assert_array_equal(root[:, 0, 0], np.sqrt(scale * var))


def test_psd_sqrt_rank_deficient_ok():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    root = _psd_sqrt(mat)
    np.testing.assert_allclose(root @ root, mat, atol=1e-12)


def test_psd_sqrt_indefinite_raises():
    with pytest.raises(ValueError):
        _psd_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="-1"):
        _psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


def test_sigma_weights_sum_to_one():
    # The analytic identity sum(w_mean) = 1 holds for every spread. Checking
    # it at machine precision needs weights of order one; the deployed
    # alpha = 1e-3 puts w0 near -1e6, where each rounded weight already
    # carries ~1e-10 of absolute error, so that regime gets a looser bound.
    belief = {p: GaussianBelief(np.zeros(p), np.eye(p)) for p in (1, 2, 4)}
    for p, b in belief.items():
        for alpha in (1.0, 0.5):
            sig = sigma_points(b, alpha=alpha)
            assert abs(math.fsum(sig.mean_weights) - 1.0) < 1e-14
        sig = sigma_points(b)  # deployed spread
        assert abs(math.fsum(sig.mean_weights) - 1.0) < 1e-9


def test_sigma_moment_recovery(rng):
    for p in (1, 2, 5):
        belief = GaussianBelief(rng.normal(size=p), _random_psd(rng, p))
        sig = sigma_points(belief)
        assert sig.points.shape == (2 * p + 1, p)
        mean = sig.mean_weights @ sig.points
        np.testing.assert_allclose(mean, belief.mean, atol=1e-9)
        centered = sig.points - belief.mean
        cov = (sig.cov_weights[:, None] * centered).T @ centered
        np.testing.assert_allclose(cov, belief.cov, atol=1e-8)


def test_prediction_update_exact_for_affine_map(rng):
    # The unscented transform is exact for y = A x + b: mean A mu + b and
    # covariance A P A^T, plus the stabilizing jitter on the diagonal.
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    mean, cov = rng.normal(size=2), _random_psd(rng, 2)
    means, covs = prediction_update(
        (mean[None], cov[None]), _window(mean), _affine(a, b), jitter=1e-8
    )
    np.testing.assert_allclose(means[0], a @ mean + b, atol=1e-8)
    np.testing.assert_allclose(covs[0], a @ cov @ a.T + 1e-8 * np.eye(2), atol=1e-8)


def test_prediction_update_identity_map_keeps_belief(rng):
    means, covs = prediction_update(
        (np.array([[0.4]]), np.array([[[0.003]]])), _window(0.4), lambda pair: pair[0][:, -1],
        jitter=1e-9,
    )
    np.testing.assert_allclose(means, [[0.4]], atol=1e-12)
    np.testing.assert_allclose(covs, [[[0.003 + 1e-9]]], atol=1e-12)


def test_prediction_update_zero_cov_collapses_to_point():
    means, covs = prediction_update(
        (np.array([[0.2]]), np.array([[[0.0]]])), _window(0.2), lambda pair: pair[0][:, -1] + 0.05
    )
    np.testing.assert_allclose(means, [[0.25]], atol=1e-14)
    np.testing.assert_allclose(covs, [[[1e-8]]], atol=1e-20)


def test_prediction_update_only_moves_latest_entry():
    seen = []

    def spy(pair):
        seen.append(pair[0].copy())
        return pair[0][:, -1]

    prediction_update((np.array([[0.1]]), np.array([[[0.04]]])), _window(0.1), spy)
    (stacked,) = seen  # (2P+1, delta, 1)
    np.testing.assert_array_equal(stacked[:, :-1, 0], 0.1)
    assert np.ptp(stacked[:, -1, 0]) > 0  # sigma spread applied to the newest entry


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([(1, "affine"), (2, "affine"), (4, "affine"), (1, "lstm")]),
    num_paths=st.integers(1, 5),
    delta=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_var=st.floats(-12.0, -2.0),
)
def test_batched_prediction_equals_one_path_at_a_time(case, num_paths, delta, seed, log_var):
    # One stacked update for every path's sigma points must give each path
    # the belief its own batch of one gives, bit for bit.
    dim, kind = case
    rng = np.random.default_rng(seed)
    means = rng.uniform(-0.9, 0.9, (num_paths, dim))
    covs = np.stack([10.0**log_var * _random_psd(rng, dim) for _ in range(num_paths)])
    past = rng.uniform(-0.9, 0.9, (num_paths, delta, dim))
    sensors = rng.normal(0.0, 0.05, (num_paths, delta, 8))
    if kind == "lstm":
        model = build_model(np.random.default_rng(seed), delta=delta)
        d = model.input_dim
        # A unit target scale keeps the network's last bits in the prediction.
        model.norm = NormStats(np.zeros(d), np.full(d, 0.5), np.zeros(1), np.ones(1))
        predict_fn = partial(predict, model)
    else:
        predict_fn = _affine(rng.normal(size=(dim, dim)), rng.normal(size=dim))
    got_means, got_covs = prediction_update((means, covs), (past, sensors), predict_fn)
    assert got_means.shape == (num_paths, dim) and got_covs.shape == (num_paths, dim, dim)
    for l in range(num_paths):
        row = slice(l, l + 1)
        alone_means, alone_covs = prediction_update(
            (means[row], covs[row]), (past[row], sensors[row]), predict_fn
        )
        assert np.array_equal(got_means[l], alone_means[0])
        assert np.array_equal(got_covs[l], alone_covs[0])


def test_prediction_update_passes_sigma_windows_as_one_pair():
    # Each path's window appears once per sigma point, path by path, with
    # only the newest estimate moved; the caller's history is left as it was.
    seen = []

    def spy(pair):
        seen.append(pair)
        return pair[0][:, -1]

    past = np.array([[[0.1], [0.2]], [[-0.3], [-0.4]]])
    sensors = np.arange(2 * 2 * 8.0).reshape(2, 2, 8)
    before = past.copy()
    prediction_update((np.array([[0.2], [-0.4]]), np.full((2, 1, 1), 0.04)), (past, sensors), spy)
    (got_past, got_sensors), = seen
    assert got_past.shape == (6, 2, 1) and got_sensors.shape == (6, 2, 8)
    np.testing.assert_array_equal(got_past[:, 0, 0], [0.1] * 3 + [-0.3] * 3)
    np.testing.assert_array_equal(got_sensors, np.repeat(sensors, 3, axis=0))
    assert np.ptp(got_past[:3, -1, 0]) > 0 and np.ptp(got_past[3:, -1, 0]) > 0
    np.testing.assert_array_equal(past, before)


def test_prediction_update_needs_one_window_per_belief():
    stacked = (np.full((2, 1), 0.1), np.full((2, 1, 1), 0.01))
    one_window = (np.full((1, 3, 1), 0.1), np.zeros((1, 3, 8)))
    with pytest.raises(ValueError, match="one window per belief"):
        prediction_update(stacked, one_window, lambda pair: None)
    two_dim = (np.full((2, 3, 2), 0.1), np.zeros((2, 3, 8)))
    with pytest.raises(ValueError, match="state dimension"):
        prediction_update(stacked, two_dim, lambda pair: None)


def test_kalman_scalar_closed_form(rng):
    for _ in range(100):
        mu0, var0 = rng.normal(), rng.uniform(0.1, 2.0)
        r = rng.uniform(0.05, 1.0)
        y = rng.normal()
        mean, cov, reg = kalman_update(
            np.array([mu0]), np.array([[var0]]), np.array([y]),
            np.array([mu0]), np.array([[1.0]]), r,
        )
        gain = var0 / (var0 + r)
        assert not reg
        assert mean[0] == pytest.approx(mu0 + gain * (y - mu0), rel=1e-12, abs=1e-12)
        assert cov[0, 0] == pytest.approx(var0 * r / (var0 + r), rel=1e-12)


def test_kalman_never_inflates_variance(rng):
    for _ in range(20):
        cov = _random_psd(rng, 3)
        jac = rng.normal(size=(4, 3))
        mean, post, _ = kalman_update(
            rng.normal(size=3), cov, rng.normal(size=4), rng.normal(size=4), jac, 0.3
        )
        assert np.all(np.diag(post) <= np.diag(cov) + 1e-10)
        eigs = np.linalg.eigvalsh(post)
        assert eigs.min() > -1e-10


def test_kalman_ill_conditioned_ridge_and_flag():
    jac = np.array([[1.0], [1.0]])  # rank-1 innovation with R = 0
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        mean, cov, reg = kalman_update(
            np.array([0.0]), np.array([[1.0]]), np.array([0.3, 0.3]),
            np.array([0.0, 0.0]), jac, 0.0,
        )
    assert reg
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))


def test_measurement_update_pulls_angle_toward_truth(geom32, rng):
    true_aoa, known_aod = 0.3, -0.4
    path = PathState(np.exp(0.7j), true_aoa, known_aod)
    channel = assemble_channel([path], geom32, geom32)
    snd = SoundingConfig(tx_angles=[known_aod], rx_angles=[0.29 + 1 / 64])
    pilot = receive(channel, snd, np.inf, rng, geom32, geom32)
    prior = np.array([0.29]), np.array([1e-3])
    # A noiseless pilot makes the real-stacked innovation covariance rank
    # deficient (R = 0), so the ridge path fires by design.
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        post_means, post_variances = measurement_update(
            prior, pilot, snd, np.array([path.gain]), geom32, geom32,
            aods=np.array([known_aod]),
        )
    assert abs(post_means[0] - true_aoa) < abs(prior[0][0] - true_aoa)
    assert post_variances[0] < prior[1][0]


def test_measurement_update_evaluates_the_factors_once(geom32, rng, count_calls):
    # The prediction and the Jacobian are built from one factor evaluation.
    calls = count_calls(measurement, "_measurement_factors")
    gains = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, 3)))
    aods = rng.uniform(-0.5, 0.5, size=(2, 3))
    snd = SoundingConfig(tx_angles=[[0.1, 0.2], [-0.3, 0.0]], rx_angles=[[0.3, 0.4], [0.5, 0.6]])
    values = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    pilot = PilotVector(values, np.array([0.1, 0.2]))
    prior = rng.uniform(-0.5, 0.5, size=(2, 3)), np.full((2, 3), 1e-3)
    measurement_update(prior, pilot, snd, gains, geom32, geom32, aods)
    assert len(calls) == 1


def test_measurement_update_validation(geom32, rng):
    snd = SoundingConfig(tx_angles=[0.0], rx_angles=[0.1])
    pilot = PilotVector(np.zeros(1, dtype=complex), 0.1)
    prior = np.array([0.1]), np.array([0.01])
    gains = np.array([1.0 + 0j])
    with pytest.raises(TypeError, match="aods"):
        measurement_update(prior, pilot, snd, gains, geom32, geom32)
    with pytest.raises(ValueError, match="one arrival angle per path"):
        measurement_update(prior, pilot, snd, np.ones(2, dtype=complex), geom32, geom32, [0.0, 0.0])
    bad = PilotVector(np.zeros(3, dtype=complex), 0.1)
    with pytest.raises(ValueError, match="pilot length"):
        measurement_update(prior, bad, snd, gains, geom32, geom32, aods=[0.0])


def test_joint_split_round_trip(rng):
    means = rng.normal(size=3)
    variances = rng.uniform(0.1, 2.0, size=3)
    joint = joint_belief(means, variances)
    assert joint.dim == 3
    np.testing.assert_array_equal(joint.cov, np.diag(variances))
    back_means, back_variances = split_joint(joint)
    np.testing.assert_array_equal(back_means, means)
    np.testing.assert_array_equal(back_variances, variances)
    # A measurement update couples the paths; the marginals drop those terms.
    cov = _random_psd(rng, 3)
    assert np.count_nonzero(cov - np.diag(np.diag(cov))) == 6
    back_means, back_variances = split_joint(GaussianBelief(means, cov))
    np.testing.assert_array_equal(back_means, means)
    np.testing.assert_array_equal(back_variances, np.diag(cov))
