"""Cycle-level trackers: EKF baseline, learned tracker, LMS, genie."""

import numpy as np
import pytest

from beamtrack import filtering, neural
from beamtrack.harness import SimConfig, run_episode
from beamtrack.mobility import MobilityParams, generate_trajectory
from beamtrack.predictor import NormStats, build_model
from beamtrack.trackers import (
    EkfTracker,
    GenieTracker,
    LmsTracker,
    PilotChannel,
    ProposedTracker,
    calibrate_process_noise,
)


def _channel(aoas, aods, gains, snr_db, rng, geom):
    return PilotChannel(gains, aoas, aods, snr_db, rng, geom, geom)


def test_trackers_share_one_measurement_update():
    # The proposed tracker and the EKF baseline must route pilots through the
    # same update code; a fork here would invalidate their comparison.
    assert EkfTracker._measurement_update is filtering.measurement_update
    assert ProposedTracker._measurement_update is filtering.measurement_update


def test_calibrate_process_noise_constant_velocity_oracle():
    # With frozen velocities the per-cycle increment is t_csi * dt * v, so the
    # calibrated level must equal its square; replay the generator's draws to
    # know v without touching the implementation.
    params = MobilityParams(a_avg=0.0, rho=1 - 1e-12, drive_var=0.0, dt=125e-6)
    t_csi = 40
    seed = 901
    level = calibrate_process_noise(params, t_csi, num_cycles=500, num_paths=1, seed=seed)
    probe = np.random.default_rng(seed)
    probe.uniform(-0.8, 0.8, size=1)  # initial angle draw
    v = probe.normal(0.0, np.sqrt(0.2), size=1)[0]
    assert level == pytest.approx((t_csi * 125e-6 * v) ** 2, rel=1e-3)


def test_calibrate_process_noise_quantile_and_determinism():
    params = MobilityParams(a_avg=0.2 * np.pi)
    hi = calibrate_process_noise(params, 80, num_cycles=300, seed=3, quantile=0.9)
    lo = calibrate_process_noise(params, 80, num_cycles=300, seed=3, quantile=0.5)
    again = calibrate_process_noise(params, 80, num_cycles=300, seed=3, quantile=0.9)
    assert lo < hi
    assert hi == again
    assert hi > 0


def test_ekf_converges_on_static_path(geom32, codebook64):
    rng = np.random.default_rng(5)
    gains = np.array([np.exp(0.7j)])
    aods = np.array([-0.4])
    # A small process noise keeps the filter relinearizing, so the static
    # truth is approached Newton-style over a few cycles.
    tracker = EkfTracker(
        [0.29], [1e-4], codebook64, gains, aods, known_aod=-0.4,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-8, process_noise=1e-6,
    )
    for _ in range(5):
        rec = tracker.step(_channel([0.3], aods, gains, 80.0, rng, geom32))
    assert abs(rec.estimates[0] - 0.3) < 1e-4
    assert rec.sounding is not None and rec.sounding.m_m == 2


@pytest.mark.filterwarnings("ignore:innovation covariance:RuntimeWarning")
def test_ekf_first_cycle_skips_inflation(geom32, codebook64):
    # The initial belief describes the state at the first sounding, so a
    # supremely confident (if slightly wrong) prior must survive cycle 0
    # untouched even with a huge configured process noise, then get pulled
    # toward the truth once inflation starts on cycle 1. (The deliberately
    # near-deterministic prior makes the innovation covariance borderline,
    # so the ridge warning is expected here.)
    rng = np.random.default_rng(9)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.1])
    truth = 0.3
    tracker = EkfTracker(
        [truth - 0.005], [1e-12], codebook64, gains, aods, known_aod=0.1,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-6, process_noise=100.0,
    )
    rec0 = tracker.step(_channel([truth], aods, gains, 60.0, rng, geom32))
    assert abs(rec0.estimates[0] - (truth - 0.005)) < 1e-4  # prior wins
    rec1 = tracker.step(_channel([truth], aods, gains, 60.0, rng, geom32))
    assert abs(rec1.estimates[0] - truth) < 1e-3  # inflation lets the pilot win


def test_proposed_warmup_schedule(geom32, codebook64):
    rng = np.random.default_rng(2)
    gains = np.array([1.0 + 0j])
    aods = np.array([-0.2])
    tracker = ProposedTracker(
        [0.1], [1e-4], codebook64, gains, aods, known_aod=-0.2,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-3, process_noise=1e-6,
        predict_fn=lambda w: w.past_estimates[-1], delta=3, block_width=8,
    )
    flags = [
        tracker.step(_channel([0.1], aods, gains, 30.0, rng, geom32)).used_predictor
        for _ in range(5)
    ]
    assert flags == [False, False, False, True, True]


def test_proposed_warmup_dead_reckons_from_sensors(geom32, codebook64):
    # Truth drifts a fixed 0.05 per cycle. With zero process noise and a
    # near-certain prior the CSI-only tracker cannot move, while the sensor
    # shift walks the prior right onto the truth.
    gains = np.array([1.0 + 0j])
    aods = np.array([0.0])
    block = np.zeros((1, 8))
    block[0, :4] = 0.05  # velocity half, per-cycle angle units

    results = {}
    for use_imu in (True, False):
        rng = np.random.default_rng(31)
        tracker = ProposedTracker(
            [0.2], [1e-9], codebook64, gains, aods, known_aod=0.0,
            geom_rx=geom32, geom_tx=geom32, noise_var=1e-2, process_noise=0.0,
            predict_fn=lambda w: w.past_estimates[-1], delta=10, block_width=8,
            use_imu=use_imu,
        )
        for t in range(4):
            rec = tracker.step(
                _channel([0.2 + 0.05 * t], aods, gains, 20.0, rng, geom32), block
            )
            assert not rec.used_predictor
        results[use_imu] = abs(rec.estimates[0] - 0.35)
    assert results[True] < 0.01
    assert results[False] > 0.1


def test_proposed_csi_only_blanks_sensor_blocks(geom32, codebook64):
    seen = []

    def spy(window):
        seen.append(window.sensor_blocks.copy())
        return window.past_estimates[-1]

    rng = np.random.default_rng(4)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.2])
    tracker = ProposedTracker(
        [0.0], [1e-4], codebook64, gains, aods, known_aod=0.2,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-3, process_noise=1e-6,
        predict_fn=spy, delta=1, block_width=8, use_imu=False,
    )
    block = np.full((1, 8), 0.7)
    for _ in range(3):
        tracker.step(_channel([0.0], aods, gains, 30.0, rng, geom32), block)
    assert seen  # predictor engaged after the 1-cycle warm-up
    for blocks in seen:
        np.testing.assert_array_equal(blocks, 0.0)


def test_proposed_passes_sensor_blocks_through(geom32, codebook64):
    seen = []

    def spy(window):
        seen.append(window.sensor_blocks.copy())
        return window.past_estimates[-1]

    rng = np.random.default_rng(4)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.2])
    tracker = ProposedTracker(
        [0.0], [1e-4], codebook64, gains, aods, known_aod=0.2,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-3, process_noise=1e-6,
        predict_fn=spy, delta=1, block_width=8, use_imu=True,
    )
    block = np.arange(8.0)[None, :]
    tracker.step(_channel([0.0], aods, gains, 30.0, rng, geom32), block)
    tracker.step(_channel([0.0], aods, gains, 30.0, rng, geom32), block)
    np.testing.assert_array_equal(seen[0][-1], np.arange(8.0))


def test_proposed_prediction_noise_widens_prior(geom32, codebook64):
    # The configured prediction variance must reach the predicted covariance;
    # with a huge value the posterior variance is dominated by the pilot.
    rng = np.random.default_rng(6)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.0])
    covs = {}
    for pn in (0.0, 1e-2):
        tracker = ProposedTracker(
            [0.3], [1e-6], codebook64, gains, aods, known_aod=0.0,
            geom_rx=geom32, geom_tx=geom32, noise_var=1.0, process_noise=0.0,
            predict_fn=lambda w: w.past_estimates[-1], delta=1, block_width=8,
            prediction_noise=pn,
        )
        tracker.step(_channel([0.3], aods, gains, 0.0, rng, geom32))
        tracker.step(_channel([0.3], aods, gains, 0.0, rng, geom32))
        covs[pn] = tracker.variances[0]
    assert covs[1e-2] > 10 * covs[0.0]


def test_proposed_with_perfect_oracle_keeps_lock(geom32, codebook64):
    rng = np.random.default_rng(8)
    gains = np.array([np.exp(0.3j)])
    aods = np.array([-0.1])
    truth = 0.1 + 0.02 * np.sin(0.7 * np.arange(12))
    current = {"value": truth[0]}

    def oracle(window):
        return np.array([current["value"]])

    tracker = ProposedTracker(
        [truth[0]], [1e-6], codebook64, gains, aods, known_aod=-0.1,
        geom_rx=geom32, geom_tx=geom32, noise_var=10 ** (-1.5), process_noise=1e-5,
        predict_fn=oracle, delta=2, block_width=8,
    )
    errs = []
    for t in range(12):
        current["value"] = truth[t]
        rec = tracker.step(_channel([truth[t]], aods, gains, 15.0, rng, geom32))
        errs.append(abs(rec.estimates[0] - truth[t]))
    assert max(errs[2:]) < 0.01


@pytest.mark.parametrize("num_paths", [1, 3])
def test_proposed_episode_makes_one_predictor_call_per_warm_cycle(count_calls, num_paths):
    model = build_model(np.random.default_rng(2021))
    model.norm = NormStats(np.zeros(9), np.full(9, 0.5), np.zeros(1), np.full(1, 0.01))
    calls = count_calls(neural, "forward_stack")
    cfg = SimConfig(num_cycles=7, t_csi=40, num_paths=num_paths, seed=3)
    run_episode(cfg, model=model, process_noise=1e-5)
    # Cycles 0..delta-1 warm the history up; each later cycle makes one call
    # carrying the 3 sigma-point windows of every path.
    assert [xs.shape for _, xs in calls] == [(3 * num_paths, 3, 9)] * (7 - model.delta)


def test_proposed_requires_a_predictor(geom32, codebook64):
    with pytest.raises(ValueError, match="predict"):
        ProposedTracker(
            [0.0], [1e-4], codebook64, np.ones(1, dtype=complex),
            np.zeros(1), known_aod=0.0, geom_rx=geom32, geom_tx=geom32,
            noise_var=1e-3, process_noise=1e-6,
        )


def test_proposed_predict_fn_requires_delta(geom32, codebook64):
    # A bare predict_fn carries no window length, so the tracker cannot
    # borrow one from a model.
    with pytest.raises(ValueError, match="delta"):
        ProposedTracker(
            [0.0], [1e-4], codebook64, np.ones(1, dtype=complex),
            np.zeros(1), known_aod=0.0, geom_rx=geom32, geom_tx=geom32,
            noise_var=1e-3, process_noise=1e-6, predict_fn=lambda w: w.past_estimates[-1],
        )


def test_lms_pulls_static_estimate_toward_truth(geom32, codebook64):
    rng = np.random.default_rng(12)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.3])
    tracker = LmsTracker(
        [0.205], codebook64, gains, aods, known_aod=0.3,
        geom_rx=geom32, geom_tx=geom32, step_size=2e-4,
    )
    for _ in range(50):
        rec = tracker.step(_channel([0.2], aods, gains, np.inf, rng, geom32))
    assert abs(rec.estimates[0] - 0.2) < 1e-6
    np.testing.assert_array_equal(rec.sounding.tx_angles, np.sort(rec.sounding.tx_angles))


def test_genie_reads_truth_without_aliasing(geom32):
    channel = _channel([0.4, -0.2], [0.1, 0.2], np.ones(2, dtype=complex),
                       10.0, np.random.default_rng(0), geom32)
    rec = GenieTracker().step(channel)
    np.testing.assert_array_equal(rec.estimates, [0.4, -0.2])
    rec.estimates[0] = 99.0
    assert channel.aoas[0] == 0.4
    assert rec.sounding is None


def test_belief_count_must_match_paths(geom32, codebook64):
    for means, variances in (([0.0], [1e-4, 1e-4]), ([0.0, 0.1], [1e-4])):
        with pytest.raises(ValueError, match="one mean and one variance per path"):
            EkfTracker(
                means, variances, codebook64, np.ones(2, dtype=complex),
                np.zeros(2), known_aod=0.0, geom_rx=geom32, geom_tx=geom32,
                noise_var=1e-3, process_noise=1e-6,
            )
