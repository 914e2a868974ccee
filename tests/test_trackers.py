"""Cycle-level trackers: EKF baseline, learned tracker, LMS, genie."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import filtering, measurement, mobility, neural, trackers
from beamtrack.arrays import ArrayGeometry, assemble_channel, make_codebook
from beamtrack.beamctl import nearest_beams, select_sounding
from beamtrack.filtering import measurement_update
from beamtrack.harness import SimConfig, run_episode, run_episodes
from beamtrack.measurement import SoundingConfig, receive
from beamtrack.mobility import MobilityParams, generate_trajectory
from beamtrack.predictor import InputWindow, NormStats, build_model
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


def _hold(windows):
    """A predict_fn fake that keeps each window's newest estimate."""
    past, _ = windows
    return past[:, -1]


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


@pytest.mark.parametrize(
    "t_csi, num_cycles, message",
    [(160, 1, "num_cycles must be >= 2, got 1"), (160, 0, "num_cycles must be >= 2, got 0"),
     (0, 10, "t_csi must be >= 1, got 0")],
    ids=["one_cycle", "no_cycle", "t_csi=0"],
)
def test_calibrate_process_noise_refuses_what_gives_no_increment(t_csi, num_cycles, message):
    # One cycle has no increment (np.quantile of an empty array raised an
    # IndexError), and t_csi = 0 was reported as a bad num_slots.
    with pytest.raises(ValueError, match=message):
        calibrate_process_noise(MobilityParams(a_avg=1.0), t_csi, num_cycles=num_cycles)


# Cycle lengths that put boundaries on, just before and just after the ends
# of the angle stream's first and longest chunks, plus arbitrary ones.
_EDGE_T_CSI = [1] + [c + d for c in (mobility._FIRST_CHUNK, mobility._MAX_CHUNK) for d in (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(
    a_avg=st.floats(-4.0, 4.0),
    rho=st.floats(0.0, 0.99999),
    drive_var=st.floats(0.0, 1.0),
    t_csi=st.one_of(st.sampled_from(_EDGE_T_CSI), st.integers(1, 9000)),
    num_cycles=st.integers(2, 6),
    num_paths=st.integers(1, 3),
    quantile=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_calibration_equals_the_quantile_of_the_full_trajectory(
    a_avg, rho, drive_var, t_csi, num_cycles, num_paths, quantile, seed
):
    params = MobilityParams(a_avg=a_avg, rho=rho, drive_var=drive_var)
    traj = generate_trajectory(params, num_paths, num_cycles * t_csi, np.random.default_rng(seed))
    expected = np.quantile(np.diff(traj.aoa[:, ::t_csi], axis=1) ** 2, quantile)
    level = calibrate_process_noise(
        params, t_csi, num_cycles=num_cycles, num_paths=num_paths, seed=seed, quantile=quantile
    )
    assert level == expected


def test_calibration_memory_does_not_grow_with_the_trajectory():
    # Holding the (3, 640,000) trajectory took a 25.8 MB peak, and each
    # further path added 5 MB of angles; only one path's drive may remain.
    params = MobilityParams(a_avg=0.2 * np.pi)
    calibrate_process_noise(params, 320)  # warm-up: one-time imports and caches
    peaks = {}
    for num_paths in (3, 6):
        tracemalloc.start()
        try:
            calibrate_process_noise(params, 320, num_paths=num_paths)
            peaks[num_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[3] <= 12e6, f"calibration peak {peaks[3] / 1e6:.1f} MB"
    assert peaks[6] - peaks[3] < 1e6, f"three more paths added {(peaks[6] - peaks[3]) / 1e6:.2f} MB"


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
        predict_fn=_hold, delta=3,
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
            predict_fn=_hold, delta=10,
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

    def spy(windows):
        seen.append(windows[1].copy())
        return _hold(windows)

    rng = np.random.default_rng(4)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.2])
    tracker = ProposedTracker(
        [0.0], [1e-4], codebook64, gains, aods, known_aod=0.2,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-3, process_noise=1e-6,
        predict_fn=spy, delta=1, use_imu=False,
    )
    block = np.full((1, 8), 0.7)
    for _ in range(3):
        tracker.step(_channel([0.0], aods, gains, 30.0, rng, geom32), block)
    assert seen  # predictor engaged after the 1-cycle warm-up
    for blocks in seen:
        np.testing.assert_array_equal(blocks, 0.0)


def test_proposed_passes_sensor_blocks_through(geom32, codebook64):
    seen = []

    def spy(windows):
        seen.append(windows[1].copy())
        return _hold(windows)

    rng = np.random.default_rng(4)
    gains = np.array([1.0 + 0j])
    aods = np.array([0.2])
    tracker = ProposedTracker(
        [0.0], [1e-4], codebook64, gains, aods, known_aod=0.2,
        geom_rx=geom32, geom_tx=geom32, noise_var=1e-3, process_noise=1e-6,
        predict_fn=spy, delta=1, use_imu=True,
    )
    block = np.arange(8.0)[None, :]
    tracker.step(_channel([0.0], aods, gains, 30.0, rng, geom32), block)
    tracker.step(_channel([0.0], aods, gains, 30.0, rng, geom32), block)
    assert seen[0].shape == (3, 1, 8)  # 3 sigma-point windows of one cycle
    np.testing.assert_array_equal(seen[0][:, -1], np.tile(np.arange(8.0), (3, 1)))


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
            predict_fn=_hold, delta=1,
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

    def oracle(windows):
        return np.full((len(windows[0]), 1), current["value"])

    tracker = ProposedTracker(
        [truth[0]], [1e-6], codebook64, gains, aods, known_aod=-0.1,
        geom_rx=geom32, geom_tx=geom32, noise_var=10 ** (-1.5), process_noise=1e-5,
        predict_fn=oracle, delta=2,
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
    windows_built = count_calls(InputWindow, "__post_init__")
    cfg = SimConfig(num_cycles=7, t_csi=40, num_paths=num_paths, seed=3)
    run_episode(cfg, model=model, process_noise=1e-5)
    # Cycles 0..delta-1 warm the history up; each later cycle makes one call
    # carrying the 3 sigma-point windows of every path, as stacked arrays.
    assert [xs.shape for _, xs in calls] == [(3 * num_paths, 3, 9)] * (7 - model.delta)
    assert windows_built == []


@pytest.mark.parametrize("variant", ["ekf", "proposed_csi_imu"])
def test_kalman_episodes_build_no_dense_belief(count_calls, variant):
    # The trackers hand beam selection and the measurement update their
    # (means, variances) arrays; no validated joint belief is built per cycle.
    model = build_model(np.random.default_rng(2021))
    model.norm = NormStats(np.zeros(9), np.full(9, 0.5), np.zeros(1), np.full(1, 0.01))
    built = count_calls(filtering.GaussianBelief, "__post_init__")
    cfg = SimConfig(num_cycles=6, t_csi=40, seed=3, variant=variant)
    run_episode(cfg, model=model if variant != "ekf" else None, process_noise=1e-5)
    assert built == []


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
            noise_var=1e-3, process_noise=1e-6, predict_fn=_hold,
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


def _kalman_batch(seed, episodes, num_paths, on_codebook, cb):
    """Tracker arguments for a batch of episodes with distinct cluster
    centres, and the true arrival angles: estimates reach past +-1, and with
    `on_codebook` some lie exactly on a codebook angle, as do the centres,
    so that both factor halves meet their singular-alignment branch."""
    rng = np.random.default_rng(seed)
    shape = (episodes, num_paths)
    known_aod = rng.permutation(np.linspace(-0.8, 0.8, 9))[:episodes]
    aods = known_aod[:, None] + rng.uniform(-1 / 64, 1 / 64, shape)
    means = rng.uniform(-1.3, 1.3, shape)
    if on_codebook:
        known_aod[0] = cb.angles[rng.integers(len(cb))]
        means[rng.random(shape) < 0.5] = cb.angles[rng.integers(len(cb))]
    args = dict(
        means=means, variances=10.0 ** rng.uniform(-5.0, -1.0, shape), codebook=cb,
        gains=np.exp(2j * np.pi * rng.random(shape)) * rng.uniform(0.3, 1.0, shape),
        aods=aods, known_aod=known_aod, noise_var=10.0 ** rng.uniform(-2.0, 0.0, episodes),
        process_noise=1e-4,
    )
    return args, np.clip(means + rng.normal(0.0, 0.02, shape), -0.95, 0.95)


@pytest.mark.filterwarnings("ignore:innovation covariance:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), episodes=st.integers(1, 4), num_paths=st.integers(1, 3),
    num_rx=st.integers(1, 3), on_codebook=st.booleans(),
)
def test_the_per_episode_transmit_side_changes_no_cycle(
    seed, episodes, num_paths, num_rx, on_codebook
):
    # The tracker evaluates the transmit factors once per episode and hands
    # selection's receive factors to the update; each cycle must still pick
    # the public select_sounding's beams and objective and give the public
    # measurement_update's posterior, bit for bit.
    geom_rx, geom_tx, cb = ArrayGeometry(16), ArrayGeometry(32), make_codebook(32)
    args, truth = _kalman_batch(seed, episodes, num_paths, on_codebook, cb)
    tracker = EkfTracker(**args, geom_rx=geom_rx, geom_tx=geom_tx, num_rx=num_rx)
    means, variances = args["means"], args["variances"]
    for cycle in range(2):
        prior = means + 0.0, variances + (args["process_noise"] if cycle else 0.0)
        shared = (prior, cb, args["gains"], args["noise_var"], geom_rx, geom_tx)
        public = select_sounding(*shared, known_aod=args["known_aod"], num_rx=num_rx)
        reused = select_sounding(
            *shared, known_aod=args["known_aod"], num_rx=num_rx, transmit=tracker._selection_tx
        )
        np.testing.assert_array_equal(reused.tx_indices, public.tx_indices)
        np.testing.assert_array_equal(reused.rx_indices, public.rx_indices)
        np.testing.assert_array_equal(reused.objective_value, public.objective_value)
        sounding = public.to_sounding(cb)
        direct = measurement._receive_factors(prior[0], sounding.rx_angles, geom_rx, True)
        for got, want in zip(reused.rx_factors, direct):
            np.testing.assert_array_equal(got, want)

        def channel():
            rngs = [np.random.default_rng([seed, cycle, k]) for k in range(episodes)]
            snrs = np.full(episodes, 12.0)
            return PilotChannel(args["gains"], truth, args["aods"], snrs, rngs, geom_rx, geom_tx)

        pilot = channel().receive(sounding)
        factors = measurement._measurement_factors(
            args["gains"], prior[0], args["aods"], sounding, geom_rx, geom_tx,
            with_derivatives=True,
        )
        means, variances = measurement_update(prior, pilot, *measurement._pilot_map(*factors))
        record = tracker.step(channel())
        np.testing.assert_array_equal(record.sounding.tx_angles, sounding.tx_angles)
        np.testing.assert_array_equal(record.sounding.rx_angles, sounding.rx_angles)
        np.testing.assert_array_equal(tracker.means, means)
        np.testing.assert_array_equal(tracker.variances, variances)


@pytest.mark.parametrize("variant", ["ekf", "proposed"])
def test_kalman_cycles_evaluate_the_receive_factors_once(count_calls, variant):
    # Transmit sums (N_b = 32 terms) run when the tracker is built, never in
    # a cycle; each cycle runs one receive evaluation (N_m = 16 terms), over
    # the codebook in selection, and the measurement update runs none. The
    # episode's one channel sounds the truth: its transmit sum in the first
    # cycle only, and one receive evaluation at the chosen beams per cycle.
    calls = count_calls(measurement, "_geometric_sum")
    geom_rx, geom_tx, cb = ArrayGeometry(16), ArrayGeometry(32), make_codebook(32)
    args, truth = _kalman_batch(4, 3, 2, False, cb)
    extra = dict(predict_fn=_hold, delta=2) if variant == "proposed" else {}
    tracker = (ProposedTracker if variant == "proposed" else EkfTracker)(
        **args, geom_rx=geom_rx, geom_tx=geom_tx, **extra
    )
    assert [c[0] for c in calls] == [32, 32]
    rngs = [np.random.default_rng(k) for k in range(3)]
    channel = PilotChannel(args["gains"], truth, args["aods"], np.full(3, 9.0), rngs,
                           geom_rx, geom_tx)
    for cycle in range(4):
        del calls[:]
        tracker.step(channel)
        truth_tx = [(32, (3, 2, 2))] if cycle == 0 else []
        assert [(c[0], c[2].shape) for c in calls] == (
            [(16, (3, 2, len(cb)))] + truth_tx + [(16, (3, 2, 2))]
        )


def _lms_batch(seed, episodes, num_paths, on_codebook, cb):
    """LmsTracker arguments with the estimates, departures and centres of
    `_kalman_batch`, one step size per episode, and the true angles."""
    args, truth = _kalman_batch(seed, episodes, num_paths, on_codebook, cb)
    step_size = 10.0 ** np.random.default_rng(seed).uniform(-4.0, -2.0, episodes)
    lms = dict(estimates=args["means"], codebook=cb, gains=args["gains"], aods=args["aods"],
               known_aod=args["known_aod"], step_size=step_size)
    return lms, truth


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), episodes=st.integers(1, 4), num_paths=st.integers(1, 3),
    num_tx=st.integers(1, 3), num_rx=st.integers(1, 3), on_codebook=st.booleans(),
)
def test_lms_steps_equal_the_from_angles_formula(
    seed, episodes, num_paths, num_tx, num_rx, on_codebook
):
    # The tracker computes its transmit factors once per episode; each step
    # must still equal the gradient step on the pilot map and Jacobian
    # evaluated from the angles, bit for bit.
    geom_rx, geom_tx, cb = ArrayGeometry(16), ArrayGeometry(32), make_codebook(32)
    args, truth = _lms_batch(seed, episodes, num_paths, on_codebook, cb)
    tracker = LmsTracker(**args, geom_rx=geom_rx, geom_tx=geom_tx, num_tx=num_tx, num_rx=num_rx)
    est = args["estimates"].copy()
    strongest = np.argmax(np.abs(args["gains"]), axis=-1)
    tx_angles = cb.angles[nearest_beams(args["known_aod"], cb, num_tx)]
    for cycle in range(3):
        rx_angles = cb.angles[nearest_beams(est[np.arange(episodes), strongest], cb, num_rx)]
        sounding = SoundingConfig(tx_angles=tx_angles, rx_angles=rx_angles)

        def channel():
            rngs = [np.random.default_rng([seed, cycle, k]) for k in range(episodes)]
            snrs = np.full(episodes, 12.0)
            return PilotChannel(args["gains"], truth, args["aods"], snrs, rngs, geom_rx, geom_tx)

        pilot = channel().receive(sounding)
        predicted, jac = measurement._pilot_map(*measurement._measurement_factors(
            args["gains"], est, args["aods"], sounding, geom_rx, geom_tx, with_derivatives=True
        ))
        slope = (jac.conj().swapaxes(-1, -2) @ (pilot.values - predicted)[..., None])[..., 0]
        est = est + args["step_size"][:, None] * slope.real
        record = tracker.step(channel())
        np.testing.assert_array_equal(record.sounding.tx_angles, tx_angles)
        np.testing.assert_array_equal(record.sounding.rx_angles, rx_angles)
        np.testing.assert_array_equal(record.estimates, est)


def test_lms_steps_evaluate_the_receive_factors_once(count_calls):
    # The transmit sum (N_b = 32 terms) runs when the tracker is built, never
    # in a step; each step runs one receive evaluation (N_m = 16 terms) at
    # its receive beams, after the episode's one channel has sounded the
    # truth (its transmit sum in the first step only).
    calls = count_calls(measurement, "_geometric_sum")
    geom_rx, geom_tx, cb = ArrayGeometry(16), ArrayGeometry(32), make_codebook(32)
    args, truth = _lms_batch(4, 3, 2, False, cb)
    tracker = LmsTracker(**args, geom_rx=geom_rx, geom_tx=geom_tx)
    assert [(c[0], c[2].shape) for c in calls] == [(32, (3, 2, 2))]
    rngs = [np.random.default_rng(k) for k in range(3)]
    channel = PilotChannel(args["gains"], truth, args["aods"], np.full(3, 9.0), rngs,
                           geom_rx, geom_tx)
    for cycle in range(4):
        del calls[:]
        tracker.step(channel)
        truth_tx = [(32, (3, 2, 2))] if cycle == 0 else []
        assert [(c[0], c[2].shape) for c in calls] == truth_tx + [(16, (3, 2, 2))] * 2


def _reception_batch(seed):
    """Geometries, codebook, three episodes' gains, departures and true
    arrival angles (two paths each), and a sounding per episode."""
    geom_rx, geom_tx, cb = ArrayGeometry(16), ArrayGeometry(32), make_codebook(32)
    args, truth = _kalman_batch(seed, 3, 2, False, cb)
    sounding = SoundingConfig(tx_angles=cb.angles[[[3, 4], [10, 11], [20, 21]]],
                              rx_angles=cb.angles[[[5, 6], [12, 13], [30, 31]]])
    return geom_rx, geom_tx, cb, args["gains"], args["aods"], truth, sounding


def test_a_channel_evaluates_the_truth_transmit_half_once(count_calls):
    # The transmit half of the true pilots (N_b = 32 terms) is evaluated at
    # the channel's first reception only; each reception evaluates the
    # receive half (N_m = 16 terms) once, at that cycle's true angles.
    geom_rx, geom_tx, cb, gains, aods, truth, sounding = _reception_batch(11)
    calls = count_calls(measurement, "_geometric_sum")
    rngs = [np.random.default_rng(k) for k in range(3)]
    channel = PilotChannel(gains, truth, aods, np.full(3, 9.0), rngs, geom_rx, geom_tx)
    assert calls == []
    rng = np.random.default_rng(11)
    for cycle in range(4):
        channel.aoas = np.clip(truth + 0.01 * cycle, -1.0, 1.0)
        rx_angles = cb.angles[rng.integers(len(cb), size=(3, 2))]
        del calls[:]
        channel.receive(SoundingConfig(tx_angles=sounding.tx_angles, rx_angles=rx_angles))
        assert [c[0] for c in calls] == ([32] if cycle == 0 else []) + [16]
        np.testing.assert_array_equal(
            calls[-1][2], channel.aoas[..., :, None] - rx_angles[..., None, :]
        )


@pytest.mark.parametrize("variant, evaluations", [("ekf", 2), ("lms", 2), ("genie", 0)])
def test_an_episode_batch_evaluates_the_truth_transmit_half_once(
    count_calls, variant, evaluations
):
    # `run_episodes` gives a batch one channel: besides the sounding
    # tracker's own per-episode transmit factors, the truth's are evaluated
    # once. The genie sounds nothing.
    calls = count_calls(trackers, "_transmit_factors")
    configs = [SimConfig(t_csi=40, num_cycles=5, variant=variant, seed=s) for s in (3, 4)]
    run_episodes(configs, process_noise=2e-4)
    assert len(calls) == evaluations


def test_a_sounding_with_other_transmit_beams_gets_its_own_pilots():
    # The channel keeps the truth's transmit half for the transmit beams it
    # was evaluated at; a sounding with other beams, even in one episode or
    # in their number, is sounded at its own beams.
    geom_rx, geom_tx, cb, gains, aods, truth, first = _reception_batch(12)
    other_episode = first.tx_angles.copy()
    other_episode[1] = cb.angles[[0, 1]]
    others = [
        SoundingConfig(tx_angles=other_episode, rx_angles=first.rx_angles),
        SoundingConfig(tx_angles=cb.angles[[[7], [8], [9]]], rx_angles=first.rx_angles),
    ]
    noiseless = np.full(3, np.inf), [None] * 3

    def channel():
        return PilotChannel(gains, truth, aods, *noiseless, geom_rx, geom_tx)

    shared = channel()
    h = assemble_channel((gains, truth, aods), geom_rx, geom_tx)
    scale = np.abs(gains).sum(axis=-1, keepdims=True)
    for sounding in (first, others[0], first, others[1], others[1], first):
        got = shared.receive(sounding).values
        np.testing.assert_array_equal(got, channel().receive(sounding).values)
        dense = receive(h, sounding, *noiseless, geom_rx, geom_tx).values
        assert np.all(np.abs(got - dense) <= 1e-13 * scale)


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "one_episode"])
def test_reception_draws_the_dense_noise(batched):
    # From equal generator states the channel adds to its clean pilots the
    # noise that the dense `measurement.receive` draws, bit for bit: the
    # dense receive of a zero-gain channel returns exactly its noise. An
    # episode at +inf SNR draws nothing.
    geom_rx, geom_tx, _, gains, aods, truth, sounding = _reception_batch(13)
    snr_db = np.array([6.0, np.inf, 12.0])
    if not batched:
        gains, aods, truth, snr_db = gains[0], aods[0], truth[0], snr_db[0]
        sounding = SoundingConfig(tx_angles=sounding.tx_angles[0],
                                  rx_angles=sounding.rx_angles[0])

    def rngs():
        gens = [np.random.default_rng([13, k]) for k in range(3)]
        return gens if batched else gens[0]

    ours, theirs = rngs(), rngs()
    pilot = PilotChannel(gains, truth, aods, snr_db, ours, geom_rx, geom_tx).receive(sounding)
    zero = assemble_channel((np.zeros_like(gains), truth, aods), geom_rx, geom_tx)
    noise = receive(zero, sounding, snr_db, theirs, geom_rx, geom_tx)
    clean = measurement._pilot_map(
        *measurement._transmit_factors(gains, aods, sounding.tx_angles, geom_rx, geom_tx),
        measurement._receive_factors(truth, sounding.rx_angles, geom_rx),
    )
    np.testing.assert_array_equal(pilot.values, clean + noise.values)
    np.testing.assert_array_equal(pilot.noise_var, noise.noise_var)
    for a, b in zip(np.atleast_1d(ours), np.atleast_1d(theirs)):
        assert a.bit_generator.state == b.bit_generator.state


def test_genie_reads_truth_without_aliasing(geom32):
    channel = _channel([0.4, -0.2], [0.1, 0.2], np.ones(2, dtype=complex),
                       10.0, np.random.default_rng(0), geom32)
    rec = GenieTracker().step(channel)
    np.testing.assert_array_equal(rec.estimates, [0.4, -0.2])
    rec.estimates[0] = 99.0
    assert channel.aoas[0] == 0.4
    assert rec.sounding is None


def test_process_noise_is_one_value_or_one_per_episode(geom32, codebook64):
    def ekf(process_noise):
        return EkfTracker(
            np.zeros((2, 1)), np.full((2, 1), 1e-4), codebook64, np.ones((2, 1), dtype=complex),
            np.zeros((2, 1)), known_aod=[0.0, 0.0], geom_rx=geom32, geom_tx=geom32,
            noise_var=[1e-3, 1e-3], process_noise=process_noise,
        )

    tracker = ekf([1e-6, 3e-6])
    tracker._steps = 1
    _, variances = tracker._identity_prediction(0.0)
    np.testing.assert_array_equal(variances, [[1e-4 + 1e-6], [1e-4 + 3e-6]])
    ekf(1e-6)
    with pytest.raises(ValueError, match="one per episode"):
        ekf([1e-6, 2e-6, 3e-6])


def test_belief_count_must_match_paths(geom32, codebook64):
    for means, variances in (([0.0], [1e-4, 1e-4]), ([0.0, 0.1], [1e-4])):
        with pytest.raises(ValueError, match="one mean and one variance per path"):
            EkfTracker(
                means, variances, codebook64, np.ones(2, dtype=complex),
                np.zeros(2), known_aod=0.0, geom_rx=geom32, geom_tx=geom32,
                noise_var=1e-3, process_noise=1e-6,
            )
