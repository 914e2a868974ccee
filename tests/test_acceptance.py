"""End-to-end acceptance checks.

Each test here pins one externally visible guarantee of the package, at a
fixed tolerance, and appends a one-line verdict to the summary that conftest
prints after the run. The episode-level checks share module-scoped fixtures
(noise calibration, dataset synthesis, model training) because those are the
expensive parts; everything downstream of them uses paired episode seeds so
that variant comparisons are like against like.

This module is the slow part of the suite (several minutes, dominated by
training the evaluation models). Every test here carries the `slow` marker:
run `pytest -m "not slow"` while iterating on the library itself.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from conftest import ACCEPTANCE_LINES

from beamtrack.arrays import ArrayGeometry, PathState, make_codebook
from beamtrack.beamctl import crlb_objective, nearest_beams, select_sounding
from beamtrack.filtering import (
    GaussianBelief,
    kalman_update,
    prediction_update,
    sigma_points,
)
from beamtrack.harness import (
    SimConfig,
    calibrate_estimate_noise,
    episode_seed,
    qfunc,
    run_episode,
    run_sweep,
)
from beamtrack.measurement import (
    SoundingConfig,
    measurement_jacobian,
    predicted_measurement,
)
from beamtrack.neural import bptt_gradients, forward_stack, grads_as_dict, layer_param_dict
from beamtrack.predictor import (
    DatasetConfig,
    InputWindow,
    TrainConfig,
    build_model,
    generate_dataset,
    train,
)
from beamtrack.trackers import calibrate_process_noise

pytestmark = pytest.mark.slow

MASTER_SEED = 0xACCE
NUM_EPISODES = 50

# calibrate_process_noise is deterministic per (mobility params, T); cache it
# so the episode batches below do not pay for the probe trajectory repeatedly.
_PROCESS_NOISE_CACHE: dict[tuple, float] = {}


def _record(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{num:2d}/10] {label}: {verdict} ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _process_noise(cfg: SimConfig) -> float:
    key = (cfg.a_avg, cfg.drive_var, cfg.dt, cfg.t_csi, cfg.num_paths)
    if key not in _PROCESS_NOISE_CACHE:
        _PROCESS_NOISE_CACHE[key] = calibrate_process_noise(
            cfg.mobility_params(), cfg.t_csi, num_paths=cfg.num_paths
        )
    return _PROCESS_NOISE_CACHE[key]


def _paired_batch(tag, trials, variants, models, **cfg_kwargs):
    """Episode-mean NMSE per variant over a shared set of episode seeds.

    The seed depends on the tag and trial only, so calls that share a tag are
    paired across both variants and configuration points.
    """
    out = {variant: np.empty(trials) for variant in variants}
    for trial in range(trials):
        seed = episode_seed(MASTER_SEED, tag, "paired", trial)
        for variant in variants:
            cfg = SimConfig(variant=variant, seed=seed, **cfg_kwargs)
            result = run_episode(cfg, model=models.get(variant), process_noise=_process_noise(cfg))
            out[variant][trial] = result.mean_nmse_db
    return out


@pytest.fixture(scope="module")
def noise_table():
    base = SimConfig(t_csi=40, num_cycles=100, seed=0)
    return calibrate_estimate_noise(base, (6.0, 9.0, 12.0, 15.0), episodes_per_point=2)


@pytest.fixture(scope="module")
def trained_models(noise_table):
    """Evaluation models at the pinned budget: 100k windows, 30 Adam epochs.

    Two models are trained so that the inertial ablation compares predictors
    that each saw a matched input distribution: one with real sensor blocks,
    one with the sensor channels zeroed (as they are at run time for the
    pilots-only variant).
    """
    models, seconds = {}, {}
    for variant, include_imu in (("proposed_csi_imu", True), ("proposed_csi", False)):
        start = time.perf_counter()
        data = generate_dataset(
            DatasetConfig(num_windows=100_000, include_imu=include_imu),
            noise_table,
            np.random.default_rng(2024 if include_imu else 2025),
        )
        model = build_model(np.random.default_rng(7))
        model, _ = train(model, data, TrainConfig())
        seconds[variant] = time.perf_counter() - start
        models[variant] = model
    return {"models": models, "seconds": seconds}


def test_pilot_jacobian_matches_central_differences_in_bulk():
    geom = ArrayGeometry(32)
    codebook = make_codebook(64)
    rng = np.random.default_rng(101)
    step = 1e-6
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        aoas = rng.uniform(-0.95, 0.95, size=3)
        aods = rng.uniform(-0.95, 0.95, size=3)
        gains = rng.uniform(0.5, 1.5, size=3) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        sounding = SoundingConfig(
            tx_angles=codebook.angles[rng.choice(len(codebook), 2, replace=False)],
            rx_angles=codebook.angles[rng.choice(len(codebook), 2, replace=False)],
        )
        paths = [PathState(g, aoa, aod) for g, aoa, aod in zip(gains, aoas, aods)]
        jac = measurement_jacobian(paths, sounding, geom, geom)

        fd = np.empty_like(jac)
        for l in range(3):
            for col, field in ((2 * l, "aod"), (2 * l + 1, "aoa")):
                shifted = {"aoa": aoas.copy(), "aod": aods.copy()}
                shifted[field][l] += step
                plus = predicted_measurement(
                    [PathState(g, a, d) for g, a, d in zip(gains, shifted["aoa"], shifted["aod"])],
                    sounding, geom, geom,
                )
                shifted[field][l] -= 2 * step
                minus = predicted_measurement(
                    [PathState(g, a, d) for g, a, d in zip(gains, shifted["aoa"], shifted["aod"])],
                    sounding, geom, geom,
                )
                fd[:, col] = (plus - minus) / (2 * step)
        worst = max(worst, float(np.max(np.abs(jac - fd)) / np.max(np.abs(jac))))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-6 and elapsed < 10.0
    _record(
        1, "analytic pilot jacobian vs central differences, 1000 random setups", ok,
        f"max rel err {worst:.2e} (tol 1e-06), {elapsed:.1f}s (limit 10s)",
    )


def test_full_network_gradient_matches_finite_differences():
    model = build_model(np.random.default_rng(3))
    layers = model.layers
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(model.delta, model.input_dim))
    target = rng.normal(size=(model.state_dim,))

    def loss():
        return float(np.sum((forward_stack(layers, xs) - target) ** 2))

    start = time.perf_counter()
    grads = grads_as_dict(layers, bptt_gradients(layers, xs, target))
    params = layer_param_dict(layers)
    step = 1e-6
    worst_name, worst = "", 0.0
    for name, tensor in params.items():
        fd = np.empty_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = tensor[idx]
            tensor[idx] = keep + step
            up = loss()
            tensor[idx] = keep - step
            down = loss()
            tensor[idx] = keep
            fd[idx] = (up - down) / (2 * step)
            it.iternext()
        err = float(np.max(np.abs(grads[name] - fd)) / max(float(np.max(np.abs(fd))), 1e-10))
        if err > worst:
            worst_name, worst = name, err
    elapsed = time.perf_counter() - start

    ok = worst < 1e-4 and elapsed < 60.0
    _record(
        2, "backprop through the full predictor stack vs finite differences", ok,
        f"worst tensor {worst_name}: rel err {worst:.2e} (tol 1e-04), {elapsed:.1f}s (limit 60s)",
    )


def test_sigma_propagation_is_exact_for_affine_maps():
    rng = np.random.default_rng(29)

    worst_mean, worst_cov = 0.0, 0.0
    for dim in (1, 2, 4):
        mean = rng.normal(size=dim)
        m = rng.normal(size=(dim, dim))
        cov = m @ m.T + 0.5 * np.eye(dim)
        a = rng.normal(size=(dim, dim))
        b = rng.normal(size=dim)
        window = InputWindow(
            past_estimates=np.tile(mean, (3, 1)),
            sensor_blocks=rng.normal(size=(3, 4)),
        )
        posterior = prediction_update(
            GaussianBelief(mean, cov), window, lambda w: a @ w.past_estimates[-1] + b, jitter=0.0
        )
        worst_mean = max(worst_mean, float(np.max(np.abs(posterior.mean - (a @ mean + b)))))
        worst_cov = max(worst_cov, float(np.max(np.abs(posterior.cov - a @ cov @ a.T))))

    # The weight-sum identity holds analytically for any spread parameter; in
    # float64 it is only representable down to 1e-14 when the weights are O(1),
    # so it is checked at unit-order spreads (second-order recovery above runs
    # at the deployed spread). At the deployed spread the weights are O(1e6)
    # and each carries its own rounding, so the attainable bound there is 1e-9.
    worst_sum, worst_deployed = 0.0, 0.0
    for dim in (1, 2, 4):
        belief = GaussianBelief(np.zeros(dim), np.eye(dim))
        for alpha in (1.0, 0.5):
            weights = sigma_points(belief, alpha=alpha).mean_weights
            worst_sum = max(worst_sum, abs(math.fsum(weights) - 1.0))
        deployed = sigma_points(belief).mean_weights
        worst_deployed = max(worst_deployed, abs(math.fsum(deployed) - 1.0))

    ok = worst_mean < 1e-8 and worst_cov < 1e-8 and worst_sum < 1e-14 and worst_deployed < 1e-9
    _record(
        3, "unscented propagation of an affine map vs closed form", ok,
        f"mean err {worst_mean:.2e}, cov err {worst_cov:.2e} (tol 1e-08), "
        f"weight sum off by {worst_sum:.2e} (tol 1e-14; {worst_deployed:.2e} "
        "at the deployed spread, tol 1e-09)",
    )


def test_gain_update_matches_scalar_kalman_closed_form():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        mu = rng.normal()
        var = rng.uniform(0.1, 2.0)
        h = rng.normal()
        r = rng.uniform(0.05, 1.0)
        y = rng.normal()

        new_mean, new_cov, regularized = kalman_update(
            np.array([mu]), np.array([[var]]), np.array([y]),
            np.array([h * mu]), np.array([[h]]), r,
        )
        assert not regularized

        s = h * h * var + r
        gain = var * h / s
        ref_mean = mu + gain * (y - h * mu)
        ref_var = (1.0 - gain * h) * var
        worst = max(worst, abs(new_mean[0] - ref_mean), abs(new_cov[0, 0] - ref_var))

    ok = worst < 1e-12
    _record(
        4, "measurement update vs scalar closed form, 100 random instances", ok,
        f"max abs err {worst:.2e} (tol 1e-12)",
    )


def test_perfect_tracking_ber_matches_the_qfunction_bound():
    static = dict(
        variant="genie", num_paths=1, a_avg=0.0, drive_var=0.0,
        init_velocity_std=0.0, t_csi=40, seed=12345,
    )

    worst = 0.0
    for snr_db in (0.0, 9.0):
        cfg = SimConfig(num_cycles=20, snr_db=snr_db, **static)
        result = run_episode(cfg, process_noise=0.0)
        expected = float(qfunc(np.sqrt(2.0 * 10.0 ** (snr_db / 10.0))))
        worst = max(worst, abs(result.mean_ber - expected))

    # Bit-level mode: 25 cycles x 40 slots x 1000 bits = 1e6 bits, all at the
    # same effective gain, so the pooled estimate is binomial.
    cfg = SimConfig(
        num_cycles=25, snr_db=0.0, ber_mode="montecarlo", mc_bits_per_slot=1000, **static
    )
    result = run_episode(cfg, process_noise=0.0)
    p = float(qfunc(np.sqrt(2.0)))
    stderr = math.sqrt(p * (1.0 - p) / 1e6)
    mc_gap = abs(result.mean_ber - p)

    ok = worst < 1e-12 and mc_gap < 3.0 * stderr
    _record(
        5, "perfect-alignment bit error rate vs Q(sqrt(2 SNR))", ok,
        f"analytic err {worst:.2e} (tol 1e-12), bit-level gap {mc_gap:.2e} "
        f"(limit 3 SE = {3 * stderr:.2e})",
    )


def test_learned_tracker_beats_ekf_under_fast_drift(trained_models):
    start = time.perf_counter()
    batch = _paired_batch(
        "fast-drift", NUM_EPISODES, ("proposed_csi_imu", "ekf"), trained_models["models"],
        snr_db=9.0, a_avg=0.4 * np.pi, t_csi=160, num_cycles=200,
    )
    eval_seconds = time.perf_counter() - start
    train_seconds = trained_models["seconds"]["proposed_csi_imu"]

    gap_db = float(batch["ekf"].mean() - batch["proposed_csi_imu"].mean())
    ok = gap_db >= 3.0 and train_seconds < 1800.0 and eval_seconds < 600.0
    _record(
        6, "learned tracker vs EKF at fast drift (50 episodes x 200 cycles)", ok,
        f"mean NMSE gap {gap_db:.1f} dB (need >= 3.0), data+train {train_seconds:.0f}s "
        f"(limit 1800s), eval {eval_seconds:.0f}s (limit 600s)",
    )


def test_ekf_error_grows_with_the_sounding_period(trained_models):
    models = trained_models["models"]
    periods = (40, 80, 160, 320)
    ekf_mean, learned_mean = {}, {}
    for t_csi in periods:
        variants = ("ekf", "proposed_csi_imu") if t_csi in (40, 320) else ("ekf",)
        batch = _paired_batch(
            "sounding-period", NUM_EPISODES, variants, models,
            snr_db=9.0, a_avg=0.2 * np.pi, t_csi=t_csi, num_cycles=100,
        )
        ekf_mean[t_csi] = float(batch["ekf"].mean())
        if "proposed_csi_imu" in batch:
            learned_mean[t_csi] = float(batch["proposed_csi_imu"].mean())

    levels = [ekf_mean[t] for t in periods]
    monotone = all(b >= a for a, b in zip(levels, levels[1:]))
    gap_short = ekf_mean[40] - learned_mean[40]
    gap_long = ekf_mean[320] - learned_mean[320]

    ok = monotone and gap_long > gap_short
    _record(
        7, "EKF degradation with sparser sounding (paired seeds across periods)", ok,
        "EKF mean NMSE [" + ", ".join(f"{v:.1f}" for v in levels) + "] dB "
        f"{'non-decreasing' if monotone else 'NOT monotone'}; "
        f"gap to learned tracker {gap_short:.1f} -> {gap_long:.1f} dB",
    )


def test_inertial_inputs_help_at_low_snr(trained_models):
    batch = _paired_batch(
        "low-snr-ablation", NUM_EPISODES, ("proposed_csi_imu", "proposed_csi"),
        trained_models["models"],
        snr_db=6.0, a_avg=0.4 * np.pi, t_csi=160, num_cycles=100,
    )
    with_imu = batch["proposed_csi_imu"]
    without = batch["proposed_csi"]

    wins = int(np.sum(with_imu < without))
    decided = int(np.sum(with_imu != without))
    p_value = binomtest(wins, decided, 0.5, alternative="greater").pvalue
    mean_gain = float(without.mean() - with_imu.mean())

    ok = with_imu.mean() <= without.mean() and p_value < 0.05
    _record(
        8, "inertial inputs lower NMSE at low SNR (50 paired episodes)", ok,
        f"mean gain {mean_gain:.1f} dB, wins {wins}/{decided}, sign test p {p_value:.2e} "
        "(need < 0.05)",
    )


def test_bound_driven_beams_bracket_the_true_arrival_angle():
    geom = ArrayGeometry(32)
    codebook = make_codebook(64)
    rng = np.random.default_rng(61)
    noise_var = 0.1  # pilot SNR 10 dB

    hits = 0
    oracle_checked = 0
    trials = 1000
    for trial in range(trials):
        true_aoa = float(rng.uniform(-0.9, 0.9))
        belief = GaussianBelief([true_aoa + rng.normal(0.0, 0.005)], [[1e-4]])
        gains = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=1))
        known_aod = float(rng.uniform(-0.8, 0.8))

        selection = select_sounding(
            belief, codebook, gains, noise_var, geom, geom, known_aod=known_aod
        )
        true_idx = int(nearest_beams(true_aoa, codebook, 1)[0])
        if np.all(np.abs(selection.rx_indices - true_idx) <= 2):
            hits += 1

        # Exhaustive re-enumeration of every receive pair on a subset of the
        # instances, as an independent check on the batched search.
        if trial < 10:
            tx_angles = codebook.angles[selection.tx_indices]
            aods = np.full(1, known_aod)
            best, best_val = None, np.inf
            for j1 in range(len(codebook)):
                for j2 in range(j1 + 1, len(codebook)):
                    sounding = SoundingConfig(
                        tx_angles=tx_angles, rx_angles=codebook.angles[[j1, j2]]
                    )
                    val = crlb_objective(
                        belief, sounding, gains, noise_var, geom, geom, aods=aods
                    )
                    if val < best_val:
                        best, best_val = (j1, j2), val
            assert tuple(selection.rx_indices) == best
            oracle_checked += 1

    rate = hits / trials
    ok = rate >= 0.95 and oracle_checked == 10
    _record(
        9, "bound-driven receive beams land within 2 entries of the true angle", ok,
        f"hit rate {100 * rate:.1f}% of {trials} (need >= 95%), exhaustive-search oracle "
        f"agreed on {oracle_checked}/10",
    )


def test_sweep_output_is_byte_identical_across_runs(tmp_path):
    base = SimConfig(t_csi=40, num_cycles=5, seed=0)
    paths = [tmp_path / name for name in ("first.csv", "second.csv")]
    for path in paths:
        run_sweep(
            base, "snr_db", [6.0, 12.0], ("ekf", "lms", "genie"),
            trials=2, master_seed=99, out_path=path,
        )
    first = paths[0].read_bytes()
    second = paths[1].read_bytes()

    lines = first.decode().strip().splitlines()
    ok = first == second and len(lines) == 1 + 2 * 3 * 3
    _record(
        10, "repeated sweep with one master seed is byte-identical", ok,
        f"{len(first)} bytes, {len(lines) - 1} data rows, identical: {first == second}",
    )
