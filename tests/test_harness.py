"""Episode simulation, metrics, sweeps, and calibration glue."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from beamtrack import arrays, harness
from beamtrack.arrays import ArrayGeometry
from beamtrack.harness import (
    NMSE_FLOOR_DB,
    SimConfig,
    _stream,
    bit_error_rate_mc,
    calibrate_estimate_noise,
    episode_seed,
    normalized_mse,
    plot_data,
    qfunc,
    run_episode,
    run_sweep,
)
from beamtrack.predictor import NormStats, build_model


def _tiny_config(**kw):
    base = dict(t_csi=40, num_cycles=5, variant="ekf", seed=7)
    base.update(kw)
    return SimConfig(**base)


def test_qfunc_hand_values():
    assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
    assert qfunc(1.0) == pytest.approx(0.15865525393145705, abs=1e-15)
    assert qfunc(3.0) == pytest.approx(0.0013498980316300933, abs=1e-16)
    np.testing.assert_allclose(qfunc([-50.0, 50.0]), [1.0, 0.0], atol=1e-300)


def test_normalized_mse_hand_cases():
    assert normalized_mse(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(
        10 * np.log10(0.25)
    )
    assert normalized_mse(np.array([[1.0]]), np.array([[0.0]])) == pytest.approx(0.0)
    assert normalized_mse(np.eye(2), np.eye(2)) == NMSE_FLOOR_DB
    with pytest.raises(ValueError):
        normalized_mse(np.zeros((2, 2)), np.eye(2))


def test_bit_error_rate_mc_matches_tail_probability():
    rng = np.random.default_rng(3)
    p_true = float(qfunc(np.sqrt(2.0 * 1.0 / 0.5)))
    n = 200_000
    p_hat = bit_error_rate_mc(1.0, 0.5, n, rng)
    se = np.sqrt(p_true * (1 - p_true) / n)
    assert abs(p_hat - p_true) < 3 * se
    assert bit_error_rate_mc(1.0, 0.0, 100, rng) == 0.0


def test_bit_error_rate_mc_array_equals_per_entry_calls():
    mags = np.array([[0.1, 0.5, 1.0], [0.0, 2.0, 0.3]])
    rng, per_entry_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = bit_error_rate_mc(mags, 0.8, 7, rng)
    want = [[bit_error_rate_mc(float(m), 0.8, 7, per_entry_rng) for m in row] for row in mags]
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == per_entry_rng.bit_generator.state
    assert isinstance(bit_error_rate_mc(0.5, 0.8, 7, rng), float)
    np.testing.assert_array_equal(bit_error_rate_mc(mags, 0.0, 7, rng), np.zeros(mags.shape))


def test_sim_config_validation():
    with pytest.raises(ValueError, match="variant"):
        SimConfig(variant="oracle")
    with pytest.raises(ValueError, match="divisible"):
        SimConfig(t_csi=41)
    with pytest.raises(ValueError, match="ber_mode"):
        SimConfig(ber_mode="exact")
    with pytest.raises(ValueError, match="num_cycles"):
        SimConfig(num_cycles=0)
    # Zero Monte Carlo bits per slot gave a NaN BER on every cycle.
    with pytest.raises(ValueError, match="mc_bits_per_slot must be >= 1, got 0"):
        SimConfig(ber_mode="montecarlo", mc_bits_per_slot=0)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(m_b=0), r"m_b must lie in \[1, 64\], got 0"),
        (dict(m_b=65), r"m_b must lie in \[1, 64\], got 65"),
        (dict(m_m=0), r"m_m must lie in \[1, 64\], got 0"),
        (dict(m_m=65), r"m_m must lie in \[1, 64\], got 65"),
        (dict(m_m=5), r"m_m=5 of 64 beams is 7624512 receive subsets, above the cap"),
        (dict(codebook_size=8, m_b=9), r"m_b must lie in \[1, 8\], got 9"),
    ],
    ids=["m_b=0", "m_b=65", "m_m=0", "m_m=65", "m_m=5", "m_b=9_of_8"],
)
def test_sim_config_rejects_beam_counts_the_search_cannot_take(fields, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**fields)


def test_sim_config_takes_every_beam_count_the_search_can():
    # 4 of 64 beams (635,376 subsets) is the largest receive set under the cap.
    for m in (1, 4):
        SimConfig(m_b=m, m_m=m)
    SimConfig(codebook_size=8, m_b=8, m_m=8)
    # The checks add no field: the default config keeps its digest.
    assert SimConfig().digest() == "3e184287183b"


def test_sim_config_digest_tracks_content():
    a = SimConfig(seed=1)
    b = SimConfig(seed=1)
    c = SimConfig(seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 12


def _normalized_model(seed):
    model = build_model(np.random.default_rng(seed))
    dim = model.input_dim
    model.norm = NormStats(np.zeros(dim), np.ones(dim), np.zeros(1), np.full(1, 0.01))
    return model


def test_episode_digest_covers_the_model():
    # Two in-memory models with different weights under one config must not
    # share a digest; the same model must reproduce it.
    cfg = _tiny_config(variant="proposed_csi_imu", num_cycles=4)
    model_a, model_b = _normalized_model(1), _normalized_model(2)
    a = run_episode(cfg, model=model_a, process_noise=1e-5)
    a_again = run_episode(cfg, model=model_a, process_noise=1e-5)
    b = run_episode(cfg, model=model_b, process_noise=1e-5)
    assert a.config_digest == a_again.config_digest
    assert a.config_digest != b.config_digest
    assert len(a.config_digest) == 12


def test_episode_digest_ignores_the_model_for_baselines():
    cfg = _tiny_config(variant="ekf", num_cycles=2)
    plain = run_episode(cfg, process_noise=1e-5)
    with_model = run_episode(cfg, model=_normalized_model(1), process_noise=1e-5)
    assert plain.config_digest == with_model.config_digest == cfg.digest()


def _refuse_work(monkeypatch):
    """Make process-noise calibration and episode draws fail the test."""
    def refused(*args, **kw):
        raise AssertionError("work ran before the model was checked")

    monkeypatch.setattr(harness, "calibrate_process_noise", refused)
    monkeypatch.setattr(harness, "_draw_episode", refused)


def test_run_episode_refuses_a_model_with_other_k_samples_before_any_work(monkeypatch):
    # A model trained on 4 sensor samples per cycle cannot serve k_samples=8;
    # the refusal comes before calibration or tracking and names both counts.
    _refuse_work(monkeypatch)
    cfg = _tiny_config(variant="proposed_csi_imu", k_samples=8, num_cycles=6)
    with pytest.raises(ValueError, match="k_samples=4 .* k_samples=8"):
        run_episode(cfg, model=_normalized_model(1))


def test_run_sweep_refuses_a_model_with_other_k_samples_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    cfg = _tiny_config(k_samples=8, num_cycles=3)
    with pytest.raises(ValueError, match="k_samples=4 .* k_samples=8"):
        run_sweep(cfg, "snr_db", [6.0], ("ekf", "proposed_csi"), trials=1,
                  models={"proposed_csi": _normalized_model(1)})
    # A baseline variant ignores a model it does not run.
    monkeypatch.undo()
    rows = run_sweep(cfg, "snr_db", [6.0], ("ekf",), trials=1, models={"ekf": _normalized_model(1)})
    assert rows[0]["status"] == "ok"


def test_run_sweep_and_plot_data_refuse_a_proposed_variant_without_a_model(
    monkeypatch, tmp_path
):
    # The refusal comes before calibration, any draw or the output directory,
    # not as one error row per episode.
    _refuse_work(monkeypatch)
    cfg = _tiny_config(num_cycles=3)
    with pytest.raises(ValueError, match="proposed variants need a model"):
        run_sweep(cfg, "snr_db", [6.0], ("ekf", "proposed_csi"), trials=1)
    out_dir = tmp_path / "figs"
    with pytest.raises(ValueError, match="proposed variants need a model"):
        plot_data(out_dir, cfg, variants=("ekf", "proposed_csi_imu"), trials=1)
    assert not out_dir.exists()
    # Also when SimConfig rejects every point: no error rows stand in for it.
    with pytest.raises(ValueError, match="proposed variants need a model"):
        run_sweep(SimConfig(num_cycles=2, t_csi=40), "t_csi", [0], ("proposed_csi",), trials=1)
    with pytest.raises(ValueError, match="proposed variants need a model"):
        plot_data(
            out_dir, cfg, variants=("proposed_csi",), snr_values=(), t_csi_values=(0,),
            a_avg_values=(), trials=1,
        )
    assert not out_dir.exists()


@pytest.mark.parametrize("trials", [0, -1])
def test_run_sweep_and_plot_data_refuse_trials_below_one(monkeypatch, tmp_path, trials):
    _refuse_work(monkeypatch)
    cfg = _tiny_config(num_cycles=3)
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_sweep(cfg, "snr_db", [6.0], ("ekf",), trials=trials)
    out_dir = tmp_path / "figs"
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        plot_data(out_dir, cfg, variants=("ekf",), trials=trials)
    assert not out_dir.exists()


def test_episode_seed_properties():
    s = episode_seed(42, "snr_db", 9.0, 0)
    assert s == episode_seed(42, "snr_db", 9.0, 0)
    assert s != episode_seed(42, "snr_db", 9.0, 1)
    assert s != episode_seed(43, "snr_db", 9.0, 0)
    assert 0 <= s < 2**63


def test_stream_tags_are_independent_substreams():
    a = _stream(11, 1).uniform(size=4)
    b = _stream(11, 2).uniform(size=4)
    again = _stream(11, 1).uniform(size=4)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, again)


def test_genie_static_single_path_metrics():
    # Perfect estimates on a static channel: NMSE pinned at the floor and the
    # analytic BER equal to the matched-filter tail probability every cycle.
    cfg = _tiny_config(
        variant="genie", num_paths=1, a_avg=0.0, drive_var=0.0,
        init_velocity_std=0.0, snr_db=9.0, num_cycles=4,
    )
    result = run_episode(cfg)
    np.testing.assert_array_equal(result.nmse_db, NMSE_FLOOR_DB)
    expected = float(qfunc(np.sqrt(2.0 * 10.0 ** 0.9)))
    np.testing.assert_allclose(result.ber, expected, rtol=1e-9)
    np.testing.assert_array_equal(result.aoa_error, 0.0)
    assert result.mean_nmse_db == NMSE_FLOOR_DB


def test_run_episode_is_deterministic():
    cfg = _tiny_config()
    a = run_episode(cfg, process_noise=1e-5)
    b = run_episode(cfg, process_noise=1e-5)
    np.testing.assert_array_equal(a.nmse_db, b.nmse_db)
    np.testing.assert_array_equal(a.ber, b.ber)
    np.testing.assert_array_equal(a.aoa_error, b.aoa_error)
    assert a.config_digest == b.config_digest
    assert a.variant == "ekf" and a.seed == 7


def test_run_episode_montecarlo_ber_mode(count_calls):
    calls = count_calls(harness, "bit_error_rate_mc")
    cfg = _tiny_config(
        variant="genie", num_paths=1, a_avg=0.0, drive_var=0.0,
        init_velocity_std=0.0, num_cycles=2, ber_mode="montecarlo",
        mc_bits_per_slot=2, snr_db=0.0,
    )
    result = run_episode(cfg)
    assert np.all(result.ber >= 0.0) and np.all(result.ber <= 1.0)
    # One call per cycle, for the cycle's t_csi slots.
    assert [np.shape(args[0]) for args in calls] == [(cfg.t_csi,)] * cfg.num_cycles


def test_proposed_variant_needs_checkpoint():
    cfg = _tiny_config(variant="proposed_csi_imu")
    with pytest.raises(ValueError, match="need a model"):
        run_episode(cfg)


def test_ekf_with_more_receive_beams_than_codebook_entries_raises_a_value_error():
    # Checked when the config is built, before any calibration or beam choice,
    # not left to an IndexError in the sounding.
    with pytest.raises(ValueError, match=r"m_m must lie in \[1, 8\], got 9"):
        _tiny_config(codebook_size=8, m_m=9, num_cycles=1)


def test_run_sweep_shape_pairing_and_csv(tmp_path):
    cfg = _tiny_config(num_cycles=3)
    out = tmp_path / "sweep.csv"
    rows = run_sweep(
        cfg, "snr_db", [6.0, 9.0], ("ekf", "genie"), trials=2,
        master_seed=5, out_path=out,
    )
    # 2 values x 2 variants x (2 trials + 1 mean row)
    assert len(rows) == 12
    trials = [r for r in rows if r["status"] == "ok"]
    means = [r for r in rows if r["status"] == "aggregate"]
    assert len(trials) == 8 and len(means) == 4

    # Variants at the same sweep cell share the episode seed (pairing).
    by_cell = {}
    for r in trials:
        by_cell.setdefault((r["axis_value"], r["trial"]), set()).add(r["seed"])
    assert all(len(seeds) == 1 for seeds in by_cell.values())

    # The mean row averages its trial rows.
    for mean_row in means:
        member = [
            float(r["mean_nmse_db"]) for r in trials
            if r["variant"] == mean_row["variant"]
            and r["axis_value"] == mean_row["axis_value"]
        ]
        assert float(mean_row["mean_nmse_db"]) == pytest.approx(np.mean(member), rel=1e-15)

    with open(out, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == rows


def test_run_sweep_survives_failing_cells(monkeypatch):
    # A variant whose tracker fails fails per episode; its rows carry an
    # error status while the other variant still completes.
    build = harness._build_tracker

    def ekf_breaks(configs, *args, **kw):
        if configs[0].variant == "ekf":
            raise ValueError("the ekf tracker broke")
        return build(configs, *args, **kw)

    monkeypatch.setattr(harness, "_build_tracker", ekf_breaks)
    cfg = _tiny_config(num_cycles=2)
    with pytest.warns(RuntimeWarning, match="a batch of 2 episodes raised ValueError"):
        rows = run_sweep(cfg, "snr_db", [9.0], ("ekf", "genie"), trials=2)
    failures = [r for r in rows if r["variant"] == "ekf" and r["trial"] != "mean"]
    assert len(failures) == 2
    assert all(r["status"] == "error:ValueError: the ekf tracker broke" for r in failures)
    assert all(r["mean_nmse_db"] == "" for r in failures)
    empty_mean = [r for r in rows if r["variant"] == "ekf" and r["trial"] == "mean"]
    assert empty_mean[0]["mean_nmse_db"] == ""
    ok = [r for r in rows if r["variant"] == "genie" and r["status"] == "ok"]
    assert len(ok) == 2


def test_a_batch_that_raises_warns_and_its_episodes_rerun_alone(monkeypatch):
    # A defect in the batched path must not show only as lost speed: the
    # fallback names the batch size and the exception, and the episodes run
    # one at a time give the rows that the batch gives.
    cfg = _tiny_config(num_cycles=3)
    expected = run_sweep(cfg, "snr_db", [6.0, 9.0], ("ekf",), trials=2, master_seed=5)
    batched = harness.run_episodes

    def breaks_on_batches(configs, **kw):
        if len(configs) > 1:
            raise RuntimeError("batched path broke")
        return batched(configs, **kw)

    monkeypatch.setattr(harness, "run_episodes", breaks_on_batches)
    with pytest.warns(RuntimeWarning) as caught:
        rows = run_sweep(cfg, "snr_db", [6.0, 9.0], ("ekf",), trials=2, master_seed=5)
    assert [str(w.message) for w in caught] == [
        "a batch of 4 episodes raised RuntimeError: batched path broke; "
        "running its episodes one at a time"
    ]
    assert rows == expected


def test_run_sweep_survives_a_point_the_config_rejects():
    # m_m = 5 of 64 beams is over the receive-subset cap, so SimConfig rejects
    # that point: its rows carry the error while the m_m = 2 point completes.
    rows = run_sweep(_tiny_config(num_cycles=2), "m_m", [2, 5], ("ekf",), trials=2)
    assert [(r["axis_value"], r["trial"], r["status"]) for r in rows] == [
        ("2", "0", "ok"), ("2", "1", "ok"), ("2", "mean", "aggregate"),
    ] + [(
        "5", t, "error:ValueError: m_m=5 of 64 beams is 7624512 receive subsets, "
        "above the cap of 1048576",
    ) for t in ("0", "1")] + [("5", "mean", "aggregate")]
    assert all(r["mean_nmse_db"] == "" and r["cycles"] == "" for r in rows[3:])
    assert rows[2]["mean_nmse_db"] != ""


@pytest.mark.parametrize("axis, bad, good", [
    ("k_samples", 0, 4), ("t_csi", 0, 40), ("num_paths", 0, 3), ("dt", 0.0, 125e-6),
    ("t_csi", -40, 40), ("dt", -125e-6, 125e-6),
])
def test_run_sweep_records_a_nonpositive_size_or_step_as_error_rows(axis, bad, good):
    rows = run_sweep(_tiny_config(num_cycles=2), axis, [bad, good], ("ekf",), trials=1)
    assert [r["status"].split(":")[:2] for r in rows] == [
        ["error", "ValueError"], ["aggregate"], ["ok"], ["aggregate"],
    ]
    with pytest.raises(ValueError):
        _tiny_config(**{axis: bad})


_CRASHING_VALUES = [
    ("snr_db", np.nan, "snr_db must be a number or +inf, got nan"),
    ("snr_db", -np.inf, "snr_db must be a number or +inf, got -inf"),
    ("lms_step", np.nan, "lms_step must be finite, got nan"),
    ("init_error_std", -0.01, "init_error_std must be >= 0, got -0.01"),
    ("init_velocity_std", -0.5, "init_velocity_std must be >= 0, got -0.5"),
]


@pytest.mark.parametrize("field, bad, message", _CRASHING_VALUES,
                         ids=[f"{f}={v}" for f, v, _ in _CRASHING_VALUES])
def test_sim_config_refuses_values_that_crash_in_the_cycle(field, bad, message):
    # A NaN or -inf SNR, or a NaN LMS step, used to die in the first
    # measurement update ("SVD did not converge"), and a negative spread in
    # the episode draw ("scale < 0"). +inf SNR means noiseless pilots.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimConfig(**{field: bad})
    assert SimConfig(snr_db=np.inf).snr_db == np.inf


@pytest.mark.parametrize("field, bad, message", _CRASHING_VALUES,
                         ids=[f"{f}={v}" for f, v, _ in _CRASHING_VALUES])
def test_run_sweep_gives_a_crashing_value_error_rows_and_keeps_the_batch(
    count_calls, field, bad, message
):
    # The refused point gives error rows; the other two points still run as
    # one batch of two episodes, with no fallback to one at a time.
    cfg = _tiny_config(num_cycles=3)
    good = {"snr_db": [6.0, 9.0], "lms_step": [0.01, 0.02],
            "init_error_std": [0.01, 0.02], "init_velocity_std": [0.4, 0.5]}[field]
    batches = count_calls(harness, "run_episodes")
    rows = run_sweep(cfg, field, [bad] + good, ("ekf",), trials=1,
                     process_noises=_sweep_noises(cfg, field, good))
    assert [r["status"] for r in rows] == [
        f"error:ValueError: {message}", "aggregate", "ok", "aggregate", "ok", "aggregate",
    ]
    assert [len(configs) for configs, *_ in batches] == [2]


def test_run_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown config field"):
        run_sweep(_tiny_config(), "bandwidth", [1], ("genie",), trials=1)


def test_run_sweep_rejects_an_unknown_variant_before_any_work(count_calls):
    calibrations = count_calls(harness, "calibrate_process_noise")
    batches = count_calls(harness, "run_episodes")
    with pytest.raises(ValueError, match="got 'bogus'"):
        run_sweep(_tiny_config(num_cycles=3), "snr_db", [9.0], ("ekf", "bogus"), trials=1)
    assert calibrations == [] and batches == []


def _sweep_noises(cfg, axis, values):
    """A fixed process noise for every point of a sweep, so that none is calibrated."""
    points = [cfg] + [replace(cfg, **{axis: value}) for value in values]
    return {(p.mobility_params(), p.t_csi, p.num_paths): 2e-4 for p in points}


def test_sweep_gives_each_variant_fresh_generators():
    # Every variant of a shared draw opens its own pilot and BER streams: a
    # generator shared across variants would move the second variant's pilot
    # noise (its NMSE) and Monte Carlo bits (its BER) off its lone run.
    cfg = _tiny_config(num_cycles=4, ber_mode="montecarlo", mc_bits_per_slot=2, snr_db=3.0)
    noises = _sweep_noises(cfg, "snr_db", [3.0, 6.0])
    rows = run_sweep(cfg, "snr_db", [3.0, 6.0], ("ekf", "lms"), 2, master_seed=9,
                     process_noises=noises)
    trials = [r for r in rows if r["trial"] != "mean"]
    assert len(trials) == 8
    for row in trials:
        alone = run_episode(
            replace(cfg, snr_db=float(row["axis_value"]), variant=row["variant"],
                    seed=int(row["seed"])),
            process_noise=2e-4,
        )
        assert row["status"] == "ok"
        assert float(row["mean_nmse_db"]) == alone.mean_nmse_db
        assert float(row["mean_ber"]) == alone.mean_ber


def test_run_sweep_draws_each_episode_once_for_all_variants(count_calls):
    cfg = _tiny_config(num_cycles=3)
    calls = count_calls(harness, "generate_trajectory")
    run_sweep(cfg, "snr_db", [6.0, 9.0], ("ekf", "lms", "genie"), 2,
              process_noises=_sweep_noises(cfg, "snr_db", [6.0, 9.0]))
    assert len(calls) == 2 * 2  # (point, trial), not (point, trial, variant)


def test_run_sweep_without_ber_leaves_mean_ber_empty(count_calls):
    cfg = _tiny_config(num_cycles=3)
    noises = _sweep_noises(cfg, "t_csi", [40, 80])
    with_ber = run_sweep(cfg, "t_csi", [40, 80], ("ekf", "genie"), 2, process_noises=noises)
    calls = count_calls(harness, "_cycle_ber")
    without = run_sweep(cfg, "t_csi", [40, 80], ("ekf", "genie"), 2, process_noises=noises,
                        ber=False)
    assert calls == []
    assert all(r["mean_ber"] != "" for r in with_ber)
    assert all(r["mean_ber"] == "" for r in without)
    assert [r["mean_nmse_db"] for r in without] == [r["mean_nmse_db"] for r in with_ber]
    assert [r["status"] for r in without] == [r["status"] for r in with_ber]


@pytest.mark.parametrize("grid, episodes, message", [
    ([], 1, "the SNR grid is empty"),
    ([9.0], 0, "episodes_per_point must be >= 1, got 0"),
])
def test_calibrate_estimate_noise_refuses_an_empty_grid_before_any_work(
    grid, episodes, message, count_calls
):
    calls = count_calls(harness, "calibrate_process_noise")
    with pytest.raises(ValueError, match=message):
        calibrate_estimate_noise(_tiny_config(num_cycles=12), grid, episodes_per_point=episodes)
    assert calls == []


@pytest.mark.parametrize("skip_cycles", [5, 6])
def test_calibrate_estimate_noise_needs_cycles_after_the_skip(skip_cycles, count_calls):
    # With every cycle skipped no error is left to pool: the table would be NaN.
    calls = count_calls(harness, "calibrate_process_noise")
    with pytest.raises(ValueError, match="skip_cycles"):
        calibrate_estimate_noise(
            _tiny_config(num_cycles=5), [9.0, 12.0], episodes_per_point=1,
            skip_cycles=skip_cycles,
        )
    assert calls == []


def test_calibrate_estimate_noise_grid():
    cfg = _tiny_config(num_cycles=12)
    table = calibrate_estimate_noise(
        cfg, [12.0, 6.0], episodes_per_point=1, skip_cycles=2
    )
    np.testing.assert_array_equal(table.snr_db, [6.0, 12.0])  # sorted grid
    assert np.all(table.estimate_std >= 1e-6)
    again = calibrate_estimate_noise(
        cfg, [6.0, 12.0], episodes_per_point=1, skip_cycles=2
    )
    np.testing.assert_array_equal(table.estimate_std, again.estimate_std)


def test_plot_data_writes_per_figure_csvs(tmp_path):
    cfg = _tiny_config(num_cycles=2)
    written = plot_data(
        tmp_path, cfg, variants=("ekf", "genie"), snr_values=(9.0,),
        t_csi_values=(40,), a_avg_values=(0.2 * np.pi,), trials=1,
    )
    names = sorted(p.split("/")[-1] for p in written)
    assert names == [
        "ber_vs_snr.csv", "nmse_vs_a_avg.csv", "nmse_vs_snr.csv", "nmse_vs_t_csi.csv",
    ]
    with open(tmp_path / "nmse_vs_snr.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "variant", "mean_nmse_db"]
    assert len(rows) == 3  # header + one aggregate row per variant


def test_plot_data_scores_ber_only_on_the_snr_axis(tmp_path, monkeypatch):
    # Only ber_vs_snr.csv holds a BER: the t_csi and a_avg sweeps compute none.
    axes = []
    real_sweep, real_ber = harness.run_sweep, harness._cycle_ber

    def recording_sweep(base, axis, *args, **kw):
        axes.append(axis)
        return real_sweep(base, axis, *args, **kw)

    ber_axes = []

    def recording_ber(*args, **kw):
        ber_axes.append(axes[-1])
        return real_ber(*args, **kw)

    monkeypatch.setattr(harness, "run_sweep", recording_sweep)
    monkeypatch.setattr(harness, "_cycle_ber", recording_ber)
    monkeypatch.setattr(harness, "calibrate_process_noise", lambda *a, **kw: 1e-5)
    plot_data(
        tmp_path, _tiny_config(num_cycles=2), variants=("ekf", "genie"),
        snr_values=(6.0, 9.0), t_csi_values=(40, 80), a_avg_values=(0.1, 0.2), trials=2,
    )
    assert axes == ["snr_db", "t_csi", "a_avg"]
    # One scoring chunk per episode: 2 values x 2 variants x 2 trials.
    assert ber_axes == ["snr_db"] * 8
    with open(tmp_path / "ber_vs_snr.csv", newline="") as fh:
        assert all(row["mean_ber"] != "" for row in csv.DictReader(fh))


def test_run_sweep_mean_rows_report_the_swept_cycle_count():
    rows = run_sweep(SimConfig(), "num_cycles", [5, 10], ("genie",), 1)
    means = [r for r in rows if r["trial"] == "mean"]
    assert [r["cycles"] for r in means] == ["5", "10"]
    trials = [r for r in rows if r["trial"] != "mean"]
    assert [r["cycles"] for r in trials] == ["5", "10"]


def test_run_sweep_calibrates_once_per_distinct_mobility(count_calls):
    calls = count_calls(harness, "calibrate_process_noise")
    cfg = _tiny_config(num_cycles=1)
    run_sweep(cfg, "snr_db", [3.0, 6.0, 9.0], ("genie",), 2)
    assert len(calls) == 1
    calls.clear()
    run_sweep(cfg, "t_csi", [40, 80, 40], ("genie",), 1)
    assert [t_csi for _, t_csi in calls] == [40, 80]
    calls.clear()
    run_sweep(cfg, "a_avg", [0.1, 0.2], ("genie",), 1)
    assert [params.a_avg for params, _ in calls] == [0.1, 0.2]


def test_plot_data_calibrates_once_per_distinct_mobility(tmp_path, monkeypatch, count_calls):
    # The default axes hold 6 distinct (mobility, t_csi) points; all three
    # sweeps pass through the base point (0.2pi, t_csi 160).
    monkeypatch.setattr(harness, "calibrate_process_noise", lambda *a, **kw: 1e-5)
    calls = count_calls(harness, "calibrate_process_noise")
    plot_data(tmp_path, SimConfig(num_cycles=1), variants=("genie",), trials=1)
    assert len(calls) == 6
    assert len({(params, t_csi) for params, t_csi in calls}) == 6


def test_calibrate_estimate_noise_calibrates_process_noise_once(count_calls):
    calls = count_calls(harness, "calibrate_process_noise")
    calibrate_estimate_noise(
        _tiny_config(num_cycles=3), [6.0, 9.0, 12.0], episodes_per_point=1, skip_cycles=1
    )
    assert len(calls) == 1


def _oracle_steering_table(n, thetas):
    # Phases in the order of arrays._steering: pi * theta, then times k.
    k = np.arange(n)[:, None]
    return np.exp(1j * (np.pi * np.asarray(thetas)[None, :] * k)) / np.sqrt(n)


def _oracle_cycle_ber(config, h_est, gains, aoa_slots, aods, noise_var, ber_rng):
    """Cycle BER from the full SVD of h_est and one steering table per path."""
    u, _, vh = np.linalg.svd(h_est, full_matrices=False)
    w = u[:, 0]
    f = vh[0].conj()
    tx_gain = _oracle_steering_table(config.n_b, aods).conj().T @ f
    g = np.zeros(aoa_slots.shape[1], dtype=np.complex128)
    for l in range(gains.size):
        rx = w.conj() @ _oracle_steering_table(config.n_m, aoa_slots[l])
        g += gains[l] * tx_gain[l] * rx
    if config.ber_mode == "analytic":
        return float(np.mean(qfunc(np.sqrt(2.0 * np.abs(g) ** 2 / noise_var))))
    errs = [
        bit_error_rate_mc(float(np.abs(gv)), noise_var, config.mc_bits_per_slot, ber_rng)
        for gv in g
    ]
    return float(np.mean(errs))


@pytest.mark.parametrize("case", ["tracking", "genie", "coincident", "montecarlo"])
@pytest.mark.parametrize("seed", range(4))
def test_cycle_ber_matches_full_svd_oracle(case, seed):
    rng = np.random.default_rng(seed)
    num_paths = 1 + seed % 3 if case == "tracking" else 3
    config = _tiny_config(
        num_paths=num_paths, ber_mode="montecarlo" if case == "montecarlo" else "analytic",
        mc_bits_per_slot=4,
    )
    geom_rx = ArrayGeometry(config.n_m)
    geom_tx = ArrayGeometry(config.n_b)
    gains = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, num_paths))
    aods = rng.uniform(-0.8, 0.8) + rng.uniform(-0.02, 0.02, num_paths)
    start = rng.uniform(-0.8, 0.8, num_paths)
    drift = rng.normal(0.0, 1e-3, (num_paths, config.t_csi)).cumsum(axis=1)
    aoa_slots = start[:, None] + drift
    if case == "genie":
        est = aoa_slots[:, 0].copy()
    elif case == "coincident":
        est = np.full(num_paths, start[0])  # rank-one A_r
        est[-1] = start[-1]
    else:
        est = start + rng.normal(0.0, 0.01, num_paths)
    noise_var = 10.0 ** (-rng.uniform(0.0, 15.0) / 10.0)

    h_est = (_oracle_steering_table(config.n_m, est) * gains) @ _oracle_steering_table(
        config.n_b, aods
    ).conj().T
    expected = _oracle_cycle_ber(
        config, h_est, gains, aoa_slots, aods, noise_var, np.random.default_rng(99)
    )
    a_t = arrays._steering(geom_tx, aods)
    tx_r = np.linalg.qr(a_t, mode="r")
    got = harness._cycle_ber(
        config, gains, est, aoa_slots, tx_r, noise_var, geom_rx, np.random.default_rng(99)
    )
    assert abs(got - expected) <= 1e-12
    # The NMSE channel uses the same explicit construction, bit for bit.
    np.testing.assert_array_equal(harness._channel_from_angles(gains, est, geom_rx, a_t), h_est)
