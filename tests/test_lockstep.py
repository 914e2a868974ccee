"""Lockstep episodes: a batch of episodes gives each episode its result alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from beamtrack import harness
from beamtrack.harness import VARIANTS, SimConfig, run_episode, run_episodes, run_sweep
from golden_episodes import golden_model

MODEL = golden_model()
BASE = SimConfig(t_csi=40, num_cycles=8, a_avg=0.4 * np.pi)
PROCESS_NOISE = 2e-4


def _run(configs, variant, process_noise=PROCESS_NOISE):
    model = MODEL if variant.startswith("proposed") else None
    return run_episodes(configs, model=model, process_noise=process_noise)


def _assert_same(got, want):
    assert got.seed == want.seed and got.config_digest == want.config_digest
    assert np.array_equal(got.nmse_db, want.nmse_db)
    assert np.array_equal(got.aoa_error, want.aoa_error)
    assert np.max(np.abs(got.ber - want.ber)) <= 1e-12


episodes = st.lists(
    st.tuples(
        st.integers(0, 2**32), st.floats(0.0, 15.0), st.sampled_from([40, 80]),
        st.floats(0.05 * np.pi, 0.5 * np.pi), st.floats(1e-5, 1e-3),
    ),
    min_size=1, max_size=6,
)


@pytest.mark.parametrize("variant", VARIANTS)
# No shrink phase: shrinking a failing batch took minutes, and the first
# failing example already names the episodes that differ.
@settings(max_examples=8, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(episodes=episodes, ber_mode=st.sampled_from(["analytic", "montecarlo"]), data=st.data())
def test_batch_gives_each_episode_its_result_alone(variant, episodes, ber_mode, data):
    # Episodes of one batch mix seeds, SNRs, cycle lengths, mobilities and
    # process noises.
    configs = [
        replace(BASE, variant=variant, seed=seed, snr_db=snr, t_csi=t_csi, a_avg=a_avg,
                ber_mode=ber_mode)
        for seed, snr, t_csi, a_avg, _ in episodes
    ]
    noises = [noise for *_, noise in episodes]
    batch = _run(configs, variant, noises)
    for cfg, noise, got in zip(configs, noises, batch):
        _assert_same(got, _run([cfg], variant, noise)[0])
    # The order of the batch changes no episode's result.
    order = data.draw(st.permutations(range(len(configs))), label="order")
    shuffled = _run([configs[k] for k in order], variant, [noises[k] for k in order])
    for k, got in zip(order, shuffled):
        _assert_same(got, batch[k])


def test_three_receive_beams_batch_episode_by_episode():
    # Beam triples go through the same batched subset scorer as pairs.
    base = replace(BASE, variant="ekf", m_m=3, codebook_size=8, num_cycles=3)
    configs = [replace(base, seed=seed, snr_db=snr) for seed, snr in ((1, 3.0), (2, 12.0))]
    for cfg, got in zip(configs, _run(configs, "ekf")):
        _assert_same(got, _run([cfg], "ekf")[0])


def test_a_batch_calibrates_once_per_distinct_mobility(monkeypatch, count_calls):
    def fake_calibration(params, t_csi, num_paths):
        return 1e-7 * t_csi * params.a_avg

    monkeypatch.setattr(harness, "calibrate_process_noise", fake_calibration)
    calls = count_calls(harness, "calibrate_process_noise")
    ekf = replace(BASE, variant="ekf")
    configs = [ekf, replace(ekf, seed=1, t_csi=80), replace(ekf, seed=2), replace(ekf, a_avg=0.1)]
    batch = run_episodes(configs)
    assert [(params.a_avg, t_csi) for params, t_csi in calls] == [
        (BASE.a_avg, 40), (BASE.a_avg, 80), (0.1, 40),
    ]
    for cfg, got in zip(configs, batch):
        noise = fake_calibration(cfg.mobility_params(), cfg.t_csi, cfg.num_paths)
        _assert_same(got, run_episode(cfg, process_noise=noise))


@pytest.mark.parametrize("field, value", [("variant", "lms"), ("num_cycles", 9), ("k_samples", 8)])
def test_a_batch_must_agree_in_the_shared_fields(field, value):
    ekf = replace(BASE, variant="ekf")
    configs = [ekf, replace(ekf, seed=1, snr_db=3.0, t_csi=80, **{field: value})]
    with pytest.raises(ValueError, match=f"must share \\['{field}'\\]"):
        run_episodes(configs, process_noise=PROCESS_NOISE)
    with pytest.raises(ValueError, match="at least one episode"):
        run_episodes([], process_noise=PROCESS_NOISE)
    with pytest.raises(ValueError, match="one per episode"):
        run_episodes(configs[:1], process_noise=[PROCESS_NOISE] * 2)


@pytest.mark.parametrize("axis, values", [
    ("t_csi", [40, 80]), ("a_avg", [0.3, 0.6, 0.3]), ("lms_step", [0.02, 0.005]),
])
def test_sweep_rows_equal_their_episodes_alone(axis, values, count_calls):
    cfg = replace(BASE, num_cycles=5)
    # A distinct process noise per point's mobility, so that no calibration runs.
    points = [replace(cfg, **{axis: value}) for value in values]
    noises = {
        (p.mobility_params(), p.t_csi, p.num_paths): PROCESS_NOISE * (1.0 + k / 4.0)
        for k, p in enumerate(points)
    }
    calls = count_calls(harness, "run_episodes")
    rows = run_sweep(
        cfg, axis, values, ("ekf", "lms", "proposed_csi_imu"), 2, master_seed=7,
        models={"proposed_csi_imu": MODEL}, process_noises=noises,
    )
    # One batch per variant, of every point and trial.
    assert [len(configs) for configs, *_ in calls] == [2 * len(values)] * 3
    trials = [r for r in rows if r["trial"] != "mean"]
    assert len(trials) == 3 * 2 * len(values)
    for row in trials:
        point = replace(cfg, **{axis: type(getattr(cfg, axis))(row["axis_value"])})
        alone = run_episode(
            replace(point, variant=row["variant"], seed=int(row["seed"])),
            model=MODEL if row["variant"].startswith("proposed") else None,
            process_noise=noises[(point.mobility_params(), point.t_csi, point.num_paths)],
        )
        assert row["status"] == "ok"
        assert float(row["mean_nmse_db"]) == alone.mean_nmse_db
        assert float(row["mean_ber"]) == alone.mean_ber


def test_sweep_over_a_shared_field_runs_one_batch_per_point(count_calls):
    cfg = replace(BASE, variant="ekf")
    calls = count_calls(harness, "run_episodes")
    rows = run_sweep(cfg, "num_cycles", [3, 5, 3], ("ekf", "lms"), 2, process_noises={
        (cfg.mobility_params(), cfg.t_csi, cfg.num_paths): PROCESS_NOISE,
    })
    # The two num_cycles 3 points share a batch of 4; num_cycles 5 runs alone.
    # Each batch group is drawn once and runs for every variant before the
    # next group is drawn.
    assert [[(c.num_cycles, c.variant) for c in configs] for configs, *_ in calls] == [
        [(3, "ekf")] * 4, [(3, "lms")] * 4, [(5, "ekf")] * 2, [(5, "lms")] * 2,
    ]
    assert [r["cycles"] for r in rows if r["trial"] == "0"] == ["3", "3", "5", "5", "3", "3"]
    assert all(r["status"] in ("ok", "aggregate") for r in rows)


def test_sweep_keeps_a_failing_trial_to_its_own_row(monkeypatch):
    cfg = replace(BASE, variant="ekf")
    points = [9.0, 12.0]
    seeds = [harness.episode_seed(3, "snr_db", snr, trial) for snr in points for trial in range(3)]
    real_stream = harness._stream

    def failing_stream(seed, tag):
        if seed == seeds[4]:
            raise RuntimeError("episode 4 cannot draw")
        return real_stream(seed, tag)

    monkeypatch.setattr(harness, "_stream", failing_stream)
    rows = run_sweep(cfg, "snr_db", points, ("ekf",), 3, master_seed=3, process_noises={
        (cfg.mobility_params(), cfg.t_csi, cfg.num_paths): PROCESS_NOISE,
    })
    trials = [r for r in rows if r["trial"] != "mean"]
    assert [r["seed"] for r in trials] == [str(s) for s in seeds]
    assert trials[4]["status"] == "error:RuntimeError: episode 4 cannot draw"
    assert trials[4]["mean_nmse_db"] == ""
    for k in (0, 1, 2, 3, 5):
        snr = points[k // 3]
        alone = run_episode(replace(cfg, seed=seeds[k], snr_db=snr), process_noise=PROCESS_NOISE)
        assert trials[k]["status"] == "ok"
        assert float(trials[k]["mean_nmse_db"]) == alone.mean_nmse_db
        assert float(trials[k]["mean_ber"]) == alone.mean_ber
