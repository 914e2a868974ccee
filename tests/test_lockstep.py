"""Lockstep episodes: a batch of episodes gives each episode its result alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import harness
from beamtrack.harness import VARIANTS, SimConfig, run_episode, run_episodes, run_sweep
from golden_episodes import golden_model

MODEL = golden_model()
BASE = SimConfig(t_csi=40, num_cycles=8, a_avg=0.4 * np.pi)
PROCESS_NOISE = 2e-4


def _run(configs, variant):
    model = MODEL if variant.startswith("proposed") else None
    return run_episodes(configs, model=model, process_noise=PROCESS_NOISE)


def _assert_same(got, want):
    assert got.seed == want.seed and got.config_digest == want.config_digest
    assert np.array_equal(got.nmse_db, want.nmse_db)
    assert np.array_equal(got.aoa_error, want.aoa_error)
    assert np.max(np.abs(got.ber - want.ber)) <= 1e-12


episodes = st.lists(
    st.tuples(st.integers(0, 2**32), st.floats(0.0, 15.0)), min_size=1, max_size=6
)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=8, deadline=None)
@given(episodes=episodes, ber_mode=st.sampled_from(["analytic", "montecarlo"]), data=st.data())
def test_batch_gives_each_episode_its_result_alone(variant, episodes, ber_mode, data):
    configs = [
        replace(BASE, variant=variant, seed=seed, snr_db=snr, ber_mode=ber_mode)
        for seed, snr in episodes
    ]
    batch = _run(configs, variant)
    for cfg, got in zip(configs, batch):
        _assert_same(got, _run([cfg], variant)[0])
    # The order of the batch changes no episode's result.
    order = data.draw(st.permutations(range(len(configs))), label="order")
    for k, got in zip(order, _run([configs[k] for k in order], variant)):
        _assert_same(got, batch[k])


def test_three_receive_beams_batch_episode_by_episode():
    # Exhaustive search over beam triples scores one episode at a time.
    base = replace(BASE, variant="ekf", m_m=3, codebook_size=8, num_cycles=3)
    configs = [replace(base, seed=seed, snr_db=snr) for seed, snr in ((1, 3.0), (2, 12.0))]
    for cfg, got in zip(configs, _run(configs, "ekf")):
        _assert_same(got, _run([cfg], "ekf")[0])


@pytest.mark.parametrize("field, value", [("t_csi", 80), ("variant", "lms"), ("num_cycles", 9)])
def test_a_batch_may_differ_only_in_seed_and_snr(field, value):
    ekf = replace(BASE, variant="ekf")
    configs = [ekf, replace(ekf, seed=1, snr_db=3.0, **{field: value})]
    with pytest.raises(ValueError, match=field):
        run_episodes(configs, process_noise=PROCESS_NOISE)
    with pytest.raises(ValueError, match="at least one episode"):
        run_episodes([], process_noise=PROCESS_NOISE)


def test_sweep_keeps_a_failing_trial_to_its_own_row(monkeypatch):
    cfg = replace(BASE, variant="ekf")
    seeds = [harness.episode_seed(3, "snr_db", 9.0, trial) for trial in range(3)]
    real_stream = harness._stream

    def failing_stream(seed, tag):
        if seed == seeds[1]:
            raise RuntimeError("episode 1 cannot draw")
        return real_stream(seed, tag)

    monkeypatch.setattr(harness, "_stream", failing_stream)
    rows = run_sweep(cfg, "snr_db", [9.0], ("ekf",), 3, master_seed=3, process_noises={
        (cfg.mobility_params(), cfg.t_csi, cfg.num_paths): PROCESS_NOISE,
    })
    trials = [r for r in rows if r["trial"] != "mean"]
    assert [r["seed"] for r in trials] == [str(s) for s in seeds]
    assert trials[1]["status"] == "error:RuntimeError: episode 1 cannot draw"
    assert trials[1]["mean_nmse_db"] == ""
    for k in (0, 2):
        alone = run_episode(replace(cfg, seed=seeds[k], snr_db=9.0), process_noise=PROCESS_NOISE)
        assert trials[k]["status"] == "ok"
        assert float(trials[k]["mean_nmse_db"]) == alone.mean_nmse_db
        assert float(trials[k]["mean_ber"]) == alone.mean_ber
