"""Error-bound-driven sounding beam selection."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import beamctl
from beamtrack.arrays import ArrayGeometry, make_codebook
from beamtrack.beamctl import (
    BeamSelection,
    crlb_objective,
    nearest_beams,
    select_sounding,
    spd_inverse_trace,
)
from beamtrack.filtering import GaussianBelief, joint_belief
from beamtrack.measurement import SoundingConfig, _receive_factors


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
    with pytest.raises(TypeError, match="aods"):
        crlb_objective(belief, snd, np.ones(1, dtype=complex), 0.1, geom32, geom32)


def _random_beliefs(rng, episodes, num_paths=2):
    """Diagonal beliefs, gains, departures and noise for a batch of episodes;
    the third episode has zero gains, so every subset ties on the prior."""
    means = rng.uniform(-0.8, 0.8, (episodes, num_paths))
    cov = np.zeros((episodes, num_paths, num_paths))
    variances = 10.0 ** rng.uniform(-4.0, -2.0, (episodes, num_paths))
    cov[:, range(num_paths), range(num_paths)] = variances
    gains = np.exp(1j * rng.uniform(0, 2 * np.pi, (episodes, num_paths)))
    gains[2:3] = 0.0
    known_aod = rng.uniform(-0.8, 0.8, episodes)
    aods = known_aod[:, None] + rng.uniform(-1 / 16, 1 / 16, (episodes, num_paths))
    noise_var = 10.0 ** rng.uniform(-1.5, 0.0, episodes)
    return GaussianBelief(means, cov), gains, known_aod, aods, noise_var


@pytest.mark.parametrize("episodes", [1, 3])
@pytest.mark.parametrize("num_rx", [1, 2, 3])
def test_vectorized_pair_search_matches_bruteforce(geom32, num_rx, episodes):
    # The batched subset scorer must agree with scoring each candidate subset
    # through the generic objective, including the argmin choice; the first
    # minimum in lexicographic order wins a tie.
    cb = make_codebook(8)
    belief, gains, known_aod, aods, noise_var = _random_beliefs(
        np.random.default_rng(10 * num_rx + episodes), episodes
    )
    sel = select_sounding(
        belief, cb, gains, noise_var, geom32, geom32, known_aod=known_aod, aods=aods,
        num_rx=num_rx,
    )
    assert sel.rx_indices.shape == (episodes, num_rx)
    combos = list(itertools.combinations(range(len(cb)), num_rx))
    for k in range(episodes):
        one = GaussianBelief(belief.mean[k], belief.cov[k])
        tx_angles = cb.angles[nearest_beams(known_aod[k], cb, 2)]
        values = [
            crlb_objective(
                one, SoundingConfig(tx_angles=tx_angles, rx_angles=cb.angles[list(combo)]),
                gains[k], noise_var[k], geom32, geom32, aods=aods[k],
            )
            for combo in combos
        ]
        best = int(np.argmin(values))
        np.testing.assert_array_equal(sel.rx_indices[k], combos[best])
        assert sel.objective_value[k] == pytest.approx(values[best], rel=1e-12)
    if episodes == 1:  # the one-belief form is the batch of one
        alone = select_sounding(
            GaussianBelief(belief.mean[0], belief.cov[0]), cb, gains[0], noise_var[0],
            geom32, geom32, known_aod=known_aod[0], aods=aods[0], num_rx=num_rx,
        )
        np.testing.assert_array_equal(alone.rx_indices, sel.rx_indices[0])
        assert alone.objective_value == sel.objective_value[0]
    else:  # zero gains: every subset ties, the first one wins
        np.testing.assert_array_equal(sel.rx_indices[2], np.arange(num_rx))


def test_a_batch_scored_in_several_slices_equals_its_episodes_alone(geom32, monkeypatch):
    # A cap of two episodes' subsets per slice: five episodes take three
    # slices, the last one short. With 16 beams the pair and triple searches
    # prune (120 and 560 subsets against 16 seeds); 16 singles are all seeds.
    cb = make_codebook(16)
    belief, gains, known_aod, aods, noise_var = _random_beliefs(np.random.default_rng(5), 5)
    for num_rx in (1, 2, 3):
        monkeypatch.setattr(beamctl, "_SLICE_ENTRIES", 2 * math.comb(len(cb), num_rx))
        for episodes in range(1, 6):
            sel = select_sounding(
                GaussianBelief(belief.mean[:episodes], belief.cov[:episodes]), cb,
                gains[:episodes], noise_var[:episodes], geom32, geom32,
                known_aod=known_aod[:episodes], aods=aods[:episodes], num_rx=num_rx,
            )
            for k in range(episodes):
                alone = select_sounding(
                    GaussianBelief(belief.mean[k], belief.cov[k]), cb, gains[k], noise_var[k],
                    geom32, geom32, known_aod=known_aod[k], aods=aods[k], num_rx=num_rx,
                )
                np.testing.assert_array_equal(sel.tx_indices[k], alone.tx_indices)
                np.testing.assert_array_equal(sel.rx_indices[k], alone.rx_indices)
                assert sel.objective_value[k] == alone.objective_value


# Per-episode kinds of belief for the pruning properties: "plain" and "wide"
# priors, zero gains (every subset ties on the prior), twin paths under a wide
# prior (J near singular), zero gains under an infinite prior (J = 0: every
# bound and score is inf) and a NaN gain (every bound is NaN).
_BELIEF_KINDS = ("plain", "wide", "zero_gain", "twin", "singular", "nan")


def _hard_beliefs(seed, kinds, num_paths):
    """Diagonal beliefs, gains, departures and noise, one episode per kind."""
    rng = np.random.default_rng(seed)
    episodes = len(kinds)
    means = rng.uniform(-0.9, 0.9, (episodes, num_paths))
    variances = 10.0 ** rng.uniform(-5.0, -1.0, (episodes, num_paths))
    gains = 10.0 ** rng.uniform(-2.0, 1.0, (episodes, num_paths)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (episodes, num_paths))
    )
    known_aod = rng.uniform(-0.9, 0.9, episodes)
    aods = known_aod[:, None] + rng.uniform(-1 / 16, 1 / 16, (episodes, num_paths))
    noise_var = 10.0 ** rng.uniform(-3.0, 1.0, episodes)
    for k, kind in enumerate(kinds):
        if kind == "wide":
            variances[k] = 10.0 ** rng.uniform(0.0, 8.0, num_paths)
        elif kind == "zero_gain":
            gains[k] = 0.0
        elif kind == "twin":
            variances[k] = 1e8
            means[k], aods[k], gains[k] = means[k, 0], aods[k, 0], gains[k, 0]
        elif kind == "singular":
            variances[k], gains[k] = np.inf, 0.0
        elif kind == "nan":
            gains[k, -1] = np.nan
    cov = np.zeros((episodes, num_paths, num_paths))
    cov[:, range(num_paths), range(num_paths)] = variances
    return GaussianBelief(means, cov), gains, known_aod, aods, noise_var


def _every_entry(belief, cb, gains, noise_var, geom, known_aod, aods, num_rx):
    """The exhaustive search: every (episode, subset) entry scored by
    `_entry_scores`, (episodes, subsets), with the factors and subset table."""
    variances = np.diagonal(belief.cov, axis1=-2, axis2=-1)
    _, t_mat = beamctl._transmit_side(cb, gains, geom, geom, known_aod, aods)
    _, dgr = _receive_factors(belief.mean, cb.angles, geom, with_derivatives=True)
    factors = beamctl._subset_factors(t_mat, dgr, noise_var, variances)
    members = beamctl._subset_table(len(cb), num_rx)
    episodes, subsets = belief.mean.shape[0], members.shape[1]
    scores = beamctl._entry_scores(
        factors, members, np.repeat(np.arange(episodes), subsets),
        np.tile(np.arange(subsets), episodes),
    )
    return scores.reshape(episodes, subsets), factors, members


def _table_scores(factors, members):
    """Every subset's score built as the search built them before pruning:
    whole subset columns per lower-triangle entry, T broadcast over them."""
    t_mat, d_mat, weight, inv_var = factors
    num_paths = inv_var.shape[-1]
    info = np.empty((num_paths, num_paths) + d_mat.shape[2:3] + members.shape[1:])
    for i in range(num_paths):
        for m in range(i + 1):
            summed = np.take(d_mat[i, m], members[0], -1)
            for column in members[1:]:
                summed = summed + np.take(d_mat[i, m], column, -1)
            info[i, m] = weight[:, None] * (t_mat[:, i, m, None] * summed).real
        info[i, i] += inv_var[:, i, None]
    return spd_inverse_trace(np.moveaxis(info, (0, 1), (-2, -1)))


_hard_draws = dict(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(_BELIEF_KINDS), min_size=1, max_size=5),
    num_paths=st.integers(1, 3),
    num_rx=st.integers(1, 3),
    beams=st.sampled_from([8, 16, 32]),
)


@settings(max_examples=150, deadline=None)
@given(**_hard_draws)
def test_pruned_search_equals_the_exhaustive_search(seed, kinds, num_paths, num_rx, beams):
    geom, cb = ArrayGeometry(32), make_codebook(beams)
    belief, gains, known_aod, aods, noise_var = _hard_beliefs(seed, kinds, num_paths)
    sel = select_sounding(
        belief, cb, gains, noise_var, geom, geom, known_aod=known_aod, aods=aods,
        num_rx=num_rx,
    )
    scores, _, members = _every_entry(belief, cb, gains, noise_var, geom, known_aod, aods, num_rx)
    best = np.argmin(scores, axis=1)
    np.testing.assert_array_equal(sel.rx_indices, members.T[best])
    np.testing.assert_array_equal(sel.objective_value, scores[np.arange(len(kinds)), best])
    for k, kind in enumerate(kinds):
        if kind in ("zero_gain", "singular", "nan"):  # every subset ties: the first wins
            np.testing.assert_array_equal(sel.rx_indices[k], np.arange(num_rx))


@settings(max_examples=150, deadline=None)
@given(**_hard_draws, data=st.data())
def test_the_bound_holds_and_gathered_scores_equal_the_table(
    seed, kinds, num_paths, num_rx, beams, data
):
    geom, cb = ArrayGeometry(32), make_codebook(beams)
    belief, gains, known_aod, aods, noise_var = _hard_beliefs(seed, kinds, num_paths)
    scores, factors, members = _every_entry(
        belief, cb, gains, noise_var, geom, known_aod, aods, num_rx
    )
    np.testing.assert_array_equal(scores, _table_scores(factors, members))
    bounds = beamctl._subset_bounds(factors, members, slice(0, len(kinds)))
    assert not np.any(bounds > scores * (1.0 + beamctl._BOUND_SLACK))
    # Any list of entries, in any order, scores as the table does.
    entries = data.draw(
        st.lists(st.integers(0, scores.size - 1), min_size=1, max_size=40), label="entries"
    )
    episode, subset = np.divmod(np.array(entries), scores.shape[1])
    np.testing.assert_array_equal(
        beamctl._entry_scores(factors, members, episode, subset), scores[episode, subset]
    )


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
    with pytest.raises(TypeError, match="known_aod"):
        select_sounding(belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32)
    with pytest.raises(TypeError):  # known_aod is keyword-only
        select_sounding(belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32,
                        "aoa_only", 0.0)
    for mode in ("bogus", "full"):
        with pytest.raises(ValueError, match="unknown mode"):
            select_sounding(
                belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32,
                mode=mode, known_aod=0.0,
            )
    sel = select_sounding(
        belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32,
        mode="aoa_only", known_aod=0.0,
    )
    assert len(sel.rx_indices) == 2


@pytest.mark.parametrize("num_rx", [0, 65])
def test_select_sounding_rejects_receive_sets_the_codebook_cannot_fill(geom32, codebook64, num_rx):
    belief = GaussianBelief([0.1], [[1e-3]])
    with pytest.raises(ValueError, match=rf"num_rx must lie in \[1, 64\], got {num_rx}"):
        select_sounding(belief, codebook64, np.ones(1, dtype=complex), 0.1, geom32, geom32,
                        known_aod=0.0, num_rx=num_rx)


def test_select_sounding_refuses_more_receive_subsets_than_the_cap(geom32, codebook64, monkeypatch):
    # 5 of 64 beams is 7,624,512 subsets: a 305 MB subset table and gigabytes
    # of scores for one episode. The count must be refused before anything
    # is built; the stand-in table fails the test if the search starts.
    def no_table(n, k):
        raise AssertionError(f"the {k}-of-{n} subset table was built")

    monkeypatch.setattr(beamctl, "_subset_table", no_table)
    belief = GaussianBelief([0.1, 0.3], 1e-3 * np.eye(2))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"7624512 receive subsets, above the cap of 1048576"):
            select_sounding(belief, codebook64, np.ones(2, dtype=complex), 0.1, geom32, geom32,
                            known_aod=0.0, num_rx=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"refusing the search took a {peak / 2**20:.1f} MiB peak"


def test_the_subset_cap_is_inclusive(geom32, monkeypatch):
    cb = make_codebook(10)
    belief = GaussianBelief([0.1], [[1e-3]])
    args = (belief, cb, np.ones(1, dtype=complex), 0.1, geom32, geom32)
    monkeypatch.setattr(beamctl, "_MAX_SUBSETS", math.comb(10, 3))
    for num_rx in (3, 7):  # 120 subsets each, exactly the cap
        assert len(select_sounding(*args, known_aod=0.0, num_rx=num_rx).rx_indices) == num_rx
    with pytest.raises(ValueError, match="210 receive subsets"):
        select_sounding(*args, known_aod=0.0, num_rx=4)


def test_four_receive_beams_of_64_stay_under_the_cap(geom32, codebook64):
    assert math.comb(64, 4) == 635_376 <= beamctl._MAX_SUBSETS
    belief = GaussianBelief([0.1, -0.4], 1e-3 * np.eye(2))
    sel = select_sounding(belief, codebook64, np.ones(2, dtype=complex), 0.1, geom32, geom32,
                          known_aod=0.0, num_rx=4)
    assert sel.rx_indices.shape == (4,) and np.all(np.diff(sel.rx_indices) > 0)
    assert np.isfinite(sel.objective_value)


def test_select_sounding_on_a_pair_equals_the_belief_form(geom32, codebook64, rng):
    means = rng.uniform(-0.8, 0.8, size=(5, 3))
    variances = 10.0 ** rng.uniform(-6.0, -2.0, size=(5, 3))
    gains = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(5, 3)))
    args = (codebook64, gains, rng.uniform(0.05, 0.5, size=5), geom32, geom32)
    known_aod = rng.uniform(-0.8, 0.8, size=5)
    dense = select_sounding(joint_belief(means, variances), *args, known_aod=known_aod)
    pair = select_sounding((means, variances), *args, known_aod=known_aod)
    assert np.array_equal(pair.tx_indices, dense.tx_indices)
    assert np.array_equal(pair.rx_indices, dense.rx_indices)
    assert np.array_equal(pair.objective_value, dense.objective_value)


def test_select_sounding_rejects_a_correlated_prior(geom32, codebook64):
    # Pair scoring takes the prior's inverse as 1 / variances, which holds
    # for the diagonal priors every tracker builds and for nothing else.
    belief = GaussianBelief([0.1, 0.3], [[1e-3, 2e-4], [2e-4, 1e-3]])
    with pytest.raises(ValueError, match="diagonal"):
        select_sounding(belief, codebook64, np.ones(2, dtype=complex), 0.1, geom32, geom32,
                        known_aod=0.0)


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
