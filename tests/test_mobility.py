"""Angle dynamics and inertial sample synthesis."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import mobility
from beamtrack.mobility import (
    MobilityParams,
    Trajectory,
    generate_trajectory,
    synthesize_imu,
)
from beamtrack.trackers import calibrate_process_noise


# generate_trajectory's velocities come from a scaled running sum per block
# and a doubling scan across blocks, so they round differently from the
# per-slot recursion. At walking rates the two angle tracks stayed within
# 5.3e-13 of each other over 30,000 slots (the walking-rate test's draws);
# over ballistic draws that reflect every few slots for 8,175 slots, within
# 7.6e-12 on the property test's examples and 1.9e-11 on 40 random draws.
PER_SLOT_ATOL = 1e-10


def per_slot_trajectory(params, num_paths, num_slots, rng, init_aoa=None, init_velocity=None):
    """Reference: the recursion stepped one slot at a time, drawing from rng
    exactly as generate_trajectory does. The random stream is the same, so
    only rounding separates the two."""
    if init_aoa is None:
        init_aoa = rng.uniform(-0.8, 0.8, size=num_paths)
    init_aoa = np.broadcast_to(np.asarray(init_aoa, dtype=np.float64), (num_paths,))
    if init_velocity is None:
        init_velocity = rng.normal(params.a_avg, np.sqrt(0.2), size=num_paths)
    init_velocity = np.broadcast_to(np.asarray(init_velocity, dtype=np.float64), (num_paths,))

    drive = rng.normal(0.0, np.sqrt(params.drive_var), size=(num_paths, num_slots))
    aoa = np.empty((num_paths, num_slots))
    pull = (1.0 - params.rho) * params.a_avg
    rho, dt = params.rho, params.dt
    for l in range(num_paths):
        th = float(init_aoa[l])
        v = float(init_velocity[l])
        w = drive[l]
        for n in range(num_slots):
            v = pull + rho * v + w[n]
            th += dt * v
            while th > 1.0 or th < -1.0:
                th = 2.0 - th if th > 1.0 else -2.0 - th
                v = -v
            aoa[l, n] = th
    return Trajectory(aoa, params.dt)


def _assert_matches_per_slot(params, num_paths, num_slots, seed, **init):
    fast = generate_trajectory(params, num_paths, num_slots, np.random.default_rng(seed), **init)
    slow = per_slot_trajectory(params, num_paths, num_slots, np.random.default_rng(seed), **init)
    np.testing.assert_allclose(fast.aoa, slow.aoa, rtol=0.0, atol=PER_SLOT_ATOL)


def _chunk_boundaries():
    """Slot counts ending exactly on a chunk boundary when no reflection occurs."""
    ends, size, total = [], mobility._FIRST_CHUNK, 0
    while size < mobility._MAX_CHUNK:
        total += size
        ends.append(total)
        size *= 2
    ends += [mobility._MAX_CHUNK, total + mobility._MAX_CHUNK]
    return sorted({n + d for n in ends for d in (-1, 0, 1)})


def test_params_validation():
    with pytest.raises(ValueError):
        MobilityParams(a_avg=0.0, rho=1.0)
    with pytest.raises(ValueError):
        MobilityParams(a_avg=0.0, drive_var=-1e-3)
    with pytest.raises(ValueError):
        MobilityParams(a_avg=0.0, dt=0.0)


_NON_FINITE = [
    ("a_avg", np.nan, "a_avg must be finite, got nan"),
    ("a_avg", np.inf, "a_avg must be finite, got inf"),
    ("a_avg", -np.inf, "a_avg must be finite, got -inf"),
    ("drive_var", np.nan, "drive_var must be finite and >= 0, got nan"),
    ("drive_var", np.inf, "drive_var must be finite and >= 0, got inf"),
    ("dt", np.inf, "dt must be finite and > 0, got inf"),
    ("dt", np.nan, "dt must be finite and > 0, got nan"),
]


@pytest.mark.parametrize("field, bad, message", _NON_FINITE,
                         ids=[f"{f}={v}" for f, v, _ in _NON_FINITE])
def test_params_refuse_non_finite_values(field, bad, message):
    # A NaN or infinite a_avg, drive_var or dt turns every angle into NaN or
    # inf; a NaN drive_var passed the old "drive_var < 0" test.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MobilityParams(**{"a_avg": 0.0, field: bad})


def test_recursion_replayed_by_hand():
    # Velocity updates first, then the angle integrates it. Replay the
    # per-slot float sequence with an identically seeded generator.
    params = MobilityParams(a_avg=0.3, rho=0.8, drive_var=0.01, dt=1e-5)
    traj = generate_trajectory(
        params, 1, 50, np.random.default_rng(5), init_aoa=0.0, init_velocity=0.1
    )
    w = np.random.default_rng(5).normal(0.0, np.sqrt(0.01), size=(1, 50))[0]
    th, v = 0.0, 0.1
    pull = (1 - 0.8) * 0.3
    for n in range(50):
        v = pull + 0.8 * v + w[n]
        th += 1e-5 * v
        assert traj.aoa[0, n] == pytest.approx(th, rel=0.0, abs=PER_SLOT_ATOL)


def test_reflection_hand_case():
    # Deterministic ballistic motion, 0.3 per slot: bounce off +1 then -1,
    # negating the velocity each time.
    params = MobilityParams(a_avg=0.0, rho=1 - 1e-12, drive_var=0.0, dt=1.25e-4)
    traj = generate_trajectory(
        params, 1, 10, np.random.default_rng(0), init_aoa=0.5, init_velocity=2400.0
    )
    expect = [0.8, 0.9, 0.6, 0.3, 0.0, -0.3, -0.6, -0.9, -0.8, -0.5]
    np.testing.assert_allclose(traj.aoa[0], expect, atol=1e-6)


def test_angles_stay_in_range_under_fast_drift():
    params = MobilityParams(a_avg=0.4 * np.pi, dt=125e-6)
    traj = generate_trajectory(params, 3, 40_000, np.random.default_rng(42))
    assert np.all(np.abs(traj.aoa) <= 1.0)


def test_velocity_stationary_statistics():
    # Var = drive_var / (1 - rho^2); pick a short memory so the estimate
    # converges, and a_avg = 0 so boundary reflections keep the law symmetric.
    # The velocity is read back as the angle's increment per slot over dt; at
    # this dt no reflection occurs.
    rho = 0.9
    params = MobilityParams(a_avg=0.0, rho=rho, drive_var=0.2 * (1 - rho**2), dt=1e-7)
    traj = generate_trajectory(
        params, 4, 60_000, np.random.default_rng(7), init_aoa=0.0, init_velocity=0.0
    )
    v = (np.diff(traj.aoa, axis=1) / params.dt)[:, 2000:]
    assert v.var() == pytest.approx(0.2, rel=0.05)
    assert abs(v.mean()) < 0.02
    lag1 = np.mean(v[:, 1:] * v[:, :-1]) / v.var()
    assert lag1 == pytest.approx(rho, abs=0.01)


def test_velocity_mean_tracks_a_avg():
    rho = 0.9
    params = MobilityParams(a_avg=0.5, rho=rho, drive_var=0.01 * (1 - rho**2), dt=1e-9)
    traj = generate_trajectory(
        params, 2, 30_000, np.random.default_rng(9), init_aoa=0.0, init_velocity=0.5
    )
    v = np.diff(traj.aoa, axis=1) / params.dt
    assert v.mean() == pytest.approx(0.5, rel=0.02)


def test_trajectory_determinism():
    params = MobilityParams(a_avg=0.2 * np.pi)
    a = generate_trajectory(params, 3, 5000, np.random.default_rng(123))
    b = generate_trajectory(params, 3, 5000, np.random.default_rng(123))
    np.testing.assert_array_equal(a.aoa, b.aoa)


def test_generate_trajectory_validation():
    params = MobilityParams(a_avg=0.0)
    with pytest.raises(ValueError):
        generate_trajectory(params, 0, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_trajectory(params, 1, 10, np.random.default_rng(0), init_aoa=1.5)


def test_imu_hand_oracle_quadratic_track():
    # aoa(n) = c*n^2 with dt = 1: backward differences give v(n) = c(2n-1)
    # for n >= 1 (edge-copied at n = 0) and a(n) = 2c for n >= 2.
    c = 0.001
    n = np.arange(8, dtype=np.float64)
    traj = Trajectory(aoa=(c * n**2)[None, :], dt=1.0)
    block = synthesize_imu(traj, 2, 4, np.inf, np.random.default_rng(0))
    assert block.shape == (1, 2, 4)
    np.testing.assert_allclose(block[0, 0], [c, 5 * c, 0.0, 2 * c], atol=1e-15)
    np.testing.assert_allclose(block[0, 1], [9 * c, 13 * c, 2 * c, 2 * c], atol=1e-15)


def test_imu_end_alignment_single_sample():
    # K = 1 keeps only the cycle's final slot.
    aoa = np.arange(12, dtype=np.float64)[None, :] ** 2
    traj = Trajectory(aoa=aoa, dt=1.0)
    block = synthesize_imu(traj, 1, 4, np.inf, np.random.default_rng(0))
    vel_full = np.empty(12)
    vel_full[1:] = np.diff(aoa[0])
    vel_full[0] = vel_full[1]
    np.testing.assert_allclose(block[0, :, 0], vel_full[[3, 7, 11]])


def test_imu_constant_velocity_exact():
    # rho ~ 1, no drive: velocity channel reads back the slope, acceleration
    # channel vanishes, independent of where samples land.
    params = MobilityParams(a_avg=0.0, rho=1 - 1e-12, drive_var=0.0, dt=125e-6)
    traj = generate_trajectory(
        params, 2, 320, np.random.default_rng(3), init_aoa=-0.5, init_velocity=10.0
    )
    block = synthesize_imu(traj, 4, 160, np.inf, np.random.default_rng(0))
    np.testing.assert_allclose(block[:, :, :4], 10.0, rtol=1e-6)
    np.testing.assert_allclose(block[:, :, 4:], 0.0, atol=1e-3)


def test_imu_noise_variance_matches_episode_power():
    # Noise std per path and channel type is sqrt(mean square * 10^(-snr/10)).
    params = MobilityParams(a_avg=0.0, rho=1 - 1e-12, drive_var=0.0, dt=125e-6)
    traj = generate_trajectory(
        params, 1, 8000, np.random.default_rng(1), init_aoa=0.0, init_velocity=25.0
    )
    clean = synthesize_imu(traj, 2, 4, np.inf, np.random.default_rng(0))
    noisy = synthesize_imu(traj, 2, 4, 0.0, np.random.default_rng(2))
    resid = noisy[:, :, :2] - clean[:, :, :2]
    power = np.mean(clean[:, :, :2] ** 2)
    assert resid.var() == pytest.approx(power, rel=0.1)


def test_imu_determinism_and_divisibility():
    params = MobilityParams(a_avg=0.2 * np.pi)
    traj = generate_trajectory(params, 2, 640, np.random.default_rng(8))
    a = synthesize_imu(traj, 4, 160, 5.0, np.random.default_rng(77))
    b = synthesize_imu(traj, 4, 160, 5.0, np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        synthesize_imu(traj, 3, 160, 5.0, np.random.default_rng(0))


@pytest.mark.parametrize("a_avg", [0.2 * np.pi, 0.4 * np.pi])
@pytest.mark.parametrize("seed", range(5))
def test_matches_per_slot_recursion_at_walking_rates(a_avg, seed):
    # Long enough for full-size chunks and several reflections per path.
    _assert_matches_per_slot(MobilityParams(a_avg=a_avg), 3, 30_000, seed)


@settings(max_examples=150, deadline=None)
# Two ballistic draws that once drifted past PER_SLOT_ATOL. The first reflects
# every slot (3.2e-10 while a chunk's first slot was summed as (pull + w) +
# rho * v); the second every few slots (3.8e-10 while each pass multiplied by
# a rounded rho^s, whose rounding biased every slot the same way).
@example(
    rho=1.0 - 1e-12, a_avg=846.9044610470237, dt=125e-6, drive_var=5.097965350715966,
    init_aoa=0.0, init_velocity=42320.020057283225, num_paths=1, num_slots=8175, seed=13584592,
)
@example(
    rho=0.9999999926560614, a_avg=-3000.0, dt=125e-6, drive_var=2.3630718081431423,
    init_aoa=-0.8460182511715824, init_velocity=-5169.533715454578, num_paths=1,
    num_slots=8175, seed=3395993787,
)
@given(
    rho=st.floats(0.0, 1.0 - 1e-12),
    a_avg=st.floats(-3000.0, 3000.0),
    dt=st.sampled_from([1e-9, 1e-6, 125e-6, 1e-3]),
    drive_var=st.floats(0.0, 10.0),
    init_aoa=st.none() | st.floats(-1.0, 1.0),
    init_velocity=st.none() | st.floats(-1e5, 1e5),
    num_paths=st.integers(1, 3),
    num_slots=st.sampled_from([1, 2, 100] + _chunk_boundaries()),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_per_slot_recursion_property(
    rho, a_avg, dt, drive_var, init_aoa, init_velocity, num_paths, num_slots, seed
):
    # Covers ballistic motion that reflects every few slots (or several times
    # within one slot) as well as chunk ends falling on and next to num_slots.
    params = MobilityParams(a_avg=a_avg, rho=rho, drive_var=drive_var, dt=dt)
    _assert_matches_per_slot(
        params, num_paths, num_slots, seed, init_aoa=init_aoa, init_velocity=init_velocity
    )


def _ar1_loop(x, rho, v):
    """Reference for the scan: v_n = rho * v_{n-1} + x_n, one float at a time."""
    out = []
    for w in x.tolist():
        v = rho * v + w
        out.append(v)
    return np.array(out)


def test_scan_one_and_two_slots_by_hand():
    # The first slot follows the per-slot order. With rho = 3/4 a block holds
    # two slots (rho^2 >= 1/2 > rho^4), so the second slot is the running sum
    # y0 + rho^-1 * x1 scaled back by rho, each scaling y + (rho^k - 1) * y
    # with its offset from expm1.
    w = np.array([0.3, -1.7])
    pull, rho, v = 0.1, 0.75, 2.5
    y0 = pull + rho * v + 0.3
    assert mobility._ar1_scan(w[:1], pull, rho, v).tolist() == [y0]
    up, down = np.expm1(-np.log1p(rho - 1.0)), np.expm1(np.log1p(rho - 1.0))
    x1 = -1.7 + pull
    total = y0 + (x1 + up * x1)
    got = mobility._ar1_scan(w, pull, rho, v)
    assert got.tolist() == [y0, total + down * total]
    assert got[1] == pytest.approx(x1 + rho * y0, rel=0.0, abs=8 * np.finfo(float).eps)
    assert w.tolist() == [0.3, -1.7]  # the chunk's drive is left as it was


@pytest.mark.parametrize("rho, block", [
    (0.0, 1), (0.7, 1), (0.75, 2), (0.9, 4), (mobility.DEFAULT_RHO, 4096), (1.0 - 1e-12, 4096),
])
def test_scan_blocks_are_the_largest_power_of_two_with_rho_to_it_at_least_half(rho, block):
    # Capped at _MAX_CHUNK, the longest chunk; with rho^2 < 1/2 every block is
    # one slot and the doubling scan at rho does all the work.
    b, up, down = mobility._scan_blocks(rho)
    assert b == block
    if b > 1:
        k = np.arange(b + 1)
        np.testing.assert_allclose(up + 1.0, rho ** -k.astype(float), rtol=1e-13)
        np.testing.assert_allclose(down + 1.0, rho ** k.astype(float), rtol=1e-13)
        assert up[0] == down[0] == 0.0


def test_scan_without_memory_returns_the_drive():
    x = np.random.default_rng(4).normal(size=1000)
    assert np.array_equal(mobility._ar1_scan(x, 0.0, 0.0, 123.0), x)


@pytest.mark.parametrize("seed", range(3))
def test_trajectory_without_memory_equals_the_per_slot_recursion(seed):
    # With rho = 0 each velocity is pull + w in either order, so the scan and
    # the per-slot recursion round identically.
    params = MobilityParams(a_avg=0.4 * np.pi, rho=0.0, drive_var=2.0, dt=125e-6)
    fast = generate_trajectory(params, 2, 9000, np.random.default_rng(seed))
    slow = per_slot_trajectory(params, 2, 9000, np.random.default_rng(seed))
    np.testing.assert_array_equal(fast.aoa, slow.aoa)


def _scanned_chunks(monkeypatch):
    """The slot count of every chunk `_ar1_scan` runs from here on."""
    sizes = []
    real = mobility._ar1_scan

    def recording(w, *args):
        sizes.append(w.size)
        return real(w, *args)

    monkeypatch.setattr(mobility, "_ar1_scan", recording)
    return sizes


def test_a_chunk_after_a_reflection_spans_the_last_gap(monkeypatch):
    # Constant 0.0099 per slot from 0: the angle leaves [-1, 1] at slots 101,
    # 303 and 505, so the reflections lie 102, 202 and 202 slots apart. The
    # chunks double from 16 while nothing reflects; after a reflection the
    # next one spans that gap rounded up to a power of two (128, then 256),
    # where it used to restart at 16.
    sizes = _scanned_chunks(monkeypatch)
    params = MobilityParams(a_avg=0.0, rho=1 - 1e-12, drive_var=0.0, dt=125e-6)
    traj = generate_trajectory(
        params, 1, 700, np.random.default_rng(0), init_aoa=0.0, init_velocity=0.0099 / 125e-6
    )
    turns = np.flatnonzero(np.diff(np.sign(np.diff(traj.aoa[0])))) + 2
    assert turns.tolist() == [101, 303, 505]  # the reflecting slots
    assert sizes == [16, 32, 64, 128, 256, 256, 700 - 506]


def test_the_slow_calibration_probe_takes_few_chunks(monkeypatch):
    # 0.2 pi at t_csi 320 is the longest probe of a sweep: 1,334 chunks when
    # every reflection restarted the chunks at 16 slots.
    sizes = _scanned_chunks(monkeypatch)
    calibrate_process_noise(MobilityParams(a_avg=0.2 * np.pi), 320)
    assert len(sizes) <= 600
    assert sum(sizes) >= 3 * 2000 * 320


def _scanned_per_kept(monkeypatch, params, num_paths, num_slots, seed):
    sizes = _scanned_chunks(monkeypatch)
    generate_trajectory(params, num_paths, num_slots, np.random.default_rng(seed))
    ratio = sum(sizes) / (num_paths * num_slots)
    monkeypatch.undo()
    return ratio


@pytest.mark.parametrize("a_avg", [0.2 * np.pi, 0.4 * np.pi, 40.0])
def test_chunks_scan_few_slots_that_a_reflection_discards(monkeypatch, a_avg):
    # Slots scanned over slots kept: at most 1.6 at walking rates and at
    # 40 per second, where reflections come hundreds of slots apart.
    for seed in range(3):
        assert _scanned_per_kept(monkeypatch, MobilityParams(a_avg=a_avg), 3, 30_000, seed) <= 1.6


@pytest.mark.parametrize("params, seed", [
    (MobilityParams(a_avg=846.9044610470237, rho=1.0 - 1e-12, drive_var=5.097965350715966), 13584592),
    (MobilityParams(a_avg=-3000.0, rho=0.9999999926560614, drive_var=2.3630718081431423), 3395993787),
])
def test_ballistic_chunks_scan_no_more_than_when_they_restarted_small(monkeypatch, params, seed):
    # The two ballistic draws of the property test, their initial state drawn
    # from the seed: 2.48 and 3.03 slots scanned per slot kept when every
    # reflection restarted the chunks at 16 slots.
    assert _scanned_per_kept(monkeypatch, params, 1, 8175, seed) <= 3.1


_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e5, -1e5, 1e300, -1e300])


@settings(max_examples=200, deadline=None)
@given(
    rho=st.floats(0.0, 1.0 - 1e-12),
    length=st.integers(1, 5000),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    v0=_EXTREME | st.floats(-1e300, 1e300),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_matches_the_float_loop(rho, length, scale, v0, seed):
    # Bound: both sides carry a relative error of at most about length * eps
    # of the sum of term magnitudes, plus one subnormal ulp of the largest
    # partial sum per pass once rho's powers underflow.
    x = scale * np.random.default_rng(seed).normal(size=length)
    got = mobility._ar1_scan(x, 0.0, rho, v0)
    want = _ar1_loop(x, rho, v0)
    magnitude = _ar1_loop(np.abs(x), rho, abs(v0))
    info = np.finfo(np.float64)
    tol = 4 * (length + 1) * (info.eps * magnitude + info.smallest_subnormal * (magnitude.max() + 1))
    assert np.all(np.abs(got - want) <= tol)
