"""User mobility and inertial sensing.

The arrival angle of each path follows a first-order autoregressive angular
velocity integrated per slot:

    a_n     = (1 - rho) * a_avg + rho * a_{n-1} + w_n,   w_n ~ N(0, drive_var)
    theta_n = theta_{n-1} + dt * a_n

with theta reflected at +-1 to stay a valid sine-angle; a reflection also
negates the velocity so the motion stays continuous instead of pinning to the
boundary. For rho close to 1 the velocity is a slowly wandering process with
stationary variance drive_var / (1 - rho^2) around a_avg.

One private generator produces each path's angles as a stream of chunks of
at most a few thousand slots. `generate_trajectory` writes the chunks into
the trajectory array; a consumer that needs only some of the angles, such as
the process-noise calibration in `trackers`, keeps those and never holds the
trajectory. Apart from one path's drive noise, the stream's temporaries are
at most one chunk long. A chunk ends at its first reflection, and the next
chunk spans about as many slots as lay between the last two reflections.
Within a chunk the velocity recursion runs in NumPy, not slot by slot: as
a scaled running sum over blocks of slots, whose ends carry through a
doubling prefix scan. The random draws are those of the per-slot recursion
and each chunk's first slot is computed in its order; the later slots sum
the same terms in another grouping, so only their rounding differs.

The inertial block per cycle holds angular-velocity samples (first finite
difference of the angle over dt) and angular-acceleration samples (second
finite difference over dt^2), decimated within each cycle and corrupted by
additive Gaussian noise scaled to the per-channel signal power of the episode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RHO",
    "DEFAULT_DRIVE_VAR",
    "IMU_CHANNELS",
    "MobilityParams",
    "Trajectory",
    "generate_trajectory",
    "synthesize_imu",
]

DEFAULT_RHO = 0.9999
# Chosen so the stationary velocity variance drive_var / (1 - rho^2) is 0.2.
DEFAULT_DRIVE_VAR = 0.2 * (1.0 - DEFAULT_RHO**2)

IMU_CHANNELS = 2  # inertial channels: angular velocity and angular acceleration

# Chunk sizes of the angle stream, in slots. Reflections are thousands of
# slots apart at walking rates, so most slots run in full-size chunks; a
# small first chunk, and chunks sized from the last gap between reflections,
# keep fast ballistic motion, which reflects every few slots, from
# discarding a full chunk of recursion per reflection.
_FIRST_CHUNK = 16
_MAX_CHUNK = 4096


@dataclass(frozen=True)
class MobilityParams:
    """Angular mobility model parameters (sine-angle units per second)."""

    a_avg: float
    rho: float = DEFAULT_RHO
    drive_var: float = DEFAULT_DRIVE_VAR
    dt: float = 125e-6

    def __post_init__(self):
        # A NaN or infinite value makes every angle NaN or infinite; an
        # infinite angle never reflects back into [-1, 1].
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not np.isfinite(self.a_avg):
            raise ValueError(f"a_avg must be finite, got {self.a_avg}")
        if not 0.0 <= self.drive_var < np.inf:
            raise ValueError(f"drive_var must be finite and >= 0, got {self.drive_var}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")


@dataclass
class Trajectory:
    """Per-slot angle track for each path; sensors differentiate it."""

    aoa: np.ndarray  # (num_paths, num_slots)
    dt: float

    def __post_init__(self):
        self.aoa = np.asarray(self.aoa, dtype=np.float64)
        if self.aoa.ndim != 2:
            raise ValueError("aoa must have a (paths, slots) shape")

    @property
    def num_paths(self) -> int:
        return self.aoa.shape[0]

    @property
    def num_slots(self) -> int:
        return self.aoa.shape[1]


def _angle_chunks(
    params: MobilityParams,
    num_paths: int,
    num_slots: int,
    rng: np.random.Generator,
    init_aoa: np.ndarray | float | None = None,
    init_velocity: np.ndarray | float | None = None,
):
    """Each path's angles as a stream of (path, first slot, angles) chunks.

    Paths come one after the other and each path's chunks in slot order, so
    that writing every chunk at its path and first slot gives the whole
    trajectory. The initial state, the drive noise and the recursion are
    those of `generate_trajectory`, which documents them.
    """
    if num_paths < 1 or num_slots < 1:
        raise ValueError("num_paths and num_slots must be >= 1")
    if init_aoa is None:
        init_aoa = rng.uniform(-0.8, 0.8, size=num_paths)
    init_aoa = np.broadcast_to(np.asarray(init_aoa, dtype=np.float64), (num_paths,))
    if np.any(np.abs(init_aoa) > 1.0):
        raise ValueError("initial aoa must lie in [-1, 1]")
    if init_velocity is None:
        init_velocity = rng.normal(params.a_avg, np.sqrt(0.2), size=num_paths)
    init_velocity = np.broadcast_to(np.asarray(init_velocity, dtype=np.float64), (num_paths,))

    drive_std = np.sqrt(params.drive_var)
    pull = (1.0 - params.rho) * params.a_avg
    rho, dt = params.rho, params.dt

    for l in range(num_paths):
        drive = rng.normal(0.0, drive_std, size=num_slots)
        th = float(init_aoa[l])
        v = float(init_velocity[l])
        n, size, last = 0, _FIRST_CHUNK, 0  # last: the slot after the latest reflection
        while n < num_slots:
            m = min(n + size, num_slots)
            vs = _ar1_scan(drive[n:m], pull, rho, v)
            ang = vs * dt
            ang[0] += th
            np.cumsum(ang, out=ang)
            # max and min are NaN when any angle is, so NaN never reflects.
            bounced = ang.max() > 1.0 or ang.min() < -1.0
            end = int((np.abs(ang) > 1.0).argmax()) + 1 if bounced else m - n
            th, v = float(ang[end - 1]), float(vs[end - 1])
            while th > 1.0 or th < -1.0:
                th = 2.0 - th if th > 1.0 else -2.0 - th
                v = -v
            ang[end - 1] = th
            yield l, n, ang[:end]
            n += end
            if bounced:
                # The next reflection is likely about as far away as this one.
                size = min(max(1 << (n - last - 1).bit_length(), _FIRST_CHUNK), _MAX_CHUNK)
                last = n
            else:
                size = min(2 * size, _MAX_CHUNK)
        # Freed before the next path draws its drive, not after.
        del drive


def _ar1_scan(w: np.ndarray, pull: float, rho: float, v: float) -> np.ndarray:
    """The velocities v_n = pull + rho * v_{n-1} + w_n of one chunk, from the
    carried velocity v, as a new array.

    The first slot is computed as the per-slot recursion computes it; the
    rest come from x_n = pull + w_n, with x_0 replaced by that first
    velocity. The chunk is cut into blocks of b slots, b the largest power
    of two up to _MAX_CHUNK with rho^b >= 1/2 (`_scan_blocks`), and within a
    block, counting n from its start, v_n = rho^n * sum_{k <= n} rho^-k x_k
    is one running sum (`np.cumsum`) between two scalings (Kogge and Stone,
    IEEE Trans. Computers C-22(8), 1973). Each scaling adds y + (rho^k - 1) * y
    with the offset from `np.expm1`, rather than multiplying by a rounded
    rho^k: near rho = 1 that rounding would bias every slot the same way, and
    the angle would integrate the bias. The block ends then carry into the
    next blocks through a doubling scan at factor rho^b (`_doubling_scan`).
    When rho^2 < 1/2, b is 1 and the doubling scan at rho is the whole scan.
    The running sum's rounding error grows with the block length, as any
    running sum's does (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., 2002, ch. 4); rho^-k <= 2 keeps its terms within
    twice the per-slot recursion's.
    """
    y = w + pull
    y[0] = pull + rho * v + w[0]
    b, up, down = _scan_blocks(rho)
    if b == 1:
        _doubling_scan(y, rho, rho - 1.0)
        return y
    m = y.size
    num_blocks = -(-m // b)
    if num_blocks > 1 and m % b:
        y = np.concatenate((y, np.zeros(num_blocks * b - m)))
    blocks = y.reshape(num_blocks, -1)
    k = blocks.shape[1]
    blocks += up[:k] * blocks
    np.cumsum(blocks, axis=1, out=blocks)
    blocks += down[:k] * blocks
    if num_blocks > 1:
        carry = blocks[:-1, -1].copy()
        _doubling_scan(carry, rho**b, down[b])
        carry = carry[:, None]
        blocks[1:] += carry + down[1:] * carry
    return y[:m]


@functools.lru_cache(maxsize=8)
def _scan_blocks(rho: float) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """`_ar1_scan`'s block length b and its offsets rho^-k - 1 and rho^k - 1
    for k = 0..b, computed once per rho (None when b is 1)."""
    b = 1
    while 2 * b <= _MAX_CHUNK and rho ** (2 * b) >= 0.5:
        b *= 2
    if b == 1:
        return 1, None, None
    k = np.arange(b + 1) * np.log1p(rho - 1.0)
    up, down = np.expm1(-k), np.expm1(k)
    up.flags.writeable = down.flags.writeable = False
    return b, up, down


def _doubling_scan(y: np.ndarray, rho: float, d: float) -> None:
    """y_n <- sum_{k <= n} rho^k y_{n-k} in place, as a doubling
    (Hillis-Steele) prefix scan, given d = rho - 1 to full precision.

    After the pass with shift s, entry n holds sum_{k < 2s} rho^k y_{n-k},
    so m entries take ceil(log2 m) vectorized passes (Blelloch, "Prefix
    Sums and Their Applications", CMU-CS-90-190, 1990). While rho^s >= 1/2
    a pass adds y + (rho^s - 1) * y rather than rho^s * y, for the reason
    `_ar1_scan` gives.
    """
    s = 1  # d = rho^s - 1, kept apart from the 1 that rho^s would round into
    while s < y.size:
        r = rho**s
        if r < 0.5:
            t = r * y[:-s]
        else:
            t = d * y[:-s]
            t += y[:-s]
        y[s:] += t
        d *= 2.0 + d
        s *= 2


def generate_trajectory(
    params: MobilityParams,
    num_paths: int,
    num_slots: int,
    rng: np.random.Generator,
    init_aoa: np.ndarray | float | None = None,
    init_velocity: np.ndarray | float | None = None,
) -> Trajectory:
    """Simulate the reflected AR-velocity angle process for each path.

    Paths evolve independently from shared parameters. When not given,
    initial angles are drawn uniform on [-0.8, 0.8] and initial velocities
    from N(a_avg, 0.2), matching the stationary velocity spread.

    Each path is generated as a stream of chunks, which this function writes
    into the (num_paths, num_slots) array. The drive noise is drawn path by
    path, which takes the same numbers from the generator as one
    (num_paths, num_slots) draw. Within a chunk the velocities come from
    `_ar1_scan`, whose first slot is computed as the per-slot update
    v = pull + rho * v + w computes it, with pull = (1 - rho) * a_avg, so
    motion that reflects every slot matches a per-slot run bit for bit, as
    does any run with rho = 0. The later slots sum the same terms
    rho^k * (pull + w) grouped differently, so only their rounding changes:
    over 30,000 slots at walking rates the angles stayed within 6e-13 of a
    per-slot run, and over ballistic draws that reflect every few slots for
    8,000 slots within 2e-11. The angle is then the running sum of dt * v
    with the carried angle added to the first step (`np.cumsum` accumulates
    strictly left to right). At the chunk's first slot with |theta| > 1 the
    slots before it are kept, the reflection is applied there (negating the
    velocity), and the next chunk starts at the following slot. Chunks
    double from _FIRST_CHUNK to _MAX_CHUNK slots while no reflection
    occurs; after one, the next chunk spans the slots since the previous
    reflection (or the path's start), rounded up to a power of two within
    those bounds. The recursion discarded at each reflection thus stays
    proportional to the distance between reflections, and steady motion
    does not restart from small chunks after every reflection. Apart from
    one path's drive, the stream's temporaries are at most one chunk long.
    """
    aoa = np.empty((num_paths, num_slots))
    for l, n, chunk in _angle_chunks(params, num_paths, num_slots, rng, init_aoa, init_velocity):
        aoa[l, n : n + chunk.size] = chunk
    return Trajectory(aoa, params.dt)


def synthesize_imu(
    traj: Trajectory,
    samples_per_cycle: int,
    cycle_slots: int,
    snr_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Decimated, noisy velocity/acceleration blocks for each tracking cycle.

    Returns shape (num_paths, num_cycles, 2*samples_per_cycle): the first
    samples_per_cycle entries of a block are angular-velocity samples, the
    rest angular-acceleration samples. Sample slots are end-aligned inside
    each cycle (the last sample sits on the cycle's final slot), so the block
    for cycle c is fully available when cycle c+1 starts.

    The additive noise variance per channel is the decimated channel's mean
    square over the whole episode times 10^(-snr_db/10); referencing episode
    power keeps momentarily silent stretches from being noise-free. Channels
    that are identically zero stay noiseless.
    """
    if samples_per_cycle < 1:
        raise ValueError("samples_per_cycle must be >= 1")
    if cycle_slots % samples_per_cycle != 0:
        raise ValueError(
            f"cycle_slots ({cycle_slots}) must be divisible by samples_per_cycle "
            f"({samples_per_cycle})"
        )
    stride = cycle_slots // samples_per_cycle
    num_cycles = traj.num_slots // cycle_slots
    if num_cycles < 1:
        raise ValueError("trajectory shorter than one cycle")

    dt = traj.dt
    vel = np.empty_like(traj.aoa)
    vel[:, 1:] = np.diff(traj.aoa, axis=1) / dt
    vel[:, 0] = vel[:, 1]
    acc = np.empty_like(vel)
    acc[:, 1:] = np.diff(vel, axis=1) / dt
    acc[:, 0] = acc[:, 1]

    base = np.arange(num_cycles)[:, None] * cycle_slots
    idx = base + (np.arange(samples_per_cycle)[None, :] + 1) * stride - 1
    v_s = vel[:, idx]  # (paths, cycles, K)
    a_s = acc[:, idx]

    factor = 10.0 ** (-snr_db / 10.0)
    if factor > 0:
        for samples in (v_s, a_s):
            power = np.mean(samples**2, axis=(1, 2))  # per path
            std = np.sqrt(power * factor)
            samples += rng.standard_normal(samples.shape) * std[:, None, None]
    return np.concatenate([v_s, a_s], axis=-1)
