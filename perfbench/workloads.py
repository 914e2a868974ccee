"""The three workloads: set-up, one timed round, and the checks on outputs.

Every input a workload passes to beamtrack (episode seeds, sweep master
seeds, calibration and training seeds, the beliefs handed to beam selection)
is derived from the run's `--seed` and the round number, so one seed always
gives the same inputs. A round is a fixed list of operations; a run repeats
whole rounds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import traceback
from dataclasses import replace
from statistics import median

import numpy as np

from beamtrack import cli, harness, predictor, trackers
from beamtrack.arrays import ArrayGeometry, make_codebook
from beamtrack.beamctl import select_sounding
from beamtrack.filtering import GaussianBelief

from bootstrap import OUT_DIR, REFERENCE_CHECKPOINT
from speed import Meter

# SHA-256 of reference.ckpt as written by make_reference.py on the machine
# described in README.md.
REFERENCE_SHA256 = "08a1551d02b50751339e08f7c22ad0dee1004a2f34c8a24fb72876f2e5b77c8d"


def derived_seed(seed: int, *tags) -> int:
    """A 63-bit seed that depends only on the run seed and the tags."""
    text = "|".join(str(t) for t in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def load_reference() -> predictor.PredictorModel:
    with open(REFERENCE_CHECKPOINT, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != REFERENCE_SHA256:
        raise RuntimeError(f"{REFERENCE_CHECKPOINT} has sha256 {digest}, expected {REFERENCE_SHA256}")
    return predictor.load_checkpoint(REFERENCE_CHECKPOINT)


def measured(meter: Meter, spans: list[tuple]) -> list[tuple[float, float]]:
    """(wall seconds, cost in ref) of each (start mark, end mark) taken while
    the meter ran; marks taken outside it (traced rounds) are None and skipped."""
    return [meter.between(a, b) for a, b in spans if a is not None]


def timing_lines(meter: Meter, name: str, spans: list[tuple]) -> list[tuple[str, float, str]]:
    """Median wall time and median reference-normalised cost of an operation."""
    samples = measured(meter, spans)
    return [
        (f"{name}_s", median(busy for busy, _ in samples), "s"),
        (f"{name}_cost", median(cost for _, cost in samples), "ref"),
    ]


def attempt(op, *args, **kwargs):
    """(result, 0) or, when the operation raises, (None, 1) after printing it."""
    try:
        return op(*args, **kwargs), 0
    except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
        traceback.print_exc()
        return None, 1


# --------------------------------------------------------------------------
# track: paired 200-cycle episodes at the acceptance check-6 point.

TRACK_POINT = dict(snr_db=9.0, a_avg=0.4 * math.pi, t_csi=160, num_cycles=200)
TRACK_VARIANTS = ("proposed_csi_imu", "ekf", "lms", "genie")
NMSE_FLOOR_DB = -100.0
# Mean NMSE gap (EKF minus learned tracker) the run's seeds must show. The
# acceptance suite asks for 3 dB over 50 episodes; a run has far fewer.
TRACK_MARGIN_DB = 1.0
SELECTION_BELIEFS = 16


class Track:
    """Paired episodes of four variants; the process noise is calibrated in set-up."""

    setup_repeats = 5

    def __init__(self, seed: int, meter: Meter):
        self.seed = seed
        self.meter = meter
        self.rounds: list[dict] = []
        self.episode = {variant: [] for variant in TRACK_VARIANTS}  # (start, end) meter marks

    def setup(self) -> None:
        self.model = load_reference()
        base = harness.SimConfig(**TRACK_POINT)
        self.process_noise = trackers.calibrate_process_noise(
            base.mobility_params(), base.t_csi, num_paths=base.num_paths
        )

    def _episode(self, variant: str, k: int):
        cfg = harness.SimConfig(
            variant=variant, seed=derived_seed(self.seed, "track", k), **TRACK_POINT
        )
        model = self.model if variant.startswith("proposed") else None
        return harness.run_episode(cfg, model=model, process_noise=self.process_noise)

    def run_round(self, k: int) -> tuple[int, int]:
        results, failed = {}, 0
        start = self.meter.mark()
        for variant in TRACK_VARIANTS:
            result, bad = attempt(self._episode, variant, k)
            end = self.meter.mark()
            self.episode[variant].append((start, end))
            start = end
            failed += bad
            if result is not None:
                results[variant] = result
        self.rounds.append(results)
        return len(TRACK_VARIANTS), failed

    def breakdown(self) -> list[tuple[str, float, str]]:
        return [line for v in TRACK_VARIANTS
                for line in timing_lines(self.meter, f"episode.{v}", self.episode[v])]

    def check(self) -> list[str]:
        problems = []
        gaps = []
        for k, results in enumerate(self.rounds):
            for variant, r in results.items():
                if not np.all(np.isfinite(r.nmse_db)):
                    problems.append(f"round {k} {variant}: non-finite NMSE")
                if not np.all((r.ber >= 0.0) & (r.ber <= 0.5)):
                    problems.append(f"round {k} {variant}: BER outside [0, 0.5]")
            genie = results.get("genie")
            if genie is not None and not (
                np.all(genie.nmse_db == NMSE_FLOOR_DB) and np.all(genie.aoa_error == 0.0)
            ):
                problems.append(f"round {k}: genie is off the NMSE floor or has angle error")
            if "proposed_csi_imu" in results and "ekf" in results:
                gaps.append(results["ekf"].mean_nmse_db - results["proposed_csi_imu"].mean_nmse_db)
        if gaps and np.mean(gaps) < TRACK_MARGIN_DB:
            problems.append(
                f"learned tracker beats the EKF by {np.mean(gaps):.2f} dB on average, "
                f"below the {TRACK_MARGIN_DB} dB margin"
            )
        for variant, first in self.rounds[0].items():
            again = self._episode(variant, 0)
            if not (np.array_equal(first.nmse_db, again.nmse_db)
                    and np.array_equal(first.ber, again.ber)
                    and np.array_equal(first.aoa_error, again.aoa_error)):
                problems.append(f"{variant}: re-running round 0 does not reproduce it bit for bit")
        problems += check_selection(self.seed)
        return problems

    def close(self) -> None:
        pass


def _steering(n: int, thetas: np.ndarray) -> np.ndarray:
    """Columns exp(j*pi*k*theta)/sqrt(n): half-wavelength ULA steering vectors."""
    k = np.arange(n)[:, None]
    return np.exp(1j * np.pi * k * np.asarray(thetas)[None, :]) / np.sqrt(n)


def check_selection(seed: int) -> list[str]:
    """select_sounding's receive pair against a brute-force argmin of trace(J^-1).

    J = P^-1 + (2/sigma^2) Re(O^H O), where O holds the derivatives of the
    pilots w_j^H H f_i in each path's arrival angle, built here from explicit
    steering vectors and their element-index derivatives.
    """
    cfg = harness.SimConfig(**TRACK_POINT)
    n_rx, n_tx, size = cfg.n_m, cfg.n_b, cfg.codebook_size
    geom_rx, geom_tx = ArrayGeometry(n_rx), ArrayGeometry(n_tx)
    codebook = make_codebook(size)
    angles = -1.0 + (2.0 * np.arange(size) + 1.0) / size
    noise_var = 10.0 ** (-cfg.snr_db / 10.0)
    j1, j2 = np.triu_indices(size, k=1)  # lexicographic pair order
    rng = np.random.default_rng(derived_seed(seed, "selection"))
    problems = []
    for b in range(SELECTION_BELIEFS):
        num_paths = cfg.num_paths
        gains = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, num_paths))
        known_aod = rng.uniform(-0.8, 0.8)
        aods = known_aod + rng.uniform(-1.0 / size, 1.0 / size, num_paths)
        means = rng.uniform(-0.8, 0.8, num_paths)
        cov = np.diag(10.0 ** rng.uniform(-6.0, -3.0, num_paths))
        belief = GaussianBelief(means, cov)
        chosen = select_sounding(
            belief, codebook, gains, noise_var, geom_rx, geom_tx,
            mode="aoa_only", known_aod=known_aod, aods=aods,
        )

        tx = np.sort(np.argsort(np.abs(angles - known_aod), kind="stable")[:2])
        f = _steering(n_tx, angles[tx])  # (n_tx, 2)
        w = _steering(n_rx, angles)  # (n_rx, size)
        a_r = _steering(n_rx, means)
        da_r = 1j * np.pi * np.arange(n_rx)[:, None] * a_r  # d a_r / d theta
        rx_part = w.conj().T @ da_r  # (size, L): w_j^H da_r(theta_l)
        tx_part = _steering(n_tx, aods).conj().T @ f  # (L, 2): a_t(aod_l)^H f_i
        # o[j, i, l] = d/d theta_l of w_j^H H f_i
        o = gains[None, None, :] * rx_part[:, None, :] * tx_part.T[None, :, :]
        pair = np.concatenate([o[j1], o[j2]], axis=1)  # (pairs, 4, L)
        gram = np.einsum("pml,pmn->pln", pair.conj(), pair).real
        info = np.linalg.inv(cov)[None] + (2.0 / noise_var) * gram
        traces = np.trace(np.linalg.inv(info), axis1=1, axis2=2)
        best = int(np.argmin(traces))
        picked = np.flatnonzero((j1 == chosen.rx_indices[0]) & (j2 == chosen.rx_indices[1]))
        if not np.array_equal(chosen.tx_indices, tx):
            problems.append(f"belief {b}: transmit beams {chosen.tx_indices} != nearest {tx}")
        elif picked.size != 1 or traces[picked[0]] > traces[best] * (1.0 + 1e-9):
            problems.append(
                f"belief {b}: receive pair {chosen.rx_indices} is not the argmin "
                f"({j1[best]}, {j2[best]}) of trace(J^-1)"
            )
    return problems


# --------------------------------------------------------------------------
# sweep: `beamtrack plot-data` in-process through cli.main.

SWEEP_CYCLES = 25
SWEEP_VARIANTS = ("proposed_csi_imu", "proposed_csi", "ekf", "lms")  # plot-data's default
SWEEP_AXES = {
    "snr_db": (3.0, 6.0, 9.0, 12.0, 15.0),
    "t_csi": (40, 80, 160, 320),
    "a_avg": (0.1 * math.pi, 0.2 * math.pi, 0.4 * math.pi),
}
SWEEP_FIGURES = {
    "nmse_vs_snr.csv": ("snr_db", "mean_nmse_db"),
    "ber_vs_snr.csv": ("snr_db", "mean_ber"),
    "nmse_vs_t_csi.csv": ("t_csi", "mean_nmse_db"),
    "nmse_vs_a_avg.csv": ("a_avg", "mean_nmse_db"),
}
SWEEP_CELLS = sum(len(v) for v in SWEEP_AXES.values()) * len(SWEEP_VARIANTS)
# The sweeps' base configuration. Every axis has a point with its mobility
# (a_avg 0.2pi, t_csi 160), so one process-noise calibration in set-up serves
# the cell check() re-runs.
SWEEP_BASE = harness.SimConfig(num_cycles=SWEEP_CYCLES)


class Sweep:
    """The default figure sweeps, one trial, short episodes; one CLI call per round."""

    setup_repeats = 5

    def __init__(self, seed: int, meter: Meter):
        self.seed = seed
        self.meter = meter
        self.out = OUT_DIR / f"sweep-{seed}"
        self.rounds: list[tuple[int, int, object, str]] = []  # (round, master seed, exit code, stdout)
        self.sweep: list[tuple] = []  # (start, end) meter marks

    def setup(self) -> None:
        """Load the reference model, calibrate the base configuration's
        process noise, and draw the cell that check() re-runs."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.model = load_reference()
        self.base_noise = trackers.calibrate_process_noise(
            SWEEP_BASE.mobility_params(), SWEEP_BASE.t_csi, num_paths=SWEEP_BASE.num_paths
        )
        cells = [(axis, value) for axis, values in SWEEP_AXES.items() for value in values
                 if axis == "snr_db" or value == getattr(SWEEP_BASE, axis)]
        rng = np.random.default_rng(derived_seed(self.seed, "sweep-cell"))
        axis, value = cells[rng.integers(len(cells))]
        self.cell = (axis, value, SWEEP_VARIANTS[rng.integers(len(SWEEP_VARIANTS))])

    def run_round(self, k: int) -> tuple[int, int]:
        master = derived_seed(self.seed, "sweep", k)
        argv = [
            "plot-data", "--checkpoint", str(REFERENCE_CHECKPOINT), "--trials", "1",
            "--num-cycles", str(SWEEP_CYCLES), "--master-seed", str(master),
            "--out-dir", str(self.out / f"round{k}"),
        ]
        stdout = io.StringIO()
        start = self.meter.mark()
        with contextlib.redirect_stdout(stdout):
            code, failed = attempt(cli.main, argv)
        self.sweep.append((start, self.meter.mark()))
        self.rounds.append((k, master, code, stdout.getvalue()))
        if failed:
            return SWEEP_CELLS, SWEEP_CELLS
        # With one trial a cell's figure entry is empty exactly when its
        # episode failed (status "error" in run_sweep).
        empty = sum(
            1 for fname, (axis, metric) in SWEEP_FIGURES.items() if metric == "mean_nmse_db"
            for row in self._read(k, fname) if row[metric] == ""
        )
        return SWEEP_CELLS, empty

    def _read(self, k: int, fname: str) -> list[dict]:
        with open(self.out / f"round{k}" / fname, newline="") as fh:
            return list(csv.DictReader(fh))

    def breakdown(self) -> list[tuple[str, float, str]]:
        return timing_lines(self.meter, "sweep", self.sweep)

    def check(self) -> list[str]:
        problems = []
        for k, master, code, stdout in self.rounds:
            if code != 0:
                problems.append(f"round {k}: plot-data exited with {code}")
                continue
            written = sorted(line.split("/")[-1] for line in stdout.splitlines()
                             if line.startswith("wrote "))
            if written != sorted(SWEEP_FIGURES):
                problems.append(f"round {k}: plot-data reported {written}")
                continue
            for fname, (axis, metric) in SWEEP_FIGURES.items():
                rows = self._read(k, fname)
                expected = sorted((float(v), var) for v in SWEEP_AXES[axis] for var in SWEEP_VARIANTS)
                seen = sorted((float(r[axis]), r["variant"]) for r in rows)
                if seen != expected:
                    problems.append(f"round {k} {fname}: rows are not one per (value, variant)")
                for r in rows:
                    if r[metric] == "":
                        continue  # a failed cell, counted in `failed`
                    val = float(r[metric])
                    if not math.isfinite(val) or (metric == "mean_ber" and not 0.0 <= val <= 0.5):
                        problems.append(f"round {k} {fname}: bad value {r[metric]}")
        if self.rounds[0][2] == 0:
            problems += self._check_cell()
        return problems

    def _check_cell(self) -> list[str]:
        """Re-run the sampled cell of round 0 through run_episode."""
        axis, value, variant = self.cell
        seed = harness.episode_seed(self.rounds[0][1], axis, value, 0)
        cfg = replace(SWEEP_BASE, variant=variant, seed=seed, **{axis: value})
        model = self.model if variant.startswith("proposed") else None
        result = harness.run_episode(cfg, model=model, process_noise=self.base_noise)
        problems = []
        for fname, (fig_axis, metric) in SWEEP_FIGURES.items():
            if fig_axis != axis:
                continue
            row = [r for r in self._read(0, fname)
                   if float(r[axis]) == float(value) and r["variant"] == variant]
            want = getattr(result, metric)
            if len(row) != 1 or row[0][metric] == "" or float(row[0][metric]) != want:
                problems.append(f"{fname} {axis}={value} {variant}: CSV does not match "
                                f"a re-run of the cell ({want!r})")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# --------------------------------------------------------------------------
# model: noise calibration, dataset synthesis, training, checkpoint round trip.

MODEL_CALIBRATION = dict(t_csi=40, num_cycles=100, seed=0)  # acceptance fixture
MODEL_SNR_GRID = (6.0, 9.0, 12.0, 15.0)
MODEL_WINDOWS = 10_000
MODEL_EPOCHS = 3
# Training and held-out windows draw their estimate noise from this fixed
# log-linear table (the one the unit tests use), not from the round's
# calibrated table: calibrate_estimate_noise lets loss-of-lock excursions
# into its table on some seeds, and a model trained on such a table can lose
# to the zero-increment predictor (seed 9, round 4: 0.053 at 6 dB). The
# calibration is still timed and checked; generate_dataset's work does not
# depend on the table's values.
DATASET_TABLE = predictor.NoiseTable(snr_db=(0.0, 10.0, 20.0), estimate_std=(0.05, 0.01, 0.002))
# Held-out windows: another seed, and 40-cycle episodes (about 19 of them) so
# that many trajectories are scored.
HELD_OUT = predictor.DatasetConfig(num_windows=2_000, cycles_per_episode=40)


class Model:
    """calibrate_estimate_noise, generate_dataset, train, save/load per round."""

    setup_repeats = 5

    def __init__(self, seed: int, meter: Meter):
        self.seed = seed
        self.meter = meter
        self.out = OUT_DIR / f"model-{seed}"
        self.rounds: list[dict] = []
        self.stage = {"calibrate_noise": [], "datagen": [], "train": []}  # (start, end) meter marks

    def setup(self) -> None:
        """Verify the reference checkpoint, then run every stage once at a
        tiny size so that first-call costs are paid before timing."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        load_reference()
        rng = np.random.default_rng(derived_seed(self.seed, "warm-up"))
        harness.calibrate_estimate_noise(
            harness.SimConfig(t_csi=40, num_cycles=20, seed=0), (9.0,), episodes_per_point=1,
            master_seed=derived_seed(self.seed, "warm-up"),
        )
        data = predictor.generate_dataset(
            predictor.DatasetConfig(num_windows=500, t_csi_choices=(160,)), DATASET_TABLE, rng
        )
        model, _ = predictor.train(predictor.build_model(rng), data, predictor.TrainConfig(epochs=1))
        path = self.out / "warm-up.ckpt"
        predictor.save_checkpoint(model, path)
        predictor.load_checkpoint(path)

    def run_round(self, k: int) -> tuple[int, int]:
        out: dict = {"round": k}
        self.rounds.append(out)
        stages = (self._calibrate, self._datagen, self._train, self._round_trip)
        for n, stage in enumerate(stages):
            _, failed = attempt(stage, k, out)
            if failed:
                return len(stages), len(stages) - n
        return len(stages), 0

    def _timed(self, key, fn, *args, **kwargs):
        start = self.meter.mark()
        result = fn(*args, **kwargs)
        self.stage[key].append((start, self.meter.mark()))
        return result

    def _calibrate(self, k, out):
        out["table"] = self._timed(
            "calibrate_noise", harness.calibrate_estimate_noise,
            harness.SimConfig(**MODEL_CALIBRATION), MODEL_SNR_GRID, episodes_per_point=2,
            master_seed=derived_seed(self.seed, "model", k, "calibration"),
        )

    def _datagen(self, k, out):
        out["data"] = self._timed(
            "datagen", predictor.generate_dataset,
            predictor.DatasetConfig(num_windows=MODEL_WINDOWS), DATASET_TABLE,
            np.random.default_rng(derived_seed(self.seed, "model", k, "dataset")),
        )

    def _initial_model(self, k):
        return predictor.build_model(np.random.default_rng(derived_seed(self.seed, "model", k, "init")))

    def _train(self, k, out):
        model = self._initial_model(k)
        cfg = predictor.TrainConfig(epochs=MODEL_EPOCHS, seed=derived_seed(self.seed, "model", k, "shuffle"))
        out["model"], _ = self._timed("train", predictor.train, model, out.pop("data"), cfg)

    def _round_trip(self, k, out):
        path = self.out / f"round{k}.ckpt"
        predictor.save_checkpoint(out["model"], path)
        out["loaded"] = predictor.load_checkpoint(path)

    def breakdown(self) -> list[tuple[str, float, str]]:
        datagen_s = median(busy for busy, _ in measured(self.meter, self.stage["datagen"]))
        train_s = median(busy for busy, _ in measured(self.meter, self.stage["train"]))
        return [
            *timing_lines(self.meter, "calibrate_noise", self.stage["calibrate_noise"]),
            ("datagen.windows_per_s", MODEL_WINDOWS / datagen_s, "windows/s"),
            ("train.window_epochs_per_s", MODEL_WINDOWS * MODEL_EPOCHS / train_s, "windows*epochs/s"),
        ]

    @staticmethod
    def _predict_all(model, inputs) -> np.ndarray:
        return np.array([
            predictor.predict(model, predictor.InputWindow(x[:, :1], x[:, 1:]))[0] for x in inputs
        ])

    def check(self) -> list[str]:
        problems = []
        for out in self.rounds:
            k, table = out["round"], out.get("table")
            if table is not None and not (
                np.array_equal(table.snr_db, MODEL_SNR_GRID)
                and np.all(np.isfinite(table.estimate_std)) and np.all(table.estimate_std > 0)
            ):
                problems.append(f"round {k}: noise table is not positive on the grid: {table}")
            if "loaded" not in out:
                continue
            held_out = predictor.generate_dataset(
                HELD_OUT, DATASET_TABLE,
                np.random.default_rng(derived_seed(self.seed, "model", k, "held-out")),
            )
            inputs, truth = held_out.inputs, held_out.targets[:, 0]
            initial = self._initial_model(k)
            initial.norm = out["model"].norm
            pred = self._predict_all(out["model"], inputs)
            mse = {
                "trained model": float(np.mean((pred - truth) ** 2)),
                "zero-increment predictor": float(np.mean((inputs[:, -1, 0] - truth) ** 2)),
                "untrained model": float(np.mean((self._predict_all(initial, inputs) - truth) ** 2)),
            }
            for rival in ("zero-increment predictor", "untrained model"):
                if not mse["trained model"] < mse[rival]:
                    problems.append(f"round {k}: held-out MSE {mse} does not favour the trained model")
            if not np.array_equal(self._predict_all(out["loaded"], inputs), pred):
                problems.append(f"round {k}: reloaded checkpoint predicts differently")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {"track": Track, "sweep": Sweep, "model": Model}
