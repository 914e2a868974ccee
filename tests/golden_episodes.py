"""Golden outputs: fixed episodes whose per-cycle traces are pinned, and the
`plot-data` figure CSVs.

The episode cases are every variant x 3 seeds x 40 cycles at two operating
points. The proposed variants use a model built deterministically here
(fixed-seed initialisation and fixed normalisation constants, no training),
so the file depends on nothing outside this module and the package. The
CSVs are what `beamtrack plot-data` writes with PLOT_DATA_ARGS, which use
the reference checkpoint in perfbench/.

    PYTHONPATH=src python tests/golden_episodes.py

rewrites both, tests/data/golden_episodes.npz and tests/data/plot_data_golden/,
from the package on the path. tests/test_golden.py asserts that the current
package still produces them (NMSE and angle errors bit for bit, BER to
1e-12, CSVs byte for byte). Both were last written when the mobility
model's angle stream came to size each chunk from the last gap between
reflections and to run the AR(1) velocity as a scaled running sum per
block. The true angles moved in their last bits (they stay within 1e-10 of
the per-slot recursion), and the trackers' trajectories carry that further:
the proposed variants by at most 3.1e-7 dB of NMSE, the EKF by 7.7e-9 dB,
and the LMS baseline, whose estimates leave [-1, 1], by up to 3.4 dB; the
genie's NMSE did not move. Bit-identity holds on the NumPy/OpenBLAS build
the files were written with; a different BLAS build may legitimately round
differently.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from beamtrack import cli
from beamtrack.harness import VARIANTS, SimConfig, run_episode
from beamtrack.predictor import NormStats, PredictorModel, build_model
from beamtrack.trackers import calibrate_process_noise

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "data" / "golden_episodes.npz"
PLOT_DATA_GOLDEN = ROOT / "tests" / "data" / "plot_data_golden"
PLOT_DATA_ARGS = [
    "plot-data", "--trials", "1", "--num-cycles", "10", "--master-seed", "12345",
    "--checkpoint", str(ROOT / "perfbench" / "reference.ckpt"),
]

SETTINGS = (
    dict(snr_db=9.0, a_avg=0.4 * np.pi, t_csi=160),
    dict(snr_db=3.0, a_avg=0.1 * np.pi, t_csi=40),
)
SEEDS = (11, 22, 33)
NUM_CYCLES = 40


def golden_model() -> PredictorModel:
    """An untrained predictor with fixed weights and normalisation."""
    model = build_model(np.random.default_rng(2021))
    dim = model.input_dim
    model.norm = NormStats(
        input_mean=np.zeros(dim),
        input_std=np.full(dim, 0.5),
        target_mean=np.zeros(1),
        target_std=np.full(1, 0.01),
    )
    model.prediction_var = np.array([1e-4])
    return model


def run_cases(model: PredictorModel | None = None) -> dict[str, np.ndarray]:
    """Traces shaped (setting, variant, seed, ...) for every golden case."""
    model = golden_model() if model is None else model
    shape = (len(SETTINGS), len(VARIANTS), len(SEEDS))
    nmse = np.empty(shape + (NUM_CYCLES,))
    ber = np.empty(shape + (NUM_CYCLES,))
    err = None
    for s, setting in enumerate(SETTINGS):
        base = SimConfig(num_cycles=NUM_CYCLES, **setting)
        process_noise = calibrate_process_noise(
            base.mobility_params(), base.t_csi, num_paths=base.num_paths
        )
        for v, variant in enumerate(VARIANTS):
            for k, seed in enumerate(SEEDS):
                cfg = replace(base, variant=variant, seed=seed)
                result = run_episode(
                    cfg,
                    model=model if variant.startswith("proposed") else None,
                    process_noise=process_noise,
                )
                if err is None:
                    err = np.empty(shape + result.aoa_error.shape)
                nmse[s, v, k] = result.nmse_db
                ber[s, v, k] = result.ber
                err[s, v, k] = result.aoa_error
    return {"nmse_db": nmse, "aoa_error": err, "ber": ber}


def main() -> int:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, **run_cases())
    print(f"wrote {GOLDEN_PATH}")
    shutil.rmtree(PLOT_DATA_GOLDEN, ignore_errors=True)
    return cli.main(PLOT_DATA_ARGS + ["--out-dir", str(PLOT_DATA_GOLDEN)])


if __name__ == "__main__":
    sys.exit(main())
