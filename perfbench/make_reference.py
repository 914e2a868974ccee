"""Rebuild the reference checkpoint that the `track` and `sweep` workloads load.

The recipe is the acceptance suite's inertial model: the estimate-noise
table from `calibrate_estimate_noise` at t_csi 40, 100 cycles, SNR grid
6/9/12/15 dB and 2 episodes per point; 100k training windows from dataset
seed 2024; model seed 7; the default 30-epoch schedule.

    python3 perfbench/make_reference.py [--out PATH]

Prints the file's SHA-256. The arithmetic is deterministic on one machine,
but another BLAS build rounds differently, so the file it writes there
differs slightly from the committed one.
"""

import argparse
import hashlib
import time

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

from beamtrack import harness, predictor  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(bootstrap.REFERENCE_CHECKPOINT))
    args = parser.parse_args()

    start = time.perf_counter()
    table = harness.calibrate_estimate_noise(
        harness.SimConfig(t_csi=40, num_cycles=100, seed=0), (6.0, 9.0, 12.0, 15.0),
        episodes_per_point=2,
    )
    data = predictor.generate_dataset(
        predictor.DatasetConfig(num_windows=100_000, include_imu=True), table,
        np.random.default_rng(2024),
    )
    model = predictor.build_model(np.random.default_rng(7))
    model, losses = predictor.train(model, data, predictor.TrainConfig())
    predictor.save_checkpoint(model, args.out)

    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"noise table std {table.estimate_std.tolist()}")
    print(f"loss {losses[0]:.5g} -> {losses[-1]:.5g} over {len(losses)} epochs")
    print(f"wrote {args.out} in {time.perf_counter() - start:.1f} s, sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
