"""Outputs pinned against committed golden files: the tracker traces of the
golden episodes (see golden_episodes.py) and the `plot-data` figure CSVs."""

from pathlib import Path

import numpy as np

from beamtrack.cli import main
from golden_episodes import GOLDEN_PATH, run_cases

ROOT = Path(__file__).resolve().parents[1]
# Written by `beamtrack plot-data` with PLOT_DATA_ARGS from the commit before
# sweeps ran every point of a variant as one batch.
PLOT_DATA_GOLDEN = ROOT / "tests" / "data" / "plot_data_golden"
PLOT_DATA_ARGS = [
    "plot-data", "--trials", "1", "--num-cycles", "10", "--master-seed", "12345",
    "--checkpoint", str(ROOT / "perfbench" / "reference.ckpt"),
]


def test_tracker_outputs_match_the_golden_episodes():
    golden = np.load(GOLDEN_PATH)
    got = run_cases()
    assert np.array_equal(got["nmse_db"], golden["nmse_db"])
    assert np.array_equal(got["aoa_error"], golden["aoa_error"])
    assert np.max(np.abs(got["ber"] - golden["ber"])) <= 1e-12


def test_plot_data_writes_the_golden_csvs_byte_for_byte(tmp_path, capsys):
    assert main(PLOT_DATA_ARGS + ["--out-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in PLOT_DATA_GOLDEN.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (PLOT_DATA_GOLDEN / name).read_bytes(), name
