"""Outputs pinned against committed golden files: the tracker traces of the
golden episodes (see golden_episodes.py) and the `plot-data` figure CSVs."""

import numpy as np

from beamtrack.cli import main
from golden_episodes import GOLDEN_PATH, PLOT_DATA_ARGS, PLOT_DATA_GOLDEN, run_cases


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
