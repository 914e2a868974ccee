"""Tracker outputs pinned against the golden episodes (see golden_episodes.py)."""

import numpy as np

from golden_episodes import GOLDEN_PATH, run_cases


def test_tracker_outputs_match_the_golden_episodes():
    golden = np.load(GOLDEN_PATH)
    got = run_cases()
    assert np.array_equal(got["nmse_db"], golden["nmse_db"])
    assert np.array_equal(got["aoa_error"], golden["aoa_error"])
    assert np.max(np.abs(got["ber"] - golden["ber"])) <= 1e-12
