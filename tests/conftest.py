import numpy as np
import pytest

from beamtrack.arrays import ArrayGeometry, make_codebook

# One line per acceptance check, printed after the run so the verdicts are
# visible even when pytest captures per-test stdout.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def geom32():
    return ArrayGeometry(32)


@pytest.fixture
def codebook64():
    return make_codebook(64)


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def count_calls(monkeypatch):
    """install(module, name[, calls]) wraps module.name for this test and
    returns the list that receives each call's positional arguments."""

    def install(module, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(module, name)

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install
