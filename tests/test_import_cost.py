"""What `import beamtrack` loads: the import is part of every run's peak RSS."""

import json
import os
import subprocess
import sys
from pathlib import Path

import beamtrack

PROBE = (
    "import json, sys; import beamtrack; "
    "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))"
)


def test_scipy_special_is_the_only_scipy_subpackage_imported():
    env = dict(os.environ, PYTHONPATH=str(Path(beamtrack.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    public = [name for name in json.loads(out) if not name.startswith("_")]
    # scipy.version and scipy.__config__ come with scipy itself.
    extra = sorted(set(public) - {"special", "version"})
    assert not extra, (
        f"import beamtrack loads the scipy subpackages {extra}. They are heavy: "
        "`from scipy.signal import lfilter` after `import beamtrack` loads 471 more "
        "modules (stats, sparse, optimize, ...) and raises the process RSS from 54.9 to "
        "103.5 MB (Python 3.11, SciPy 1.17), and a calibration that used it raised the "
        "sweep benchmark's peak_rss_mb from 87.8 to 136.0 MB. Weigh any new "
        "scipy import (scipy.signal.lfilter, scipy.optimize.isotonic_regression) "
        "against peak_rss_mb before it lands."
    )
    assert "special" in public
