"""Process set-up shared by the benchmark scripts.

`prepare()` must run before NumPy is imported: OpenBLAS reads its thread
count once, when the library loads. It pins BLAS to one thread and puts the
checkout's `src/` first on the import path, so the benchmark always measures
the sources next to it and never an installed copy.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_CHECKPOINT = HERE / "reference.ckpt"
OUT_DIR = HERE / "out"


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before NumPy is imported")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "beamtrack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no beamtrack sources under {src}")
    sys.path.insert(0, str(src))
