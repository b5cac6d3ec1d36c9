"""Pins BLAS threading before numpy loads, and records the environment.

Import this module before anything that imports numpy.  With the default
two OpenBLAS threads the program burns more CPU than wall time on a 2-core
host and its work counts change with the thread count, so every benchmark
process runs the program at one thread.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def describe(**extra) -> dict:
    """Versions, thread settings and core count of this process."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **extra,
    }
