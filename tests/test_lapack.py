"""The LAPACK loader: the private extension load, its reuse and its fallback.

spiralnls.lapack loads scipy.linalg._flapack from its file so that the
package never runs scipy/linalg/__init__.py.  Each case runs in a fresh
process, since the first load fixes the module for the whole process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import hashlib, importlib.util, sys
mode = sys.argv[1]
if mode == "fail":
    def refuse(*args, **kwargs):
        raise OSError("private load refused")
    importlib.util.spec_from_file_location = refuse
if mode == "scipy-first":
    import scipy.linalg.lapack
import numpy as np
from spiralnls import lapack
print("scipy.linalg" in sys.modules)
import scipy.linalg.lapack as public
print(all(getattr(lapack, f) is getattr(public, f) for f in ("dgtsv", "dpttrf", "dpttrs")))
rng = np.random.default_rng(4)
n = 50
d, e = 4.0 + rng.random(n), rng.standard_normal(n - 1)
b = rng.standard_normal((n, 3))
df, ef, info = lapack.dpttrf(d, e)
x, info = lapack.dpttrs(df, ef, b)
dl, du = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
y = lapack.dgtsv(dl, d, du, b)[3]
print(hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest())
"""


def _probe(mode):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _PROBE, mode], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return run.stdout.splitlines()


@pytest.fixture(scope="module")
def private():
    return _probe("private")


def test_private_load_skips_scipy_linalg(private):
    # a later import of scipy.linalg hands out the same function objects
    assert private[:2] == ["False", "True"]


@pytest.mark.parametrize("mode", ["fail", "scipy-first"])
def test_other_load_paths_give_the_same_bits(private, mode):
    # a failed private load falls back to scipy.linalg.lapack; a module that
    # scipy.linalg already loaded is reused
    loaded, same, digest = _probe(mode)
    assert loaded == "True" and same == "True"
    assert digest == private[2]
