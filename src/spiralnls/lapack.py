"""The three LAPACK routines the package calls, loaded without scipy.linalg.

grid.py factors and solves the per-mode tridiagonal systems with
dpttrf/dpttrs, and radial.py solves the spline slopes with dgtsv.  All three
live in scipy's f2py extension module scipy.linalg._flapack.  Importing them
through scipy.linalg.lapack runs scipy/linalg/__init__.py, which loads
scipy's array-API base, numpy.testing and numpy.f2py: about 0.3 s of every
fresh process, where the extension alone loads in a few milliseconds.

So the extension is loaded from its file under its own name and registered
in sys.modules, where a later import of scipy.linalg finds it: both paths
hand out the same function objects, with the same bits.  A copy already in
sys.modules is reused.  If the private load fails in any way (another
layout of the scipy install, a renamed module), the routines come from
scipy.linalg.lapack.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import sys
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file if no import has yet."""
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NAME] = module
            return module
    raise ImportError(f"no {_NAME} extension in {folder}")


try:
    _flapack = _load_flapack()
    dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs
except Exception:   # any failure of the private load: take the public path
    logging.getLogger(__name__).debug("private load of %s failed", _NAME, exc_info=True)
    from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
