"""The package's Simpson sum, cubic spline and Bessel tails against scipy's, bit for bit.

The package itself loads none of scipy.integrate, scipy.interpolate or
scipy.special; these tests import them as references.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import k0e, k1e

from spiralnls.grid import Field, ModelParams
from spiralnls.radial import (
    _K0E_TAIL,
    _K1E_TAIL,
    _cubic_spline,
    _scaled_bessel_k,
    _simpson,
    shoot_ground,
)
from spiralnls.spiral3d import SpiralEvaluator

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(8)


def _grid(rng, n):
    """n strictly increasing, non-uniform abscissae."""
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0


def _points(rng, x):
    """Random points inside and outside [x0, xn], plus the knots themselves."""
    return np.concatenate([rng.uniform(x[0] - 2.0, x[-1] + 2.0, 40), x])


def _scipy_spline(x, y, ends):
    if ends is None:
        return CubicSpline(x, y, axis=0)
    cols = y.shape[1:]
    return CubicSpline(x, y, axis=0, bc_type=((1, np.full(cols, ends[0])),
                                              (1, np.full(cols, ends[1]))))


@pytest.mark.parametrize("seed", SEEDS)
def test_simpson_matches_scipy_bits(seed):
    rng = np.random.default_rng(seed)
    n = 2 * int(rng.integers(1, 40)) + 1
    x = _grid(rng, n)
    y = rng.standard_normal(n)
    assert float(_simpson(y, x)).hex() == float(simpson(y, x=x)).hex()


@pytest.mark.parametrize("dr1d", [0.02, 0.01, 0.005])
def test_simpson_matches_scipy_on_profile_grids(dr1d):
    radii = np.arange(0.0, 40.0 + 0.5 * dr1d, dr1d)
    y = np.exp(-radii) * radii
    assert float(_simpson(y, radii)).hex() == float(simpson(y, x=radii)).hex()


def test_simpson_exact_on_polynomials():
    rng = np.random.default_rng(7)
    # on a non-uniform grid the rule is exact for quadratics ...
    x = _grid(rng, 21)
    assert _simpson(3 * x**2 - x + 2, x) == pytest.approx(
        (x[-1]**3 - x[-1]**2 / 2 + 2 * x[-1]) - (x[0]**3 - x[0]**2 / 2 + 2 * x[0]),
        rel=1e-13)
    # ... and for cubics when each pair of steps is symmetric
    h = np.repeat(rng.uniform(0.1, 1.0, 10), 2)
    x = np.concatenate([[0.0], np.cumsum(h)])
    assert _simpson(x**3 - 2 * x, x) == pytest.approx(x[-1]**4 / 4 - x[-1]**2, rel=1e-13)


@pytest.mark.parametrize("n", [2, 4, 40])
def test_simpson_rejects_even_counts(n):
    x = np.linspace(0.0, 1.0, n)
    with pytest.raises(ValueError, match="odd number"):
        _simpson(x, x)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ends", [None, (0.3, -1.7)], ids=["not-a-knot", "clamped"])
@pytest.mark.parametrize("kind", ["real-1d", "real-2d", "complex-2d"])
def test_spline_matches_scipy_bits(seed, ends, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    x = _grid(rng, n)
    shape = (n,) if kind == "real-1d" else (n, 3)
    y = rng.standard_normal(shape)
    if kind == "complex-2d":
        y = y + 1j * rng.standard_normal(shape)
        y[:, 0] = y[:, 0].real        # a column with zero imaginary parts
    r = _points(rng, x)
    got = _cubic_spline(x, y, ends)(r)
    want = _scipy_spline(x, y, ends)(r)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ends", [None, "exact"])
def test_spline_exact_on_cubics(ends):
    rng = np.random.default_rng(11)
    x = _grid(rng, 17)
    coef = np.array([0.5, -1.0, 2.0, 0.25])
    f = np.polynomial.Polynomial(coef)
    if ends == "exact":
        ends = (f.deriv()(x[0]), f.deriv()(x[-1]))
    r = _points(rng, x)
    np.testing.assert_allclose(_cubic_spline(x, f(x), ends)(r), f(r),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(f(r))))


@pytest.mark.parametrize("n", [2, 3])
def test_short_not_a_knot_spline_is_the_interpolating_polynomial(n):
    rng = np.random.default_rng(n)
    x = _grid(rng, n)
    y = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    r = _points(rng, x)
    np.testing.assert_allclose(_cubic_spline(x, y)(r), CubicSpline(x, y)(r),
                               rtol=1e-12, atol=1e-12)


def test_profile_evaluation_matches_clamped_scipy_spline():
    profile = shoot_ground(4.0)
    r = np.linspace(0.0, profile.radii[-1], 997)
    want = CubicSpline(profile.radii, profile.values,
                       bc_type=((1, 0.0), (1, float(profile.slopes[-1]))))(r)
    assert profile(r).tobytes() == want.tobytes()


def test_spiral_series_matches_scipy_spline(small_half, rng):
    u = Field(small_half, rng.standard_normal((small_half.nr, small_half.ntheta)))
    ev = SpiralEvaluator(u, ModelParams(p=4.0, q=1, lam=1.5))
    r = np.linspace(0.0, small_half.R, 101)
    want = CubicSpline(small_half.radii, small_half.angular_series(u.values)[1], axis=0)(r)
    assert ev.spline(r).tobytes() == want.tobytes()


@pytest.mark.parametrize("table,reference", [(_K0E_TAIL, k0e), (_K1E_TAIL, k1e)],
                         ids=["k0e", "k1e"])
def test_scaled_bessel_matches_scipy_bits(table, reference):
    # every dr1d = 0.005 profile radius above 2, and seeded points up to 60
    x = np.arange(0.0, 40.0 + 0.0025, 0.005)
    x = np.concatenate([x[x > 2.0], np.random.default_rng(7).uniform(2.0, 60.0, 20000),
                        [np.nextafter(2.0, 3.0)]])
    assert _scaled_bessel_k(x, table).tobytes() == reference(x).tobytes()
    assert float(_scaled_bessel_k(7.25, table)).hex() == float(reference(7.25)).hex()


@pytest.mark.parametrize("x", [2.0, 1.0, [3.0, 2.0], float("nan")])
def test_scaled_bessel_rejects_arguments_up_to_2(x):
    with pytest.raises(ValueError):
        _scaled_bessel_k(x, _K0E_TAIL)


def test_cli_loads_no_unneeded_scipy_parts(tmp_path):
    # of scipy the package loads only the LAPACK extension scipy.linalg._flapack,
    # and not through the scipy.linalg package, which loads numpy.f2py and numpy.testing;
    # a disk solve transforms by matrix products and never loads numpy.fft
    probe = ("import sys, spiralnls.cli\n"
             "code = spiralnls.cli.run_cli(['solve-nodal', '--R', '8', '--nr', '32',"
             f" '--ntheta', '8', '--out-dir', {str(tmp_path)!r}])\n"
             "print(code, ' '.join(m for m in ('scipy.integrate', 'scipy.interpolate',"
             " 'scipy.optimize', 'scipy.spatial', 'scipy.fft', 'scipy.special',"
             " 'scipy.linalg', 'scipy.sparse', 'numpy.f2py', 'numpy.testing', 'numpy.fft')"
             " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.splitlines()[-1].strip() == "0"
