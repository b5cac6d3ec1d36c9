"""Independent 1D radial oracle for the limit equation -u'' - u'/r + u = |u|^{p-2} u.

Ground and nodal profiles are found by bisection on the initial amplitude
u(0): the number of sign changes of the shot trajectory is a step function of
the amplitude, jumping from k to k+1 exactly at the k-node decaying solution.
The bisection stops once its band is as narrow as the relative tolerance its
shots are integrated to (1e-9 coarse, then _RTOL), since below that the count
only resolves the integrator's error.
Integration leaves the singular point at r = eps with the series
u(r) = u(0) + (u(0) - u(0)^{p-1}) r^2 / 4 and uses an adaptive 4(5)
Dormand-Prince stepper (J. Comput. Appl. Math. 6, 1980; hand-unrolled scalar
arithmetic: the bisection takes 51-79 shots per profile and per-call overhead
of a generic IVP driver dominates otherwise).  Every shot, the recorded
profile shot included, ends as soon as its count of sign changes is final
(see _integrate).  Past the last sign change the trajectory is grafted onto
the exact linearized decay c K_0(r), which pins |u| below 1e-10 at the far
boundary where bisection round-off would otherwise re-excite the growing mode.

Everything here is deliberately one-dimensional and self-contained so it can
serve as ground truth for the 2D solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BisectionBracketFailure
from .lapack import dgtsv

_EPS0 = 1e-6         # launch radius for the series start
_RMAX_SHOOT = 60.0   # shot horizon; classifying shots stop once their class is final
_RTOL = 1e-12        # rtol of the profile shot and the tight bisection's shots and band
_R1D = 40.0          # outer radius of the sampled profile


@dataclass(frozen=True)
class RadialProfile:
    """Decaying radial solution sampled on a uniform grid."""

    radii: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    energy: float        # E_* over R^2 (2 pi r dr measure)
    mass: float          # integral u^2
    kind: str            # "ground" | "nodal"
    nodes: int           # interior sign changes
    amplitude: float     # u(0)
    p: float

    @cached_property
    def _spline(self):
        """Clamped cubic spline, u'(0) = 0 and the sampled end slope."""
        return _cubic_spline(self.radii, self.values, ends=(0.0, float(self.slopes[-1])))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The spline inside the sampled grid, 0 beyond it."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r <= self.radii[-1]
        out[inside] = self._spline(r[inside])
        return out


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson sum over an odd number of non-uniform samples.

    The arithmetic of scipy.integrate.simpson(y, x=x) for odd counts, term for
    term, so the sums keep their bits.
    """
    if len(x) % 2 == 0:
        raise ValueError(f"Simpson sum needs an odd number of samples, got {len(x)}")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, h0h1 = h0 + h1, h0 * h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0h1)
                                + y[1:-1:2] * (hsum * (hsum / hprod))
                                + y[2::2] * (2.0 - h0h1)))


# Cephes' Chebyshev coefficients of exp(x) sqrt(x) K_0(x) and K_1(x) in
# 8/x - 2 for x > 2 (Moshier, Methods and Programs for Mathematical
# Functions, 1989), the tables scipy.special's k0e and k1e evaluate there
_K0E_TAIL = (
    5.300433772686263e-18, -1.6475804301524212e-17, 5.2103915050390274e-17,
    -1.678231096805412e-16, 5.512055978524319e-16, -1.848593377343779e-15,
    6.3400764774050706e-15, -2.2275133269916698e-14, 8.032890775363575e-14,
    -2.9800969231727303e-13, 1.140340588208475e-12, -4.514597883373944e-12,
    1.8559491149547177e-11, -7.957489244477107e-11, 3.577397281400301e-10,
    -1.69753450938906e-09, 8.574034017414225e-09, -4.660489897687948e-08,
    2.766813639445015e-07, -1.8317555227191195e-06, 1.39498137188765e-05,
    -0.00012849549581627802, 0.0015698838857300533, -0.0314481013119645,
    2.4403030820659555,
)
_K1E_TAIL = (
    -5.756744483665017e-18, 1.7940508731475592e-17, -5.689462558442859e-17,
    1.838093544366639e-16, -6.057047248373319e-16, 2.038703165624334e-15,
    -7.019837090418314e-15, 2.4771544244813043e-14, -8.976705182324994e-14,
    3.3484196660784293e-13, -1.2891739609510289e-12, 5.13963967348173e-12,
    -2.1299678384275683e-11, 9.218315187605006e-11, -4.1903547593418965e-10,
    2.015049755197033e-09, -1.0345762465678097e-08, 5.7410841254500495e-08,
    -3.5019606030878126e-07, 2.406484947837217e-06, -1.936197974166083e-05,
    0.00019521551847135162, -0.002857816859622779, 0.10392373657681724,
    2.7206261904844427,
)


def _scaled_bessel_k(x, table) -> np.ndarray:
    """exp(x) K_n(x) for x > 2 from the K_n table, bit for bit scipy's k0e/k1e.

    Cephes' chbevl(8/x - 2, table) / sqrt(x), term for term.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 2.0):
        raise ValueError("the scaled Bessel tail needs arguments above 2")
    y = 8.0 / x - 2.0
    b0, b1, b2 = np.full_like(y, table[0]), np.zeros_like(y), None
    for c in table[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2) / np.sqrt(x)


def _cubic_spline(x: np.ndarray, y: np.ndarray, ends=None):
    """Cubic spline through the rows of y (real or complex) at the increasing x.

    ends=None gives not-a-knot ends; ends=(s0, s1) clamps the first
    derivative at x[0] and x[-1].  Slopes, coefficients and evaluation do the
    arithmetic of scipy's CubicSpline, so the values keep their bits (below
    4 samples not-a-knot is the line or parabola through them, which scipy
    solves another way).  Returns r -> values at r, shape r.shape + y.shape[1:];
    the end pieces extrapolate.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if ends is None and n < 4:
        c = (slope[-1] - slope[0]) / (x[-1] - x[0])
        s = np.stack([slope[0] - c * dx[0], slope[0] + c * dx[0], slope[-1] + c * dx[-1]][:n])
    else:
        # the tridiagonal system of solve_banded((1, 1)); complex columns
        # are solved as their real and imaginary parts
        d, du, dl = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        d[1:-1], du[1:], dl[:-1] = 2 * (dx[:-1] + dx[1:]), dx[:-1], dx[1:]
        b = np.empty((n,) + y.shape[1:], dtype=y.dtype)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if ends is None:
            d[0], du[0], d[-1], dl[-1] = dx[1], x[2] - x[0], dx[-2], x[-1] - x[-3]
            b[0] = ((dxr[0] + 2 * du[0]) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / du[0]
            b[-1] = (dxr[-1] ** 2 * slope[-2]
                     + (2 * dl[-1] + dxr[-1]) * dxr[-2] * slope[-1]) / dl[-1]
        else:
            d[0], du[0], d[-1], dl[-1] = 1.0, 0.0, 1.0, 0.0
            b[0], b[-1] = ends
        x_f = dgtsv(dl, d, du, b.reshape(n, -1).view(float))[3]
        s = np.ascontiguousarray(x_f).view(y.dtype).reshape(b.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    coef = (y[:-1], s[:-1], (slope - s[:-1]) / dxr - t, t / dxr)

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        i = np.minimum(np.maximum(np.searchsorted(x, r, "right") - 1, 0), n - 2)
        h = (r - x[i]).reshape(r.shape + (1,) * (y.ndim - 1))
        # scipy's power sum 0 + c3 + c2 h + c1 h^2 + c0 h^3, the powers of h
        # built up term by term; in place, sparing a temporary per term
        out, z = coef[0][i], h
        out += 0.0
        for c in coef[1:]:
            term = c[i]
            term *= z
            out += term
            z = z * h
        return out
    return evaluate


def _integrate(a: float, p: float, rtol: float, record: bool = False,
               stop_at: float = math.inf):
    """Shoot from u(0) = a.  Returns (crossings, samples or None).

    With stop_at finite the shot ends once the crossing count reaches
    stop_at, or once the mechanical energy
    E = u'^2/2 - u^2/2 + |u|^p/p is negative.  Along the ODE
    dE/dr = -u'^2/r <= 0, and reaching u = 0 needs E >= W(0) = 0 for the
    potential W(u) = -u^2/2 + |u|^p/p, so from then on the count is final
    (Berestycki, Lions & Peletier, Indiana Univ. Math. J. 30, 1981).  Below
    the threshold amplitude a shot never diverges; it settles into a damped
    oscillation about u = +-1 and without this test would run on to _RMAX_SHOOT.
    samples is a list of accepted (r, u, u') triples when record is set.
    """
    copysign, sqrt = math.copysign, math.sqrt
    pm1 = p - 1.0
    classify = stop_at < math.inf
    atol = rtol * 1e-3
    r = _EPS0
    fa = a - copysign(abs(a) ** pm1, a)
    u = a + fa * r * r / 4.0
    v = fa * r / 2.0
    h = 1e-3
    crossings = 0
    samples = [(r, u, v)] if record else None

    au, av = abs(u), abs(v)
    k1u = v
    k1v = -v / r + u - copysign(abs(u) ** pm1, u)
    while r < _RMAX_SHOOT:
        if h > _RMAX_SHOOT - r:
            h = _RMAX_SHOOT - r
        h5 = h * 0.2
        r2 = r + h5
        uu = u + h5 * k1u
        vv = v + h5 * k1v
        k2u = vv
        k2v = -vv / r2 + uu - copysign(abs(uu) ** pm1, uu)
        r3 = r + 0.3 * h
        uu = u + h * (0.075 * k1u + 0.225 * k2u)
        vv = v + h * (0.075 * k1v + 0.225 * k2v)
        k3u = vv
        k3v = -vv / r3 + uu - copysign(abs(uu) ** pm1, uu)
        r4 = r + 0.8 * h
        uu = u + h * (0.9777777777777777 * k1u - 3.7333333333333334 * k2u
                      + 3.5555555555555554 * k3u)
        vv = v + h * (0.9777777777777777 * k1v - 3.7333333333333334 * k2v
                      + 3.5555555555555554 * k3v)
        k4u = vv
        k4v = -vv / r4 + uu - copysign(abs(uu) ** pm1, uu)
        r5 = r + 0.8888888888888888 * h
        uu = u + h * (2.9525986892242035 * k1u - 11.595793324188385 * k2u
                      + 9.822892851699436 * k3u - 0.2908093278463649 * k4u)
        vv = v + h * (2.9525986892242035 * k1v - 11.595793324188385 * k2v
                      + 9.822892851699436 * k3v - 0.2908093278463649 * k4v)
        k5u = vv
        k5v = -vv / r5 + uu - copysign(abs(uu) ** pm1, uu)
        r6 = r + h
        uu = u + h * (2.8462752525252526 * k1u - 10.757575757575758 * k2u
                      + 8.906422717743473 * k3u + 0.2784090909090909 * k4u
                      - 0.2735313036020583 * k5u)
        vv = v + h * (2.8462752525252526 * k1v - 10.757575757575758 * k2v
                      + 8.906422717743473 * k3v + 0.2784090909090909 * k4v
                      - 0.2735313036020583 * k5v)
        k6u = vv
        k6v = -vv / r6 + uu - copysign(abs(uu) ** pm1, uu)
        u5 = u + h * (0.09114583333333333 * k1u + 0.44923629829290207 * k3u
                      + 0.6510416666666666 * k4u - 0.322376179245283 * k5u
                      + 0.13095238095238096 * k6u)
        v5 = v + h * (0.09114583333333333 * k1v + 0.44923629829290207 * k3v
                      + 0.6510416666666666 * k4v - 0.322376179245283 * k5v
                      + 0.13095238095238096 * k6v)
        k7u = v5
        g5 = abs(u5) ** pm1
        k7v = -v5 / r6 + u5 - copysign(g5, u5)
        eu = h * (0.0012326388888888888 * k1u - 0.0042527702905061394 * k3u
                  + 0.03697916666666666 * k4u - 0.05086379716981132 * k5u
                  + 0.0419047619047619 * k6u - 0.025 * k7u)
        ev = h * (0.0012326388888888888 * k1v - 0.0042527702905061394 * k3v
                  + 0.03697916666666666 * k4v - 0.05086379716981132 * k5v
                  + 0.0419047619047619 * k6v - 0.025 * k7v)
        # abs, max and min as conditional expressions: here a builtin call
        # costs more than the arithmetic it does
        au5, av5 = (u5 if u5 >= 0.0 else -u5), (v5 if v5 >= 0.0 else -v5)
        su = atol + rtol * (au5 if au5 > au else au)
        sv = atol + rtol * (av5 if av5 > av else av)
        e1 = eu / su
        e2 = ev / sv
        err = sqrt(0.5 * (e1 * e1 + e2 * e2))
        if err <= 1.0:
            if (u > 0.0) != (u5 > 0.0):
                crossings += 1
                if crossings >= stop_at:
                    break
            r += h
            u, v, au, av = u5, v5, au5, av5
            k1u, k1v = k7u, k7v
            if record:
                samples.append((r, u, v))
            if classify and 0.5 * (v * v - u * u) + g5 * au5 / p < 0.0:
                break
        f = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= (f if f < 5.0 else 5.0) if f > 0.2 else 0.2
    return crossings, samples


def _crossings(a: float, p: float, rtol: float, k: int) -> int:
    """Sign changes of the shot from a, counted up to k + 1.

    Crossings only accumulate along a shot, so stopping at the (k+1)-th one
    leaves the class (at most k, or more) of the full count unchanged.
    """
    return _integrate(a, p, rtol, stop_at=k + 1)[0]


def _check_lower(p: float, k: int, lo: float, rtol: float) -> None:
    """Raise unless the shot from lo crosses at most k times."""
    if _crossings(lo, p, rtol, k) > k:
        raise BisectionBracketFailure(f"lower amplitude {lo} already crosses > {k} times")


def _bisect_band(p: float, k: int, lo: float, hi: float, rtol: float):
    """Narrow [lo, hi] onto the k -> k+1 crossing-count jump, to hi - lo <= rtol * hi.

    lo must already be known to cross at most k times (_check_lower); hi is
    doubled until it crosses more.  Shots are integrated at rtol, so halving
    the band below rtol * hi would only resolve the integrator's error.
    Returns (lo, hi): lo crosses at most k times, hi more than k.
    """
    attempts = 0
    while _crossings(hi, p, rtol, k) <= k:
        hi *= 2.0
        attempts += 1
        if attempts > 60:
            raise BisectionBracketFailure(
                f"amplitude doubling found no {k + 1}-crossing trajectory (p={p})")
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _crossings(mid, p, rtol, k) <= k:
            lo = mid
        else:
            hi = mid
    return lo, hi


@lru_cache(maxsize=32)
def _shoot_amplitude(p: float, k: int) -> float:
    """Threshold amplitude of the k-node profile, to _RTOL relative.

    A coarse bisection at rtol 1e-9 brackets the k -> k+1 jump; the padded
    band is then bisected with shots at _RTOL (from [0.25, 1] again if the
    padded lower end already crosses more than k times).  Returns the lower
    end, which crosses at most k times at _RTOL.
    """
    _check_lower(p, k, 0.25, 1e-9)
    lo, hi = _bisect_band(p, k, 0.25, 1.0, rtol=1e-9)
    pad = max(4.0 * (hi - lo), 1e-8 * hi)
    lo2, hi2 = max(lo - pad, 0.5 * lo), hi + pad
    if _crossings(lo2, p, _RTOL, k) > k:      # coarse band missed; restart tight
        lo2, hi2 = 0.25, 1.0
        _check_lower(p, k, lo2, _RTOL)
    return _bisect_band(p, k, lo2, hi2, rtol=_RTOL)[0]


def _integrals(radii, vals, slopes, p):
    """(mass, grad_sq, lp): Simpson integrals of u^2, u'^2 and |u|^p against 2 pi r dr."""
    w = radii
    mass = 2 * np.pi * _simpson(vals**2 * w, radii)
    grad2 = 2 * np.pi * _simpson(slopes**2 * w, radii)
    lp = 2 * np.pi * _simpson(np.abs(vals) ** p * w, radii)
    return mass, grad2, lp


def _assemble_profile(a: float, p: float, k: int, dr1d: float) -> RadialProfile:
    """Sample the k-node profile from the threshold amplitude a on [0, _R1D].

    The shot from a is recorded with the classifying stop: a crosses at most
    k times, so it ends where a's classifying shot ended, on negative energy,
    past the graft point.  Up to the graft point the profile is the spline
    through the accepted steps, beyond it the Bessel tail c K_0(r).
    """
    _, samples = _integrate(a, p, _RTOL, record=True, stop_at=k + 1)
    rs = np.array([s[0] for s in samples])
    us = np.array([s[1] for s in samples])
    vs = np.array([s[2] for s in samples])

    # graft point: first |u| below threshold after the final sign change
    last_cross = 0.0
    sign_flips = np.nonzero(np.diff(np.signbit(us)))[0]
    if sign_flips.size:
        last_cross = rs[sign_flips[-1] + 1]
    tail = rs > last_cross
    gt = 1e-5 * max(1.0, abs(a))
    small = tail & (np.abs(us) <= gt)
    if not np.any(small):
        # fall back to the flattest point of the tail
        idx = np.argmin(np.where(tail, np.abs(us), np.inf))
    else:
        idx = np.nonzero(small)[0][0]
    r_g, u_g = float(rs[idx]), float(us[idx])

    radii = np.arange(0.0, _R1D + 0.5 * dr1d, dr1d)
    spline_u = _cubic_spline(rs, us)  # dense accepted steps; not-a-knot suffices
    spline_v = _cubic_spline(rs, vs)
    vals = np.empty_like(radii)
    slopes = np.empty_like(radii)

    series = radii < rs[0]
    fa = a - math.copysign(abs(a) ** (p - 1.0), a)
    vals[series] = a + fa * radii[series] ** 2 / 4.0
    slopes[series] = fa * radii[series] / 2.0
    inner = (~series) & (radii <= r_g)
    vals[inner] = spline_u(radii[inner])
    slopes[inner] = spline_v(radii[inner])
    outer = radii > r_g
    # decaying Bessel tail: u = c K0(r), u' = -c K1(r)
    c = u_g / _scaled_bessel_k(r_g, _K0E_TAIL)
    damp = np.exp(-(radii[outer] - r_g))
    vals[outer] = c * _scaled_bessel_k(radii[outer], _K0E_TAIL) * damp
    slopes[outer] = -c * _scaled_bessel_k(radii[outer], _K1E_TAIL) * damp

    mass, grad2, lp = _integrals(radii, vals, slopes, p)
    e_star = 0.5 * (grad2 + mass) - lp / p

    for arr in (radii, vals, slopes):
        arr.setflags(write=False)
    return RadialProfile(
        radii=radii, values=vals, slopes=slopes, energy=float(e_star),
        mass=float(mass), kind="ground" if k == 0 else "nodal", nodes=k,
        amplitude=float(a), p=float(p),
    )


@lru_cache(maxsize=32)
def _shoot_cached(p: float, k: int, dr1d: float) -> RadialProfile:
    try:
        a = _shoot_amplitude(p, k)    # cached apart: shared by every dr1d
        return _assemble_profile(a, p, k, dr1d)
    except OverflowError as exc:
        raise OverflowError(f"radial shooting overflowed at p={p:g}, k={k}") from exc


def shoot_ground(p: float, dr1d: float = 0.01) -> RadialProfile:
    """Positive decaying solution (unique up to the amplitude found here)."""
    if not p > 2:
        raise ValueError(f"p must exceed 2, got {p}")
    return _shoot_cached(float(p), 0, float(dr1d))


def shoot_nodal(p: float, k: int = 1, dr1d: float = 0.01) -> RadialProfile:
    """Decaying solution with exactly k interior sign changes."""
    if not p > 2:
        raise ValueError(f"p must exceed 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _shoot_cached(float(p), int(k), float(dr1d))


def profile_identities(profile: RadialProfile) -> dict:
    """Relative defects of the Pohozaev and Nehari identities (dimension 2)."""
    p = profile.p
    mass, grad2, lp = _integrals(profile.radii, profile.values, profile.slopes, p)
    return {
        "pohozaev": float((mass - (2.0 / p) * lp) / mass),
        "nehari": float((grad2 + mass - lp) / (grad2 + mass)),
        "mass": float(mass),
        "grad_sq": float(grad2),
        "lp": float(lp),
    }


def limit_levels(p: float):
    """(c_inf, radial nodal energy, eps_star): the energy-doubling gap data."""
    ground = shoot_ground(p)
    nodal = shoot_nodal(p, 1)
    c_inf = ground.energy
    eps_star = nodal.energy - 2.0 * c_inf
    return c_inf, nodal.energy, eps_star
