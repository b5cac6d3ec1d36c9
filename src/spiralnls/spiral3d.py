"""Screw-invariant 3D reconstruction and legacy VTK volume export.

A planar profile u(r, theta) generates the spiraling field
v(r, phi, t) = u(r, phi - t/lambda), invariant under
(x, t) -> (R_omega x, t + lambda omega) and 2 pi lambda - periodic in t.
The screw motion turns each angular mode by a phase, so the field is the
grid's angular series with phases e^{-i omega t / lambda}.  On the half disk
the sine series has integer frequencies: it *is* the Fourier series of the
odd extension across the rays, so there is no reflection step.  The only
interpolation anywhere is radial (cubic, per mode).  The nodal set of the
odd extension contains the helicoid traced by the rotating zero rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SectorError
from .grid import CONE, Field, ModelParams
from .io import replacing
from .radial import _cubic_spline

_HEADER = "# vtk DataFile Version 3.0"


@dataclass(frozen=True)
class SpiralField3D:
    """v(x1, x2, t) sampled on a regular lattice covering one turn period."""

    nx: int
    ny: int
    nt: int
    origin: tuple
    spacing: tuple
    values: np.ndarray   # (nx, ny, nt)
    lam: float


class SpiralEvaluator:
    """Angular series of the screw-invariant field built from a solution.

    Splines the angular series of a full- or half-disk field over r; the
    field at (x1, x2, t) is the sum over modes of base(x1, x2) times
    twist(t), which turns mode omega by the phase e^{-i omega t / lambda}.
    Cone series have non-integer frequencies and no 2 pi - periodic extension.
    """

    def __init__(self, u: Field, params: ModelParams):
        grid = u.grid
        if grid.sector.kind == CONE:
            raise SectorError("3D reconstruction expects a full disk or half disk")
        self.lam = params.lam
        self.R = grid.R
        self.half_angle = grid.sector.half_angle
        self.omega, series = grid.angular_series(u.values)
        self.spline = _cubic_spline(grid.radii, series)

    def modes_at(self, radius: np.ndarray) -> np.ndarray:
        """Radially interpolated series coefficients; zero outside the disk."""
        radius = np.asarray(radius, dtype=float)
        vals = self.spline(np.minimum(radius, self.R))
        vals[radius > self.R] = 0.0
        return vals

    def base(self, x1, x2) -> np.ndarray:
        """Series terms of the t = 0 profile at the points, (points, modes)."""
        r = np.hypot(x1, x2).ravel()
        phi = np.arctan2(x2, x1).ravel()
        # phases first: numpy's SIMD complex product is not bitwise commutative,
        # and the volumes' bits follow this order
        return np.exp(1j * np.outer(phi + self.half_angle, self.omega)) * self.modes_at(r)

    def twist(self, t) -> np.ndarray:
        """Screw phases e^{-i omega t / lambda}, (times, modes)."""
        return np.exp(-1j * np.outer(np.ravel(t) / self.lam, self.omega))


def reconstruct3d(u: Field, params: ModelParams, nt: int, nxy: int = 64) -> SpiralField3D:
    """Sample the spiraling field over one turn period t in [0, 2 pi lambda).

    The volume spans [-0.75 R, 0.75 R] in both plane coordinates.  It is
    filled one lattice row (fixed x1) at a time, so memory is the volume
    plus one row's (nxy, modes) complex block.

    Radial profiles (no angular content) give t-independent volumes; half-disk
    solutions vanish on the helicoid swept by the zero rays.
    """
    if nt < 2 or nxy < 2:
        raise ValueError("need at least 2 samples per axis")
    ev = SpiralEvaluator(u, params)
    extent = 0.75 * u.grid.R
    xs = np.linspace(-extent, extent, nxy)
    ts = np.arange(nt) * (2 * math.pi * params.lam / nt)
    twist = ev.twist(ts).T
    values = np.empty((nxy, nxy, nt))
    for row, x1 in zip(values, xs):
        row[...] = (ev.base(x1, xs) @ twist).real

    dx = xs[1] - xs[0]
    dt = ts[1] - ts[0]
    return SpiralField3D(
        nx=nxy, ny=nxy, nt=nt,
        origin=(float(xs[0]), float(xs[0]), 0.0),
        spacing=(float(dx), float(dx), float(dt)),
        values=values, lam=params.lam,
    )


# Tables of the "%.11e" digit path.  _POW10[99 - e] = 10.0 ** (11 - e) for
# |e| <= 99.  A line is three little-endian 8-byte words, "-d.dddd",
# "dddddde+" and "EE\n" padded with NULs; the sign byte is a NUL too where the
# sign bit is clear, and the NULs are deleted.  _ASCII3[n] packs the three
# ASCII digits of n = 0..999; the other tables place them in a word.  A plain
# (values, 20) uint8 block, one column per byte, writes the same lines but
# took 18.7 ms per 48x48x32 volume against 12.7 ms for the words (x86-64,
# one thread; 28 ms with one division per digit instead of the table).
_POW10 = np.array([10.0 ** k for k in range(-88, 111)])
_ASCII3 = ((np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0"))
           << [0, 8, 16]).sum(axis=1).astype(np.uint64)
_LEAD = (_ASCII3 & 0xFF) << 8 | ord(".") << 16 | (_ASCII3 >> 8) << 24
_EXPONENT = _ASCII3 >> 8 | ord("\n") << 16
_E_PLUS, _E_MINUS = (np.uint64(ord("e") << 48 | ord(sign) << 56) for sign in "+-")


def _digit_words(values: np.ndarray):
    """The "%.11e\n" lines of a 1-D array as (values, 3) words, and which are exact.

    With e = floor(log10|x|) clipped to [-99, 99] and m = |x| * 10.0 ** (11 - e),
    the line holds round(m)'s 12 digits, Python's correctly rounded line
    wherever 1e11 <= m, round(m) < 1e12 and frac(m) is more than 1e-3 from a
    half (see export_vtk).  Zeros take this path with e = 0.
    """
    a = np.abs(values)
    finite = np.isfinite(a)
    scale = np.where(finite & (a > 0), a, 1.0)
    e = np.minimum(np.maximum(np.floor(np.log10(scale)), -99), 99).astype(np.int64)
    m = scale * _POW10[99 - e]
    whole = np.rint(m)
    exact = finite & (m >= 1e11) & (whole < 1e12) & (np.abs(m - np.floor(m) - 0.5) > 1e-3)
    high, low = np.divmod(np.where(exact & (a > 0), whole, 0.0).astype(np.int64), 1_000_000)
    words = np.empty((len(values), 3), "<u8")
    words[:, 0] = (_LEAD[high // 1000] | _ASCII3[high % 1000] << 40
                   | np.signbit(values) * np.uint64(ord("-")))
    words[:, 1] = (_ASCII3[low // 1000] | _ASCII3[low % 1000] << 24
                   | np.where(e < 0, _E_MINUS, _E_PLUS))
    words[:, 2] = _EXPONENT[np.abs(e)]
    return words, exact


def _e11_lines(values: np.ndarray) -> str:
    """"%.11e\n" % x for every x of a 1-D array, concatenated."""
    words, exact = _digit_words(values)
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        lines = b"".join(("%.11e\n" % x).encode("ascii").ljust(24, b"\0")
                         for x in values[inexact].tolist())
        words[inexact] = np.frombuffer(lines, "<u8").reshape(-1, 3)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def export_vtk(field3d: SpiralField3D, path) -> None:
    """Write a legacy ASCII structured-points volume (scalar array "v").

    One value per line, x-fastest ordering, each line the bytes of Python's
    correctly rounded, locale-independent "%.11e" (12 significant digits).
    Each t-plane's lines come from array arithmetic: the digits of
    round(|x| 10^(11 - e)), e = floor(log10|x|), in 3-digit groups from a
    lookup table.  nan, inf, exponents beyond +-99, scaled mantissas within
    1e-3 of a half and carries to 1e12 are formatted by "%.11e" itself.  The
    scaled mantissa carries two roundings, so it lies within 3e-4 of the
    exact product and, outside that window, rounds as the product does; log10
    only picks e, and a wrong e fails the range test.  So the files are byte
    for byte those of one "%.11e" per value.  Like every artifact, the volume
    is written beside its target and renamed over it.
    """
    vals = field3d.values
    if vals.shape != (field3d.nx, field3d.ny, field3d.nt):
        raise ValueError(
            f"value block {vals.shape} does not match dimensions "
            f"({field3d.nx}, {field3d.ny}, {field3d.nt})")
    header = "\n".join([
        _HEADER,
        "spiraling field, one turn period",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {field3d.nx} {field3d.ny} {field3d.nt}",
        "ORIGIN {:.12g} {:.12g} {:.12g}".format(*field3d.origin),
        "SPACING {:.12g} {:.12g} {:.12g}".format(*field3d.spacing),
        f"POINT_DATA {field3d.nx * field3d.ny * field3d.nt}",
        "SCALARS v double 1",
        "LOOKUP_TABLE default",
    ]) + "\n"
    try:
        with replacing(path) as fh:
            fh.write(header)
            for plane in np.transpose(vals, (2, 1, 0)):   # t-slices, x fastest
                fh.write(_e11_lines(plane.ravel()))
    except OSError as exc:
        raise OSError(f"VTK export to {path} failed: {exc}") from exc

