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


def export_vtk(field3d: SpiralField3D, path) -> None:
    """Write a legacy ASCII structured-points volume (scalar array "v").

    One value per line, x-fastest ordering, 12 significant digits,
    locale-independent formatting.  Like every artifact, the volume is
    written beside its target and renamed over it.
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
    template = "%.11e\n" * (field3d.nx * field3d.ny)
    try:
        with replacing(path) as fh:
            fh.write(header)
            # one %-format per t-slice, x fastest; %e shares str.format's
            # float formatter, so the bytes are those of "{:.11e}".format
            for plane in np.transpose(vals, (2, 1, 0)):
                fh.write(template % tuple(plane.ravel().tolist()))
    except OSError as exc:
        raise OSError(f"VTK export to {path} failed: {exc}") from exc

