"""Symmetry measurements and the inequality checks used to vet solutions.

Covers the nonradiality index, the angular Poincare (Wirtinger)
inequalities -- exact here because the angular discretization is spectral --
the explicit smallness threshold on the pitch that forces radial symmetry,
and angular monotonicity on sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SectorError
from .grid import Field, ModelParams

RADIAL_TOL = 1e-6  # nonradiality below this classifies a field as radial
_MONOTONE_SLACK = 1e-8   # angular monotonicity slack, relative to |u|_inf


@dataclass(frozen=True)
class SymmetryReport:
    nonradiality: float          # ||u - u#|| / ||u|| in the pitch metric
    linf: float
    radiality_threshold: float   # (1 / ((p-1) |u|_inf^{p-2}))^{1/2}
    below_threshold: bool        # lam < threshold (full disk only)
    angular_monotone: bool | None  # sectors only; None on the full disk
    wirtinger_ok: bool


def nonradiality_index(u: Field, params: ModelParams) -> float:
    """Pitch-metric distance to the radial average, relative to ||u||.

    On the disk the radial average is the mean mode column, so one transform
    gives both norms, and a radial field, whose other columns to_modes leaves
    exactly 0, reads exactly 0.  Sector fields vanish on the boundary rays, so
    any nonzero one is nonradial; the index is pinned to 1 there.
    """
    if not u.grid.sector.is_full:
        return 1.0 if np.any(u.values) else 0.0
    return _disk_nonradiality(u.grid.to_modes(u.values), u.grid.operator(params))


def _disk_nonradiality(U: np.ndarray, op) -> float:
    """The disk's index from the field's modes U; zeroes U's mean column."""
    norm2 = op.inner(U, U)
    if norm2 == 0.0:
        return 0.0
    U[:, 0] = 0.0
    return math.sqrt(op.inner(U, U) / norm2)


def check_wirtinger(u: Field):
    """Both sides of the applicable angular Poincare inequality and the verdict.

    Full disk:  |u|_2^2 <= |d_theta u|_2^2 + |u#|_2^2   (squares).
    Sectors (half opening theta0):  |u|_2 <= (2 theta0 / pi) |d_theta u|_2.
    Spectral angular differentiation makes both exact mode by mode.
    """
    return _wirtinger(u.grid, u.grid.to_modes(u.values))


def _wirtinger(grid, U: np.ndarray):
    """check_wirtinger of the field with modes U."""
    st = grid.stencil
    _, dth2, l2 = st.forms(U, U)
    if grid.sector.is_full:
        lhs, rhs = l2, dth2 + float(st.cm[0] * (st.wr @ U[:, 0] ** 2))
    else:
        theta0 = grid.sector.half_angle
        lhs, rhs = math.sqrt(l2), (2 * theta0 / math.pi) * math.sqrt(dth2)
    ok = lhs <= rhs * (1 + 1e-12) + 1e-300
    return lhs, rhs, bool(ok)


def radiality_threshold(linf: float, p: float) -> float:
    """Pitch bound below which any solution of the whole-plane problem is radial."""
    if linf == 0.0:
        return math.inf
    return (1.0 / ((p - 1.0) * linf ** (p - 2.0))) ** 0.5


def angular_monotone(u: Field) -> bool:
    """On sectors: is each radius profile nonincreasing in |theta|?

    Checks both half-axes separately with slack proportional to |u|_inf so
    round-off never fails a genuinely monotone solution.
    """
    if u.grid.sector.is_full:
        raise SectorError("angular monotonicity is a sector property")
    slack = _MONOTONE_SLACK * max(u.linf(), 1e-300)
    angles = u.grid.angles
    pos = angles >= 0
    right = u.values[:, pos][:, np.argsort(angles[pos])]       # ascending theta >= 0
    left = u.values[:, ~pos][:, np.argsort(-angles[~pos])]     # descending theta < 0
    ok_right = np.all(np.diff(right, axis=1) <= slack)
    ok_left = np.all(np.diff(left, axis=1) <= slack)
    return bool(ok_right and ok_left)


def symmetry_report(u: Field, params: ModelParams) -> SymmetryReport:
    """u's nonradiality, |u|_inf against the radiality threshold, and its checks."""
    linf = u.linf()
    threshold = radiality_threshold(linf, params.p)
    grid = u.grid
    full = grid.sector.is_full
    U = grid.to_modes(u.values)   # one transform for the Wirtinger check and the index
    wirtinger_ok = _wirtinger(grid, U)[2]
    return SymmetryReport(
        nonradiality=(_disk_nonradiality(U, grid.operator(params)) if full
                      else nonradiality_index(u, params)),
        linf=linf,
        radiality_threshold=threshold,
        # the threshold theorem concerns the whole-plane problem; on sectors
        # the flag stays False rather than asserting an inapplicable symmetry
        below_threshold=bool(full and params.lam < threshold),
        angular_monotone=None if full else angular_monotone(u),
        wirtinger_ok=wirtinger_ok,
    )
