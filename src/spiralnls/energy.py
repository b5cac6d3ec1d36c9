"""Inner products, energy functionals, and the preconditioned gradient.

The pitch-weighted inner product

    <u, v> = integral( grad u . grad v + (1/lam^2) d_theta u d_theta v + q u v )

is evaluated as the quadratic form of the discrete operator: per angular mode
the Dirichlet part is the face sum  sum_f R_f dr (du/dr)(dv/dr)  plus the
boundary penalty from the r = R closure, the centrifugal and angular pieces
are exact Parseval sums, and the mass term is a plain mode sum.  Defining the
form this way (rather than by independent first-derivative stencils) makes the
gradient identity  <gradient(u), v> = E'(u) v  and the Nehari algebra exact at
the discrete level; agreement with first-difference quadrature is a separate
O(dr^2) consistency check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, ModelParams, check_same_grid, solve_operator


@dataclass(frozen=True)
class EnergyBreakdown:
    """Pieces of E = (dirichlet + angular + mass)/2 - potential."""

    dirichlet: float   # integral |grad u|^2
    angular: float     # (1/lam^2) integral |d_theta u|^2
    mass: float        # q integral u^2
    potential: float   # (1/p) integral |u|^p
    total: float

    def norm_sq(self) -> float:
        """Squared pitch-weighted norm ||u||^2_{lam,q}."""
        return self.dirichlet + self.angular + self.mass


def lambda_inner(u: Field, v: Field, params: ModelParams) -> float:
    """Pitch-weighted scalar product <u, v>_{lam,q}; symmetric and bilinear.

    A field shared by both sides is transformed once.
    """
    check_same_grid(u, v)
    grid = u.grid
    U = grid.to_modes(u.values)
    V = U if v is u else grid.to_modes(v.values)
    return grid.operator(params).inner(U, V)


def lambda_norm(u: Field, params: ModelParams) -> float:
    return float(np.sqrt(max(lambda_inner(u, u, params), 0.0)))


def abs_power(values: np.ndarray, e: float) -> np.ndarray:
    """|values|^e; a whole exponent takes repeated products instead of pow."""
    n = int(e)
    if n != e or n < 1:
        return np.abs(values) ** e
    base = np.abs(values) if n % 2 else values
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def lp_integral(u: Field, p: float) -> float:
    """integral |u|^p by grid quadrature."""
    return u.grid.quad(abs_power(u.values, p))


def h1_norm_sq(u: Field) -> float:
    """Plain H^1 norm squared (Dirichlet energy + full mass term)."""
    U = u.grid.to_modes(u.values)
    d, _, m2 = u.grid.stencil.forms(U, U)
    return d + m2


def energy(u: Field, params: ModelParams) -> EnergyBreakdown:
    """Energy breakdown for E(u) = 0.5 ||u||^2_{lam,q} - (1/p) |u|_p^p."""
    if not np.all(np.isfinite(u.values)):
        raise FloatingPointError("field has non-finite values")
    U = u.grid.to_modes(u.values)
    d, a, m = u.grid.operator(params).pieces(U, U)
    pot = lp_integral(u, params.p) / params.p
    total = 0.5 * (d + a + m) - pot
    return EnergyBreakdown(d, a, m, pot, total)


def nonlinearity(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-2} u."""
    return abs_power(values, p - 2.0) * values


def gradient(u: Field, params: ModelParams) -> tuple[Field, np.ndarray]:
    """(g, S): the Riesz representative g of E'(u) in the pitch metric, and S.

    Solves <g, v> = E'(u) v for all v, i.e. g = u - L^{-1}(|u|^{p-2} u), via
    per-mode tridiagonal solves; S holds the modes of L^{-1}(|u|^{p-2} u).
    Given the modes U of u, the gradient's modes are U - S, equal to
    transforming g up to round-off.
    """
    sol, S = solve_operator(u.grid, params, nonlinearity(u.values, params.p))
    return Field(u.grid, u.values - sol), S


def h1_fd_norm_sq(u: Field) -> float:
    """Independent H^1 check: first-difference stencils in both directions.

    Interior radial faces only; serves as the O(dr^2) cross-check of the
    operator-based forms, and as the metric for recentred profile distances
    where the comparison field need not satisfy the sector's boundary
    conditions.
    """
    g = u.grid
    vals = u.values
    dr, dth = g.dr, g.dtheta
    faces = g.face_radii
    rad = np.sum(faces[1:-1, None] * (vals[1:] - vals[:-1]) ** 2) / dr
    if g.sector.is_full:
        dth_vals = np.diff(np.concatenate([vals, vals[:, :1]], axis=1), axis=1)
    else:
        dth_vals = np.diff(vals, axis=1)
    ang = np.sum((dth_vals**2 / g.radii[:, None]) * dr) / dth
    mass = g.quad(vals**2)
    return float(rad * dth + ang + mass)
