"""Nehari-manifold algebra: ray scaling, nodal projection, residuals.

A nontrivial field scaled by t = (||u||^2 / |u|_p^p)^{1/(p-2)} lands exactly on
the discrete Nehari set { E'(u) u = 0 }.  For sign-changing fields the positive
and negative parts are measured with the indicator convention

    ||u^+||^2 := <u, u^+>  =  integral over {u > 0} of the quadratic density,

which keeps the splitting identities E(u) = E(u^+) + E(u^-) and
E'(u)u = E'(u)u^+ + E'(u)u^- exact at the discrete level.  The pointwise-
clipped field differs from the indicator convention by an O(dr) interface
commitment (the discrete cross term <u^+, u^->), which the nodal projection
absorbs with a short fixed-point correction on the two part scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import lp_integral
from .errors import OnePhaseMissing, ZeroFieldError
from .grid import Field, ModelParams

_NODAL_TOL = 1e-14     # relative change of the part scalings that ends the fixed point
_NODAL_ITERS = 60


@dataclass(frozen=True)
class NehariResidual:
    """Normalized manifold residuals; NaN marks a missing phase."""

    single: float   # E'(u) u / ||u||^2
    plus: float     # E'(u) u^+ / <u, u^+>
    minus: float    # E'(u) u^- / <u, u^->


class Projected(NamedTuple):
    """A field on the Nehari set (or M_lam) with its angular modes and its energy.

    The projections compute both from forms they evaluate anyway, so the
    solver can carry them instead of transforming and integrating again.
    """

    field: Field
    modes: np.ndarray
    energy: float


def split_parts(u: Field):
    """Pointwise positive/negative parts, u = u^+ + u^- with u^- <= 0."""
    plus = Field(u.grid, np.maximum(u.values, 0.0))
    minus = Field(u.grid, np.minimum(u.values, 0.0))
    return plus, minus


def _ray(u: Field, params: ModelParams):
    """(t, modes of u, ||u||^2, |u|_p^p): the Nehari scale t and its ingredients."""
    pp = lp_integral(u, params.p)
    if pp == 0.0:
        raise ZeroFieldError("nehari_scale of the zero field")
    U = u.grid.to_modes(u.values)
    n2 = u.grid.operator(params).inner(U, U)
    return float((n2 / pp) ** (1.0 / (params.p - 2.0))), U, n2, pp


def nehari_scale(u: Field, params: ModelParams) -> float:
    """The unique t > 0 with E'(t u)(t u) = 0."""
    return _ray(u, params)[0]


def project_ray(u: Field, params: ModelParams) -> Projected:
    """t u on the Nehari set, with modes t U and energy t^2 ||u||^2/2 - t^p |u|_p^p/p."""
    t, U, n2, pp = _ray(u, params)
    total = 0.5 * t * t * n2 - t ** params.p * pp / params.p
    return Projected(Field(u.grid, t * u.values), t * U, total)


def _parts_with_modes(u: Field):
    """u^+, u^- and the angular modes of each, one transform per part."""
    plus, minus = split_parts(u)
    return plus, minus, u.grid.to_modes(plus.values), u.grid.to_modes(minus.values)


def manifold_residual(u: Field, params: ModelParams) -> NehariResidual:
    """Normalized residuals measuring membership in N_lam and M_lam."""
    op = u.grid.operator(params)
    U = u.grid.to_modes(u.values)
    n2 = op.inner(U, U)
    if n2 == 0.0:
        if not np.any(u.values):
            raise ZeroFieldError("manifold_residual of the zero field")
        raise FloatingPointError("manifold_residual: the field is not zero, but its squared "
                                 "pitch norm underflows")
    pp = lp_integral(u, params.p)
    single = (n2 - pp) / n2

    plus, minus, P, M = _parts_with_modes(u)
    out = []
    for part, modes in ((plus, P), (minus, M)):
        qp = lp_integral(part, params.p)
        if qp == 0.0:
            out.append(math.nan)
            continue
        part_form = op.inner(U, modes)
        out.append((part_form - qp) / part_form)
    return NehariResidual(float(single), out[0], out[1])


def project_nodal(u: Field, params: ModelParams) -> Projected:
    """Scale u^+ and u^- separately so both parts land on the Nehari set.

    The part scalings decouple up to the discrete interface cross term; the
    independent-scaling formula seeds a fixed-point iteration that drives both
    indicator-convention residuals to round-off.  Returns a u^+ + b u^- with
    its modes a P + b M and its energy

        (a^2 A++ + 2 a b A+- + b^2 A--)/2 - (a^p |u^+|_p^p + b^p |u^-|_p^p)/p,

    from the part forms the scalings are computed from.  Raises ZeroFieldError
    when both parts vanish and OnePhaseMissing when one does.
    """
    plus, minus, P, M = _parts_with_modes(u)
    pp = lp_integral(plus, params.p)
    pm = lp_integral(minus, params.p)
    if pp == 0.0 and pm == 0.0:
        raise ZeroFieldError("project_nodal of the zero field")
    if pp == 0.0 or pm == 0.0:
        raise OnePhaseMissing("field does not change sign")

    a_pp, cross, a_mm = u.grid.operator(params).gram(P, M)
    ex = 1.0 / (params.p - 2.0)

    # independent scalings with the indicator-convention part norms
    a = ((a_pp + cross) / pp) ** ex
    b = ((a_mm + cross) / pm) ** ex
    for _ in range(_NODAL_ITERS):
        qa = a_pp + (b / a) * cross
        qb = a_mm + (a / b) * cross
        if qa <= 0.0 or qb <= 0.0:
            break  # pathological interface field; keep last iterate
        a_new = (qa / pp) ** ex
        b_new = (qb / pm) ** ex
        shift = abs(a_new - a) + abs(b_new - b)
        a, b = a_new, b_new
        if shift <= _NODAL_TOL * (a + b):
            break
    total = (0.5 * (a * a * a_pp + 2.0 * a * b * cross + b * b * a_mm)
             - (a ** params.p * pp + b ** params.p * pm) / params.p)
    return Projected(Field(u.grid, a * plus.values + b * minus.values), a * P + b * M, total)
