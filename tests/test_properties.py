"""Property tests of the discrete identities on small random grids and fields."""

import numpy as np
from hypothesis import given, settings, strategies as st
from reference import operator_apply

from spiralnls.grid import ModelParams, SectorKind, build_grid

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(["full", "half", "cone"]))
    if kind == "full":
        sector, ntheta = SectorKind.full_disk(), 2 * draw(st.integers(1, 8))
    else:
        sector = (SectorKind.half_disk() if kind == "half"
                  else SectorKind.cone(draw(st.floats(0.1, 3.0))))
        ntheta = draw(st.integers(2, 16))
    return build_grid(draw(st.floats(0.5, 20.0)), draw(st.integers(2, 24)), ntheta, sector)


params = st.builds(lambda q, e: ModelParams(p=4.0, q=q, lam=10.0 ** e),
                   st.sampled_from([0, 1]), st.floats(-1.5, 1.7))


def _fields(grid, seed, count):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((grid.nr, grid.ntheta)) for _ in range(count)]


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_inner_symmetric_bilinear_positive(grid, par, seed, a):
    op = grid.operator(par)
    U, V, W = (grid.to_modes(f) for f in _fields(grid, seed, 3))
    nu, nv, nw = op.inner(U, U), op.inner(V, V), op.inner(W, W)
    assert min(nu, nv, nw) > 0.0
    scale = np.sqrt(nu * nv)
    assert abs(op.inner(U, V) - op.inner(V, U)) <= 1e-14 * scale
    lhs = op.inner(a * U + V, W)
    rhs = a * op.inner(U, W) + op.inner(V, W)
    assert abs(lhs - rhs) <= 1e-13 * (abs(a) * np.sqrt(nu) + np.sqrt(nv)) * np.sqrt(nw)


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1))
def test_solve_inverts_apply(grid, par, seed):
    op = grid.operator(par)
    (X,) = (grid.to_modes(f) for f in _fields(grid, seed, 1))
    scale = np.max(np.abs(X))
    assert np.max(np.abs(op.solve(operator_apply(op, X)) - X)) <= 1e-11 * scale
    assert np.max(np.abs(operator_apply(op, op.solve(X)) - X)) <= 1e-11 * scale


@PROPERTY
@given(grids(), st.integers(0, 2**32 - 1))
def test_mass_form_is_quadrature(grid, seed):
    # Parseval: the mode-space mass form is the nodal quadrature of u v
    u, v = _fields(grid, seed, 2)
    mass2 = grid.stencil.forms(grid.to_modes(u), grid.to_modes(v))[2]
    assert abs(mass2 - grid.quad(u * v)) <= 1e-13 * np.sqrt(grid.quad(u * u) * grid.quad(v * v))
