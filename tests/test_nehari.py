import numpy as np
import pytest

from reference import directional_derivative, field_from_polar, interface_commitment
from spiralnls.energy import energy, lambda_inner, lp_integral
from spiralnls.errors import OnePhaseMissing, ZeroFieldError
from spiralnls.grid import Field
from spiralnls.nehari import (
    manifold_residual,
    nehari_scale,
    project_nodal,
    split_parts,
)


def _dipole(grid):
    return field_from_polar(
        grid, lambda r, t: r * np.exp(-0.5 * (r - 1.2) ** 2) * np.cos(t))


def test_scale_formula_arithmetic():
    # p = 4, ||u||^2 = 2, |u|_4^4 = 8  ->  t = (2/8)^{1/2} = 0.5
    assert (2.0 / 8.0) ** (1.0 / (4.0 - 2.0)) == 0.5


def test_scaled_field_lands_on_manifold(small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    t = nehari_scale(u, params_q1)
    assert t > 0
    v = Field(small_disk, t * u.values)
    res = directional_derivative(v, v, params_q1)
    assert abs(res) <= 1e-12 * lambda_inner(v, v, params_q1)
    assert abs(manifold_residual(v, params_q1).single) <= 1e-12


def test_scale_homogeneity(small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    t_u = nehari_scale(u, params_q1)
    for c in (0.1, 3.0, 17.0):
        t_cu = nehari_scale(Field(small_disk, c * u.values), params_q1)
        assert abs(t_cu * c - t_u) <= 1e-12 * t_u


def test_scale_rejects_zero(small_disk, params_q1):
    z = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    with pytest.raises(ZeroFieldError):
        nehari_scale(z, params_q1)


def test_nodal_projection_tells_a_zero_field_from_a_one_signed_one(small_disk, params_q1):
    shape = (small_disk.nr, small_disk.ntheta)
    with pytest.raises(ZeroFieldError):
        project_nodal(Field(small_disk, np.zeros(shape)), params_q1)
    with pytest.raises(OnePhaseMissing):
        project_nodal(Field(small_disk, np.ones(shape)), params_q1)


def test_energy_along_rays(small_disk, params_q1, rng):
    # t -> E(t u) has its unique positive max at nehari_scale(u), with the
    # closed-form peak value; verified by dense sampling
    p = params_q1.p
    for _ in range(5):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        t_star = nehari_scale(u, params_q1)
        n2 = lambda_inner(u, u, params_q1)
        pp = lp_integral(u, p)
        e_star = energy(Field(small_disk, t_star * u.values), params_q1).total
        peak = (0.5 - 1.0 / p) * n2 ** (p / (p - 2.0)) / pp ** (2.0 / (p - 2.0))
        assert abs(e_star - peak) <= 1e-11 * abs(peak)
        ts = t_star * np.linspace(0.05, 2.5, 81)
        es = [energy(Field(small_disk, t * u.values), params_q1).total for t in ts]
        assert e_star >= max(es) - 1e-11 * abs(e_star)


def test_project_nodal_dipole_residuals(small_disk, params_q1):
    u = _dipole(small_disk)
    w = project_nodal(u, params_q1).field
    res = manifold_residual(w, params_q1)
    assert abs(res.plus) < 1e-10
    assert abs(res.minus) < 1e-10


def test_project_nodal_idempotent(small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    w1 = project_nodal(u, params_q1).field
    w2 = project_nodal(w1, params_q1).field
    assert np.max(np.abs(w2.values - w1.values)) <= 1e-12 * np.max(np.abs(w1.values))


def test_project_nodal_fixed_point_on_manifold(small_disk, params_q1):
    u = project_nodal(_dipole(small_disk), params_q1).field
    w = project_nodal(u, params_q1).field
    assert np.max(np.abs(w.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_project_nodal_one_phase(small_disk, params_q1):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) + 0 * t)
    with pytest.raises(OnePhaseMissing):
        project_nodal(u, params_q1)


def test_residual_parts_nan_for_one_signed(small_disk, params_q1):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) + 0 * t)
    res = manifold_residual(u, params_q1)
    assert np.isnan(res.minus)
    assert np.isfinite(res.single)
    assert np.isfinite(res.plus)


def test_residual_constant_field_explicit_quadrature():
    # u = 1 on a tiny grid: single = (||u||^2 - |u|_4^4) / ||u||^2 with both
    # pieces computed here by explicit quadrature
    from spiralnls.grid import ModelParams, SectorKind, build_grid
    g = build_grid(2.0, 4, 4, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = Field(g, np.ones((4, 4)))
    res = manifold_residual(u, params)
    # constant field: no gradient except the Dirichlet boundary penalty
    area = np.pi * g.R**2
    boundary = 2 * g.face_radii[-1] / g.dr * g.dtheta * g.ntheta
    n2 = boundary + area    # |grad|^2 (boundary closure) + q |u|^2
    pp = area               # |u|_4^4 of the constant 1
    expected = (n2 - pp) / n2
    assert abs(res.single - expected) <= 1e-12 * abs(expected)


def test_decomposition_identities(small_disk, params_q1, rng):
    # indicator convention: E(u) = E(u+) + E(u-), E'(u)u = E'(u)u+ + E'(u)u-
    p = params_q1.p
    for _ in range(5):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        plus, minus = split_parts(u)
        e_u = energy(u, params_q1).total
        e_parts = 0.0
        dd_parts = 0.0
        for part in (plus, minus):
            form = lambda_inner(u, part, params_q1)
            pp = lp_integral(part, p)
            e_parts += 0.5 * form - pp / p
            dd_parts += form - pp
        assert abs(e_u - e_parts) <= 1e-12 * (1 + abs(e_u))
        dd_u = directional_derivative(u, u, params_q1)
        assert abs(dd_u - dd_parts) <= 1e-11 * (1 + abs(dd_u))


def test_interface_commitment_shrinks_with_resolution(params_q1):
    # the discrete cross term <u+, u-> is an O(dr) interface effect
    from spiralnls.grid import SectorKind, build_grid
    vals = []
    for nr, nth in ((24, 16), (96, 64)):
        g = build_grid(3.0, nr, nth, SectorKind.full_disk())
        u = _dipole(g)
        vals.append(abs(interface_commitment(u, params_q1)))
    assert vals[1] < 0.5 * vals[0]
