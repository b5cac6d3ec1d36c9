import numpy as np
import pytest
from reference import apply_angular_derivative, apply_operator, field_from_polar
from scipy.fft import dst, idst

from spiralnls.energy import lambda_inner
from spiralnls.errors import GridMismatchError
from spiralnls.grid import (
    Field,
    ModelParams,
    SectorKind,
    build_grid,
    solve_operator,
)


def test_staggered_radii():
    g = build_grid(1.0, 2, 4, SectorKind.full_disk())
    np.testing.assert_allclose(g.radii, [0.25, 0.75], rtol=0, atol=0)


def test_disk_area_quadrature():
    g = build_grid(2.0, 128, 64, SectorKind.full_disk())
    area = g.quad(np.ones((128, 64)))
    assert abs(area - 4 * np.pi) <= 1e-10 * 4 * np.pi


def test_cone_nodes_strictly_inside():
    g = build_grid(1.0, 8, 8, SectorKind.cone(np.pi / 4))
    assert np.all(g.angles > -np.pi / 4)
    assert np.all(g.angles < np.pi / 4)


def test_half_disk_excludes_dirichlet_rays():
    g = build_grid(1.0, 8, 8, SectorKind.half_disk())
    assert np.all(np.abs(g.angles) < np.pi / 2)


def test_radii_strictly_positive():
    for sector in (SectorKind.full_disk(), SectorKind.cone(0.3)):
        g = build_grid(5.0, 16, 8, sector)
        assert np.all(g.radii > 0)


@pytest.mark.parametrize("bad", [
    dict(R=0.0, nr=8, ntheta=8),
    dict(R=-1.0, nr=8, ntheta=8),
    dict(R=1.0, nr=1, ntheta=8),
    dict(R=1.0, nr=8, ntheta=1),
])
def test_build_grid_rejects(bad):
    with pytest.raises(ValueError):
        build_grid(sector=SectorKind.full_disk(), **bad)


def test_full_disk_needs_even_ntheta():
    with pytest.raises(ValueError):
        build_grid(1.0, 8, 7, SectorKind.full_disk())


def test_cone_angle_validation():
    with pytest.raises(ValueError):
        SectorKind.cone(0.0)
    with pytest.raises(ValueError):
        SectorKind.cone(np.pi)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p=2.0, q=1, lam=1.0)
    with pytest.raises(ValueError):
        ModelParams(p=4.0, q=2, lam=1.0)
    with pytest.raises(ValueError):
        ModelParams(p=4.0, q=1, lam=0.0)


def test_fields_compare_and_hash_by_identity():
    g = build_grid(1.0, 8, 8, SectorKind.full_disk())
    a, b = Field(g, np.ones((8, 8))), Field(g, np.ones((8, 8)))
    assert (a == b) is False
    assert a == a
    assert len({a, b, a}) == 2


def test_angular_derivative_of_x1():
    g = build_grid(2.0, 64, 32, SectorKind.full_disk())
    u = field_from_polar(g, lambda r, t: r * np.cos(t))
    du = apply_angular_derivative(u)
    ref = field_from_polar(g, lambda r, t: -r * np.sin(t))
    assert np.max(np.abs(du.values - ref.values)) < 1e-12


def test_angular_derivative_radial_is_zero():
    g = build_grid(2.0, 32, 16, SectorKind.full_disk())
    u = field_from_polar(g, lambda r, t: np.exp(-r**2) + 0 * t)
    du = apply_angular_derivative(u)
    assert np.max(np.abs(du.values)) < 1e-14


def test_angular_derivative_single_mode():
    g = build_grid(2.0, 32, 16, SectorKind.full_disk())
    u = field_from_polar(g, lambda r, t: r * np.cos(2 * t))
    du = apply_angular_derivative(u)
    ref = field_from_polar(g, lambda r, t: -2 * r * np.sin(2 * t))
    assert np.max(np.abs(du.values - ref.values)) < 1e-12


def test_angular_derivative_sector_sine_mode():
    g = build_grid(2.0, 16, 15, SectorKind.half_disk())
    # lowest Dirichlet mode on the half disk is cos(theta)
    u = field_from_polar(g, lambda r, t: r * np.cos(t))
    du = apply_angular_derivative(u)
    ref = field_from_polar(g, lambda r, t: -r * np.sin(t))
    assert np.max(np.abs(du.values - ref.values)) < 1e-12


def test_operator_on_zero(params_q1, small_disk):
    u = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    out = apply_operator(u, params_q1)
    assert np.all(out.values == 0.0)


def test_operator_radial_is_lambda_independent(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r**2) + 0 * t)
    outs = [apply_operator(u, ModelParams(p=4.0, q=1, lam=lam)).values
            for lam in (0.5, 1.0, 2.0)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


def test_operator_maps_radial_to_radial(small_disk, params_q1):
    u = field_from_polar(small_disk, lambda r, t: np.cos(r) + 0 * t)
    out = apply_operator(u, params_q1)
    assert np.max(np.ptp(out.values, axis=1)) < 1e-13 * np.max(np.abs(out.values))


def test_operator_mode_decoupling(params_q1):
    g = build_grid(2.0, 16, 16, SectorKind.full_disk())
    u = field_from_polar(g, lambda r, t: r**2 * np.exp(-r) * np.cos(3 * t))
    out = apply_operator(u, params_q1)
    modes = g.to_modes(out.values)
    power = np.abs(modes).sum(axis=0)
    others = np.delete(power, 3)
    assert np.max(others) < 1e-12 * power[3]


@pytest.mark.parametrize("n", [2, 3, 64, 96, 256])
@pytest.mark.parametrize("sector", [SectorKind.half_disk(), SectorKind.cone(0.7)],
                         ids=["half", "cone"])
def test_sector_transform_matches_scipy_dst(sector, n):
    # the sine-matrix products are scipy's DST-I and its inverse to round-off
    g = build_grid(3.0, 12, n, sector)
    v = np.random.default_rng(n).standard_normal((12, n))
    for ours, want in ((g.to_modes(v), dst(v, type=1, axis=1)),
                       (g.from_modes(v), idst(v, type=1, axis=1))):
        assert np.max(np.abs(ours - want)) <= 1e-13 * np.max(np.abs(want))
    back = g.from_modes(g.to_modes(v))
    assert np.max(np.abs(back - v)) <= 2 * (n + 1) * np.finfo(float).eps * np.max(np.abs(v))


@pytest.mark.parametrize("n", [2, 4, 16, 64, 96, 256])
def test_disk_transform_matches_numpy_rfft(n):
    # the cos columns are rfft's real parts for m = 0, ..., n/2 and the sin
    # columns its imaginary parts for m = 1, ..., n/2 - 1
    g = build_grid(3.0, 12, n, SectorKind.full_disk())
    v = np.random.default_rng(n).standard_normal((12, n))
    want = np.fft.rfft(v, axis=1)
    modes = g.to_modes(v)
    h = n // 2
    for ours, part in ((modes[:, :h + 1], want.real), (modes[:, h + 1:], want.imag[:, 1:h])):
        assert np.max(np.abs(ours - part), initial=0.0) <= 1e-13 * np.max(np.abs(want))
    back = g.from_modes(modes)
    assert np.max(np.abs(back - v)) <= 1e-13 * np.max(np.abs(v))


def test_disk_modes_of_a_radial_row_are_exactly_zero(small_disk):
    # the mean mode takes a constant row whole, so L keeps radial fields radial
    v = np.outer(np.random.default_rng(7).standard_normal(small_disk.nr),
                 np.ones(small_disk.ntheta))
    modes = small_disk.to_modes(v)
    assert np.all(modes[:, 1:] == 0.0)
    assert np.all(np.ptp(small_disk.from_modes(modes), axis=1) == 0.0)


def _dense_matrix(grid, params):
    n = grid.nr * grid.ntheta
    A = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        A[:, i] = apply_operator(
            Field(grid, e.reshape(grid.nr, grid.ntheta)), params).values.ravel()
    return A


def test_operator_self_adjoint_small_grid():
    # dense assembly on a tiny grid; symmetry in the quadrature inner product
    g = build_grid(3.0, 6, 8, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=0.7)
    A = _dense_matrix(g, params)
    WA = np.diag(g.weights.ravel()) @ A
    assert np.max(np.abs(WA - WA.T)) <= 1e-9 * np.max(np.abs(WA))


def test_operator_self_adjoint_random_pairs(small_half, rng):
    params = ModelParams(p=4.0, q=1, lam=1.3)
    shape = (small_half.nr, small_half.ntheta)
    for _ in range(5):
        u = Field(small_half, rng.standard_normal(shape))
        v = Field(small_half, rng.standard_normal(shape))
        lhs = small_half.quad(v.values * apply_operator(u, params).values)
        rhs = small_half.quad(u.values * apply_operator(v, params).values)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_quadratic_form_positive(small_disk, rng):
    params = ModelParams(p=4.0, q=1, lam=0.9)
    for _ in range(5):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        assert small_disk.quad(u.values * apply_operator(u, params).values) > 0


def _fd_pitch_form(u, params):
    """Independent first-difference evaluation of the pitch form."""
    g = u.grid
    vals = u.values
    dr, dth = g.dr, g.dtheta
    faces = g.face_radii
    # radial gradient on interior faces + boundary closure
    rad = np.sum(faces[1:-1, None] * (vals[1:] - vals[:-1]) ** 2) / dr * dth
    rad += 2 * faces[-1] / dr * np.sum(vals[-1] ** 2) * dth
    wrapped = np.concatenate([vals, vals[:, :1]], axis=1)
    dtheta_u = np.diff(wrapped, axis=1) / dth                  # finite-diff d_theta u
    ang_grad = np.sum(dtheta_u**2 / g.radii[:, None] * dr) * dth    # u_theta^2 / r^2
    ang_pitch = np.sum(dtheta_u**2 * g.radii[:, None] * dr) * dth   # |d_theta u|^2
    mass = g.quad(vals**2)
    return rad + ang_grad + ang_pitch / params.lam**2 + params.q * mass


def test_form_matches_first_difference_stencils():
    # <Lu, u> versus independent first-derivative quadrature: O(dr^2) on smooth fields
    params = ModelParams(p=4.0, q=1, lam=0.8)
    errs = []
    for nr, nth in ((48, 32), (96, 64)):
        g = build_grid(4.0, nr, nth, SectorKind.full_disk())
        u = field_from_polar(
            g, lambda r, t: np.exp(-(r**2)) * (1 + 0.5 * np.cos(t)) * (g.R - r))
        form = lambda_inner(u, u, params)
        fd = _fd_pitch_form(u, params)
        errs.append(abs(form - fd) / fd)
    assert errs[0] < 0.05
    assert errs[1] < 0.6 * errs[0]


def test_grid_mismatch_rejected(small_disk, small_half, params_q1):
    u = Field(small_disk, np.ones((small_disk.nr, small_disk.ntheta)))
    v = Field(small_half, np.ones((small_half.nr, small_half.ntheta)))
    with pytest.raises(GridMismatchError):
        lambda_inner(u, v, params_q1)


def test_field_shape_mismatch_rejected(small_disk):
    with pytest.raises(GridMismatchError):
        Field(small_disk, np.zeros((3, 3)))


def test_solve_operator_inverts_apply(small_cone, rng, params_q1):
    rhs = rng.standard_normal((small_cone.nr, small_cone.ntheta))
    x = solve_operator(small_cone, params_q1, rhs)[0]
    back = apply_operator(Field(small_cone, x), params_q1).values
    assert np.max(np.abs(back - rhs)) < 1e-10


def test_operator_output_finite_guard(small_disk, params_q1):
    u = Field(small_disk, np.full((small_disk.nr, small_disk.ntheta), np.nan))
    with pytest.raises(FloatingPointError):
        apply_operator(u, params_q1)


def test_field_is_radial_flag(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.cos(r) + 0 * t)
    assert u.is_radial()
    v = field_from_polar(small_disk, lambda r, t: np.cos(r) * np.cos(t))
    assert not v.is_radial()


@pytest.mark.parametrize("sector,n", [(SectorKind.full_disk(), 16), (SectorKind.half_disk(), 15),
                                      (SectorKind.cone(0.7), 8)])
def test_mirror_maps_theta_to_minus_theta(sector, n):
    g = build_grid(3.0, 4, n, sector)
    assert np.array_equal(g.mirror[g.mirror], np.arange(n))
    # on the disk node 0 sits at -pi, its own mirror image
    assert np.allclose(np.sin(g.angles[g.mirror]), -np.sin(g.angles), rtol=0, atol=1e-15)
    assert np.allclose(np.cos(g.angles[g.mirror]), np.cos(g.angles), rtol=0, atol=1e-15)


def test_class_view_picks_the_class_the_values_lie_in(small_disk, small_half):
    radial = field_from_polar(small_disk, lambda r, t: np.cos(r) + 0 * t).values
    even = field_from_polar(small_disk, lambda r, t: np.cos(r) * np.cos(t)).values
    even = 0.5 * (even + even[:, small_disk.mirror])
    odd = field_from_polar(small_disk, lambda r, t: np.cos(r) * np.sin(t)).values
    assert small_disk.class_view(radial) is small_disk.folded((0,))
    assert small_disk.class_view(even) is small_disk.folded(small_disk.even_columns())
    assert small_disk.class_view(odd) is small_disk
    assert np.array_equal(small_disk.orbit, np.arange(small_disk.ntheta))
    # a theta-constant field on a sector is even, not radial
    flat = np.ones((small_half.nr, small_half.ntheta))
    assert small_half.class_view(flat) is small_half.folded(small_half.even_columns())


def test_grids_compare_and_hash_by_shape():
    a = build_grid(3.0, 8, 8, SectorKind.full_disk())
    b = build_grid(3.0, 8, 8, SectorKind.full_disk())
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != build_grid(3.0, 10, 8, SectorKind.full_disk())
    assert a != build_grid(3.0, 8, 8, SectorKind.half_disk())


def test_fields_on_equal_grids_combine():
    a = build_grid(3.0, 8, 8, SectorKind.full_disk())
    b = build_grid(3.0, 8, 8, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = field_from_polar(a, lambda r, t: np.exp(-r * r))
    v = field_from_polar(b, lambda r, t: np.exp(-r * r))
    assert lambda_inner(u, v, params) == lambda_inner(u, u, params)
