import numpy as np
import pytest

from reference import directional_derivative, field_from_polar
from spiralnls.energy import (
    abs_power,
    energy,
    gradient,
    h1_fd_norm_sq,
    h1_norm_sq,
    lambda_inner,
    lp_integral,
)
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.nehari import nehari_scale
from spiralnls.radial import shoot_ground


def test_inner_definiteness(small_disk, params_q1, rng):
    z = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    assert lambda_inner(z, z, params_q1) == 0.0
    for _ in range(5):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        assert lambda_inner(u, u, params_q1) > 0.0


def test_inner_symmetric_bilinear(small_disk, params_q1, rng):
    shape = (small_disk.nr, small_disk.ntheta)
    u = Field(small_disk, rng.standard_normal(shape))
    v = Field(small_disk, rng.standard_normal(shape))
    w = Field(small_disk, rng.standard_normal(shape))
    a, b = 1.7, -0.4
    lhs = lambda_inner(Field(small_disk, a * u.values + b * v.values), w, params_q1)
    rhs = a * lambda_inner(u, w, params_q1) + b * lambda_inner(v, w, params_q1)
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1)
    assert abs(lambda_inner(u, v, params_q1)
               - lambda_inner(v, u, params_q1)) <= 1e-12 * abs(lambda_inner(u, v, params_q1))


def test_radial_inner_lambda_independent(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) + 0 * t)
    vals = [lambda_inner(u, u, ModelParams(p=4.0, q=1, lam=lam))
            for lam in (0.25, 1.0, 4.0)]
    assert vals[0] == vals[1] == vals[2]


def test_halving_lambda_quadruples_angular_term(small_disk):
    u = field_from_polar(
        small_disk, lambda r, t: r * np.cos(t) * np.exp(-(r**2)))
    lam = 0.8
    e1 = energy(u, ModelParams(p=4.0, q=1, lam=lam))
    e2 = energy(u, ModelParams(p=4.0, q=1, lam=lam / 2))
    # the lam^-2 coefficient scales by 4: halving lam adds exactly 3x the term
    added = lambda_inner(u, u, ModelParams(p=4.0, q=1, lam=lam / 2)) \
        - lambda_inner(u, u, ModelParams(p=4.0, q=1, lam=lam))
    assert abs(added - 3 * e1.angular) <= 1e-12 * abs(added)
    assert abs(e2.angular - 4 * e1.angular) <= 1e-12 * abs(e2.angular)


def test_energy_zero_field(small_disk, params_q1):
    z = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    assert energy(z, params_q1).total == 0.0


def test_energy_breakdown_identity(small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    b = energy(u, params_q1)
    assert b.total == 0.5 * (b.dirichlet + b.angular + b.mass) - b.potential


def test_nehari_identity_on_projected_field(small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    t = nehari_scale(u, params_q1)
    v = Field(small_disk, t * u.values)
    b = energy(v, params_q1)
    p = params_q1.p
    expected = (0.5 - 1.0 / p) * b.norm_sq()
    assert abs(b.total - expected) <= 1e-12 * abs(b.total)


def test_energy_monotone_in_lambda(small_disk, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    e1 = energy(u, ModelParams(p=4.0, q=1, lam=0.5)).total
    e2 = energy(u, ModelParams(p=4.0, q=1, lam=1.0)).total
    e3 = energy(u, ModelParams(p=4.0, q=1, lam=2.0)).total
    assert e1 >= e2 >= e3


def test_radial_energy_bit_identical_across_lambda(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-(r**2)) + 0 * t)
    totals = [energy(u, ModelParams(p=4.0, q=1, lam=lam)).total
              for lam in (0.3, 1.0, 3.7)]
    assert totals[0] == totals[1] == totals[2]


def test_oracle_profile_2d_energy_agreement():
    # the 2D evaluation of the 1D ground profile must reproduce E_*(w_inf)
    profile = shoot_ground(4.0)
    grid = build_grid(30.0, 512, 64, SectorKind.full_disk())
    vals = profile(grid.radii)[:, None] * np.ones((1, grid.ntheta))
    u = Field(grid, vals)
    b = energy(u, ModelParams(p=4.0, q=1, lam=1.0))
    assert abs(b.total - 5.850) / 5.850 < 0.005
    assert abs(b.total - profile.energy) / profile.energy < 0.005


def test_gradient_zero_field(small_disk, params_q1):
    z = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    g = gradient(z, params_q1)[0]
    assert np.all(g.values == 0.0)


def test_gradient_matches_weak_form(small_disk, params_q1, rng):
    shape = (small_disk.nr, small_disk.ntheta)
    for _ in range(5):
        u = Field(small_disk, rng.standard_normal(shape))
        v = Field(small_disk, rng.standard_normal(shape))
        g = gradient(u, params_q1)[0]
        lhs = lambda_inner(g, v, params_q1)
        rhs = directional_derivative(u, v, params_q1)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_gradient_finite_difference_order(small_disk, params_q1, rng):
    # central differences of E against <g, v>: observed order >= 1.9
    shape = (small_disk.nr, small_disk.ntheta)
    orders = []
    for _ in range(20):
        u = Field(small_disk, rng.standard_normal(shape))
        v = Field(small_disk, rng.standard_normal(shape))
        exact = lambda_inner(gradient(u, params_q1)[0], v, params_q1)
        errs = []
        for h in (1e-3, 1e-4):
            ep = energy(Field(small_disk, u.values + h * v.values), params_q1).total
            em = energy(Field(small_disk, u.values - h * v.values), params_q1).total
            errs.append(abs((ep - em) / (2 * h) - exact))
        orders.append(np.log10(errs[0] / errs[1]))
    assert min(orders) >= 1.9


def test_energy_rejects_nonfinite(small_disk, params_q1):
    u = Field(small_disk, np.full((small_disk.nr, small_disk.ntheta), np.inf))
    with pytest.raises(FloatingPointError):
        energy(u, params_q1)


def test_h1_norm_on_sector_matches_pitch_form(small_half):
    # q = 1, lam -> infinity limit of the pitch form is the H1 norm
    u = field_from_polar(small_half, lambda r, t: np.exp(-r) * np.cos(t))
    big_lam = lambda_inner(u, u, ModelParams(p=4.0, q=1, lam=1e8))
    assert abs(h1_norm_sq(u) - big_lam) <= 1e-10 * big_lam


@pytest.mark.parametrize("sector,fn", [
    (SectorKind.full_disk(),
     lambda r, t: np.exp(-r**2 / 2) * (1 + 0.3 * np.cos(t) + 0.2 * np.sin(2 * t))),
    # vanishes to second order on the rays, whose faces the first differences leave out
    (SectorKind.half_disk(), lambda r, t: np.exp(-r**2 / 2) * np.cos(t) ** 2),
], ids=["disk", "half"])
def test_h1_first_differences_converge_to_the_operator_form(sector, fn):
    # O(dr^2 + dtheta^2): the gap falls at least threefold when both counts double
    gaps = []
    for nr, ntheta in ((48, 16), (96, 32)):
        u = field_from_polar(build_grid(8.0, nr, ntheta, sector), fn)
        gaps.append(abs(h1_fd_norm_sq(u) - h1_norm_sq(u)) / h1_norm_sq(u))
    assert gaps[1] < 1e-2 and gaps[0] >= 3.0 * gaps[1]


def test_lp_integral_constant(small_disk):
    u = Field(small_disk, np.full((small_disk.nr, small_disk.ntheta), 2.0))
    area = np.pi * small_disk.R**2
    assert abs(lp_integral(u, 4.0) - 16.0 * area) < 1e-10 * 16 * area


def test_energy_submodule_is_importable():
    # the package must not shadow its energy submodule with a function
    import spiralnls.energy as energy_module
    assert energy_module.gradient is gradient
    assert energy_module.energy is energy


@pytest.mark.parametrize("e", [1.0, 2.0, 3.0, 4.0, 6.0, 2.5])
def test_abs_power_matches_pow(rng, e):
    # whole exponents take repeated products: equal to pow up to a few ulps
    x = rng.standard_normal(1000) * 10.0 ** rng.integers(-40, 40, 1000)
    ref = np.abs(x) ** e
    assert np.all(np.abs(abs_power(x, e) - ref) <= 8 * np.finfo(float).eps * ref)
