import numpy as np
import pytest
from reference import field_from_polar, radial_average

from spiralnls.diagnostics import (
    angular_monotone,
    check_wirtinger,
    nonradiality_index,
    radiality_threshold,
    symmetry_report,
)
from spiralnls.energy import lp_integral
from spiralnls.errors import SectorError
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid


def test_radial_average_kills_oscillation(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) * (1 + np.cos(t)))
    avg = radial_average(u)
    ref = field_from_polar(small_disk, lambda r, t: np.exp(-r) + 0 * t)
    assert np.max(np.abs(avg.values - ref.values)) < 1e-14


# a 64-node disk: there the plain row mean of 64 equal values is inexact on
# many rows, which 16 nodes do not show
DISK_64 = build_grid(24.0, 320, 64, SectorKind.full_disk())


def test_radial_average_fixed_point(small_disk):
    for disk in (small_disk, DISK_64):
        u = field_from_polar(disk, lambda r, t: np.cos(r) + 0 * t)
        avg = radial_average(u)
        assert np.array_equal(avg.values, u.values)


def test_radial_average_is_projection(small_disk, rng):
    for disk in (small_disk, DISK_64):
        u = Field(disk, rng.standard_normal((disk.nr, disk.ntheta)))
        once = radial_average(u)
        twice = radial_average(once)
        assert np.array_equal(once.values, twice.values)


def test_radial_average_jensen(small_disk, rng):
    for _ in range(100):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        avg = radial_average(u)
        for rho in (2.0, 4.0):
            assert lp_integral(avg, rho) <= lp_integral(u, rho) * (1 + 1e-12)


def test_radial_average_orthogonality(small_disk, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    scale = small_disk.quad(u.values**2)
    avg = radial_average(u)
    # <u - u#, u#> in L^2; zero for the discrete projection
    defect = small_disk.quad((u.values - avg.values) * avg.values)
    assert abs(defect) < 1e-13 * scale


def test_radial_average_rejects_sectors(small_half):
    u = field_from_polar(small_half, lambda r, t: np.cos(t) * np.exp(-r))
    with pytest.raises(SectorError):
        radial_average(u)


def test_wirtinger_equality_first_mode(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) * np.cos(t))
    lhs, rhs, ok = check_wirtinger(u)
    assert ok
    assert abs(lhs - rhs) <= 1e-12 * rhs    # first Fourier mode saturates


def test_wirtinger_random_mean_free(small_disk, rng):
    for _ in range(100):
        vals = rng.standard_normal((small_disk.nr, small_disk.ntheta))
        vals -= vals.mean(axis=1, keepdims=True)
        lhs, rhs, ok = check_wirtinger(Field(small_disk, vals))
        assert ok
        assert lhs <= rhs * (1 + 1e-12)


def test_wirtinger_full_disk_with_mean(small_disk, rng):
    # general form |u|_2^2 <= |d_theta u|_2^2 + |u#|_2^2
    for _ in range(50):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        lhs, rhs, ok = check_wirtinger(u)
        assert ok


def test_wirtinger_cone_saturating_mode():
    g = build_grid(2.0, 16, 15, SectorKind.cone(np.pi / 4))
    # cos(2 theta) vanishes at theta = +-pi/4 and is the lowest sine mode there;
    # theta0 = pi/4 gives constant 2 theta0 / pi = 1/2 and the mode saturates
    u = field_from_polar(g, lambda r, t: np.exp(-r) * np.cos(2 * t))
    lhs, rhs, ok = check_wirtinger(u)
    assert ok
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_wirtinger_random_cone_fields(small_cone, rng):
    for _ in range(100):
        u = Field(small_cone, rng.standard_normal((small_cone.nr, small_cone.ntheta)))
        lhs, rhs, ok = check_wirtinger(u)
        assert ok
        assert lhs <= rhs * (1 + 1e-12)


def test_nonradiality_zero_for_radial(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) + 0 * t)
    assert nonradiality_index(u, ModelParams(p=4.0, q=1, lam=1.0)) == 0.0
    zero = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    assert nonradiality_index(zero, ModelParams(p=4.0, q=1, lam=1.0)) == 0.0


def test_nonradiality_of_a_radial_field_with_inexact_row_means():
    # the mean of 64 equal values is not always that value, so a radial
    # average in physical space read round-off here; the mode columns read 0
    grid = build_grid(8.0, 48, 64, SectorKind.full_disk())
    profile = 1.3 * np.exp(-0.5 * grid.radii**2)
    u = Field(grid, np.repeat(profile[:, None], grid.ntheta, axis=1))
    assert np.any(u.values.mean(axis=1) != profile)
    params = ModelParams(p=4.0, q=1, lam=0.05)
    assert nonradiality_index(u, params) == 0.0
    assert symmetry_report(u, params).nonradiality == 0.0


def test_nonradiality_bounded(small_disk, rng):
    params = ModelParams(p=4.0, q=1, lam=0.7)
    for _ in range(20):
        u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
        idx = nonradiality_index(u, params)
        assert 0.0 <= idx <= 1.0 + 1e-9


def test_threshold_formula():
    assert radiality_threshold(1.0, 4.0) == pytest.approx((1 / 3) ** 0.5)
    assert radiality_threshold(0.0, 4.0) == np.inf


def test_angular_monotone_flags(small_half):
    good = field_from_polar(small_half, lambda r, t: np.exp(-r) * np.cos(t))
    assert angular_monotone(good)
    bad = field_from_polar(small_half, lambda r, t: np.exp(-r) * np.cos(3 * t))
    assert not angular_monotone(bad)


def test_symmetry_report_sector(small_half):
    u = field_from_polar(small_half, lambda r, t: np.exp(-r) * np.cos(t))
    rep = symmetry_report(u, ModelParams(p=4.0, q=1, lam=1.0))
    assert rep.nonradiality == 1.0
    assert rep.angular_monotone is True
    assert rep.below_threshold is False   # threshold theorem is whole-plane only


def test_symmetry_report_disk(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) + 0 * t)
    rep = symmetry_report(u, ModelParams(p=4.0, q=1, lam=0.05))
    assert rep.nonradiality == 0.0
    assert rep.angular_monotone is None
    assert rep.below_threshold
    assert rep.wirtinger_ok
