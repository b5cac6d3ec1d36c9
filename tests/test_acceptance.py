"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with the measured quantities (run pytest -s to
see them inline).  Heavy artifacts (sweep, asymptotic studies) are shared
through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest
from reference import radial_average

from spiralnls.diagnostics import check_wirtinger, symmetry_report
from spiralnls.energy import energy, gradient, lambda_inner, lp_integral
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.io import report_dict
from spiralnls.minimize import (
    SEED_DIPOLE,
    SEED_RADIAL,
    SEED_RADIAL_NODAL,
    SolveConfig,
    solve_ground,
    solve_nodal,
)
from spiralnls.radial import (
    _shoot_amplitude,
    _shoot_cached,
    profile_identities,
    shoot_ground,
    shoot_nodal,
)
from spiralnls.studies import (
    WINNER_DIPOLE,
    WINNER_RADIAL,
    asymptotics_infinity,
    asymptotics_zero,
    sweep_lambda,
    transition_bracket,
)

ACC_CFG = SolveConfig(grad_tol=1e-8)


def _announce(num, message):
    print(f"ACCEPTANCE {num} PASS: {message}")


@pytest.fixture(scope="module")
def oracle_levels():
    ground = shoot_ground(4.0)
    nodal = shoot_nodal(4.0, 1)
    return ground, nodal


@pytest.fixture(scope="module")
def disk_grounds():
    grid = build_grid(30.0, 512, 64, SectorKind.full_disk())
    reports = {}
    for lam in (0.5, 1.0, 2.0):
        reports[lam] = solve_ground(grid, ModelParams(p=4.0, q=1, lam=lam), ACC_CFG)
    return grid, reports


@pytest.fixture(scope="module")
def sweep_records():
    grid = build_grid(24.0, 320, 64, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    return sweep_lambda(params, [0.05, 0.5, 5.0, 50.0], grid, ACC_CFG)


@pytest.fixture(scope="module")
def infinity_records():
    grid = build_grid(30.0, 480, 96, SectorKind.half_disk())
    return asymptotics_infinity(ModelParams(p=4.0, q=1, lam=1.0),
                                [5.0, 10.0, 20.0, 40.0], grid, ACC_CFG)


@pytest.fixture(scope="module")
def zero_records():
    proto = build_grid(24.0, 384, 48, SectorKind.half_disk())
    records, _ = asymptotics_zero(ModelParams(p=4.0, q=1, lam=1.0),
                                  [1.0, 0.5, 0.25, 0.125], proto, ACC_CFG)
    return records


def test_criterion_01_oracle_self_consistency():
    _shoot_amplitude.cache_clear()
    _shoot_cached.cache_clear()
    start = time.perf_counter()
    profile = shoot_ground(4.0)
    elapsed = time.perf_counter() - start
    ids = profile_identities(profile)
    assert abs(ids["lp"] - 2 * ids["mass"]) / ids["lp"] < 1e-3        # Pohozaev
    assert abs(ids["grad_sq"] + ids["mass"] - ids["lp"]) \
        / (ids["grad_sq"] + ids["mass"]) < 1e-3                       # Nehari
    fine = shoot_ground(4.0, dr1d=0.005)
    drift = abs(fine.energy - profile.energy) / abs(profile.energy)
    assert drift < 5e-4
    assert elapsed < 1.0
    _announce(1, f"E={profile.energy:.6f}, identities ({ids['pohozaev']:.1e}, "
                 f"{ids['nehari']:.1e}), halving drift {drift:.1e}, "
                 f"runtime {elapsed:.2f}s")


def test_criterion_02_cross_check_2d_1d(disk_grounds, oracle_levels):
    ground, _ = oracle_levels
    _, reports = disk_grounds
    totals = []
    for lam, rep in reports.items():
        assert rep.converged
        assert rep.nonradiality < 1e-8
        rel = abs(rep.energy.total - ground.energy) / ground.energy
        assert rel < 0.005
        totals.append(rep.energy.total)
    spread = (max(totals) - min(totals)) / abs(totals[0])
    assert spread < 1e-6
    _announce(2, f"disk energy {totals[0]:.6f} vs oracle {ground.energy:.6f} "
                 f"({abs(totals[0] - ground.energy) / ground.energy:.2%}), "
                 f"pitch spread {spread:.1e}")


def test_criterion_03_level_inequalities(sweep_records, infinity_records,
                                         oracle_levels):
    ground, nodal = oracle_levels
    eps_star = nodal.energy - 2 * ground.energy
    for rec in sweep_records:
        assert rec.beta_hat >= 2 * rec.alpha_hat - 1e-6
        # uniform level bounds and the energy-doubling gap of the radial branch
        assert 0.95 * ground.energy <= rec.beta_hat <= 1.05 * nodal.energy
        assert rec.beta_radial >= 2 * ground.energy + 0.95 * eps_star
    c_values = [rec.c_hat for rec in sweep_records]
    assert all(a >= b for a, b in zip(c_values, c_values[1:]))
    c_inf_values = [rec.c_hat for rec in infinity_records]
    assert all(a >= b for a, b in zip(c_inf_values, c_inf_values[1:]))
    _announce(3, f"beta >= 2 alpha at {len(sweep_records)} pitches; c_hat "
                 f"nonincreasing over {c_values + c_inf_values}")


@pytest.fixture(scope="module")
def threshold_sample():
    """Converged whole-plane solutions with pitch below the radiality bound,
    spanning p in {3, 4, 6}."""
    solves = []
    grid = build_grid(24.0, 320, 48, SectorKind.full_disk())

    def add(p, lam, seed):
        params = ModelParams(p=p, q=1, lam=lam)
        cfg = SolveConfig(grad_tol=1e-8, seed=seed)
        rep = solve_nodal(grid, params, cfg) if seed != SEED_RADIAL \
            else solve_ground(grid, params, cfg)
        solves.append((params, rep, seed))

    for lam in (0.05, 0.15):
        add(3.0, lam, SEED_RADIAL)
        add(4.0, lam, SEED_RADIAL)
    add(6.0, 0.05, SEED_RADIAL)
    add(6.0, 0.1, SEED_RADIAL)
    add(3.0, 0.2, SEED_RADIAL_NODAL)
    add(4.0, 0.1, SEED_RADIAL_NODAL)
    add(6.0, 0.02, SEED_RADIAL_NODAL)
    add(3.0, 0.2, SEED_DIPOLE)
    add(4.0, 0.1, SEED_DIPOLE)
    return solves


def test_criterion_04_radiality_threshold(threshold_sample):
    checked = 0
    for params, rep, seed in threshold_sample:
        assert rep.converged, f"{params} ({seed}) did not converge"
        margin = params.lam * ((params.p - 1) * rep.field.linf() ** (params.p - 2)) ** 0.5
        assert margin < 1.0, f"{params} ({seed}) not below threshold: {margin:.3f}"
        assert rep.nonradiality < 1e-6, \
            f"{params} ({seed}): nonradiality {rep.nonradiality:.2e}"
        checked += 1
    assert checked >= 10
    _announce(4, f"{checked} below-threshold solutions over p in {{3, 4, 6}}, "
                 f"all with nonradiality < 1e-6")


def test_criterion_05_symmetry_breaking(sweep_records, oracle_levels):
    ground, nodal = oracle_levels
    lo, hi, crossings = transition_bracket(sweep_records)
    assert crossings >= 1
    assert sweep_records[0].winner == WINNER_RADIAL
    assert sweep_records[-1].winner == WINNER_DIPOLE

    by_lam = {rec.lam: rec for rec in sweep_records}
    beta_large = by_lam[50.0].beta_hat
    rel_large = abs(beta_large - 2 * ground.energy) / (2 * ground.energy)
    assert rel_large < 0.05
    beta_small = by_lam[0.05].beta_hat
    rel_small = abs(beta_small - nodal.energy) / nodal.energy
    assert rel_small < 0.01
    _announce(5, f"transition bracket ({lo:g}, {hi:g}), crossings={crossings}; "
                 f"beta(50) vs 2c_inf: {rel_large:.2%}; "
                 f"beta(0.05) vs radial nodal: {rel_small:.2%}")


def test_criterion_06_energy_doubling(oracle_levels):
    ground, nodal = oracle_levels
    eps = nodal.energy - 2 * ground.energy
    assert eps > 0
    fine_g = shoot_ground(4.0, dr1d=0.005)
    fine_n = shoot_nodal(4.0, 1, dr1d=0.005)
    eps_fine = fine_n.energy - 2 * fine_g.energy
    assert eps_fine > 0
    assert abs(eps_fine - eps) / eps < 0.05
    _announce(6, f"eps* = {eps:.4f} (refined {eps_fine:.4f}, "
                 f"drift {abs(eps_fine - eps) / eps:.2%})")


def test_criterion_07_large_pitch_asymptotics(infinity_records, oracle_levels):
    ground, _ = oracle_levels
    taus = [rec.tau for rec in infinity_records]
    ratios = [rec.tau_over_lambda for rec in infinity_records]
    gaps = [rec.h1_gap_rel for rec in infinity_records]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    # the sector level at the largest pitch sits within 2% of the free level
    assert abs(infinity_records[-1].c_hat - ground.energy) / ground.energy < 0.02
    _announce(7, f"tau {['%.2f' % t for t in taus]}, tau/lam "
                 f"{['%.3f' % x for x in ratios]}, final H1 gap {gaps[-1]:.2%}")


def test_criterion_08_rescaling_limit(zero_records):
    for rec in zero_records:
        assert rec.identity_rel <= 1e-6
    gaps = [rec.limit_gap for rec in zero_records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    _announce(8, f"identity defects {[f'{r.identity_rel:.1e}' for r in zero_records]}, "
                 f"gaps {['%.3f' % g for g in gaps]}")


def test_criterion_09_inequality_suites():
    rng = np.random.default_rng(2024)
    disk = build_grid(4.0, 32, 24, SectorKind.full_disk())
    for _ in range(100):
        vals = rng.standard_normal((disk.nr, disk.ntheta))
        vals -= vals.mean(axis=1, keepdims=True)
        lhs, rhs, ok = check_wirtinger(Field(disk, vals))
        assert ok and lhs <= rhs * (1 + 1e-12)
    cone = build_grid(4.0, 32, 24, SectorKind.cone(np.pi / 3))
    for _ in range(100):
        u = Field(cone, rng.standard_normal((cone.nr, cone.ntheta)))
        lhs, rhs, ok = check_wirtinger(u)
        assert ok and lhs <= rhs * (1 + 1e-12)
    for _ in range(100):
        u = Field(disk, rng.standard_normal((disk.nr, disk.ntheta)))
        avg = radial_average(u)
        for rho in (2.0, 4.0):
            assert lp_integral(avg, rho) <= lp_integral(u, rho) * (1 + 1e-12)

    monotone_checked = 0
    half = build_grid(18.0, 224, 48, SectorKind.half_disk())
    cone_g = build_grid(18.0, 224, 48, SectorKind.cone(np.pi / 4))
    for grid_s, lam in ((half, 1.0), (half, 5.0), (cone_g, 2.0)):
        params = ModelParams(p=4.0, q=1, lam=lam)
        rep = solve_ground(grid_s, params, ACC_CFG)
        assert rep.converged
        sym = symmetry_report(rep.field, params)
        assert sym.angular_monotone is True
        monotone_checked += 1
    _announce(9, f"Wirtinger exact on 100+100 fields, Jensen on 100, angular "
                 f"monotonicity on {monotone_checked} sector ground states")


def test_criterion_10_numerics_hygiene():
    rng = np.random.default_rng(42)
    grid = build_grid(3.0, 24, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=0.7)
    orders = []
    for _ in range(20):
        u = Field(grid, rng.standard_normal((grid.nr, grid.ntheta)))
        v = Field(grid, rng.standard_normal((grid.nr, grid.ntheta)))
        exact = lambda_inner(gradient(u, params)[0], v, params)
        errs = []
        for h in (1e-3, 1e-4):
            ep = energy(Field(grid, u.values + h * v.values), params).total
            em = energy(Field(grid, u.values - h * v.values), params).total
            errs.append(abs((ep - em) / (2 * h) - exact))
        orders.append(float(np.log10(errs[0] / errs[1])))
    assert min(orders) >= 1.9

    solve_grid = build_grid(15.0, 128, 16, SectorKind.full_disk())
    pars = ModelParams(p=4.0, q=1, lam=1.0)
    cfg = SolveConfig(grad_tol=1e-8, keep_trace=True)
    rep_a = solve_ground(solve_grid, pars, cfg)
    rep_b = solve_ground(solve_grid, pars, cfg)
    assert np.array_equal(rep_a.field.values, rep_b.field.values)
    assert json.dumps(report_dict(rep_a, pars), sort_keys=True) \
        == json.dumps(report_dict(rep_b, pars), sort_keys=True)
    _announce(10, f"min FD order {min(orders):.2f} over 20 pairs; "
                  f"bit-identical repeated reports")
