import math
from dataclasses import replace

import numpy as np
import pytest
from reference import field_from_polar

from spiralnls import studies
from spiralnls.energy import energy
from spiralnls.errors import PeakAtBoundary
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.minimize import (
    SEED_DIPOLE,
    SEED_RADIAL,
    SEED_RADIAL_NODAL,
    SolveConfig,
    odd_extension,
    solve_ground,
    solve_nodal,
)
from spiralnls.studies import (
    SweepRecord,
    WINNER_DIPOLE,
    WINNER_NONE,
    WINNER_RADIAL,
    asymptotics_infinity,
    asymptotics_zero,
    limit_radius_study,
    sweep_lambda,
    transition_bracket,
)

CFG = SolveConfig(grad_tol=1e-7)


@pytest.fixture(scope="module")
def mini_sweep():
    grid = build_grid(18.0, 192, 32, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    return sweep_lambda(params, [0.2, 8.0], grid, CFG)


def test_sweep_records_well_formed(mini_sweep):
    for rec in mini_sweep:
        assert not rec.failures
        assert rec.alpha_hat > 0 and rec.beta_hat > 0 and rec.c_hat > 0
        assert rec.beta_hat >= 2 * rec.alpha_hat - 1e-6


def test_sweep_c_monotone(mini_sweep):
    assert mini_sweep[0].c_hat >= mini_sweep[1].c_hat


def test_sweep_winners(mini_sweep):
    assert mini_sweep[0].winner == WINNER_RADIAL
    assert mini_sweep[1].winner == WINNER_DIPOLE
    assert mini_sweep[0].nonradiality < 1e-6
    assert mini_sweep[1].nonradiality > 0.1


def test_sweep_validation():
    grid = build_grid(6.0, 24, 16, SectorKind.full_disk())
    with pytest.raises(ValueError):
        sweep_lambda(ModelParams(p=4.0, q=0, lam=1.0), [1.0], grid, CFG)
    with pytest.raises(ValueError):
        sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [], grid, CFG)
    with pytest.raises(ValueError):
        sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [2.0, 1.0], grid, CFG)
    half = build_grid(6.0, 24, 16, SectorKind.half_disk())
    with pytest.raises(ValueError):
        sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [1.0], half, CFG)


def test_transition_bracket_synthetic():
    def rec(lam, winner):
        return SweepRecord(lam=lam, alpha_hat=1, beta_hat=2, c_hat=1,
                           nonradiality=0, winner=winner, tau=1,
                           beta_dipole=2, beta_radial=2)
    records = [rec(0.1, WINNER_RADIAL), rec(1.0, WINNER_RADIAL),
               rec(5.0, WINNER_NONE), rec(10.0, WINNER_DIPOLE)]
    lo, hi, crossings = transition_bracket(records)
    assert (lo, hi, crossings) == (1.0, 10.0, 1)


def test_asymptotics_infinity_trends():
    grid = build_grid(16.0, 192, 48, SectorKind.half_disk())
    recs = asymptotics_infinity(ModelParams(p=4.0, q=1, lam=1.0), [3.0, 8.0],
                                grid, CFG)
    assert recs[1].tau > recs[0].tau
    assert recs[1].tau_over_lambda < recs[0].tau_over_lambda
    assert recs[1].h1_gap_rel < recs[0].h1_gap_rel


def test_asymptotics_infinity_peak_at_boundary():
    grid = build_grid(7.0, 64, 24, SectorKind.half_disk())
    with pytest.raises(PeakAtBoundary):
        asymptotics_infinity(ModelParams(p=4.0, q=1, lam=1.0), [40.0], grid, CFG)


@pytest.fixture(scope="module")
def zero_records():
    proto = build_grid(16.0, 256, 32, SectorKind.half_disk())
    records, _ = asymptotics_zero(ModelParams(p=4.0, q=1, lam=1.0),
                                  [1.0, 0.5, 0.25], proto, CFG)
    return records


def test_asymptotics_zero_identity(zero_records):
    for rec in zero_records:
        assert rec.identity_rel <= 1e-6


def test_asymptotics_zero_lambda_one_trivial(zero_records):
    rec = zero_records[0]
    assert rec.lam == 1.0
    assert rec.j_lambda == rec.c_lambda     # identity rescale


def test_asymptotics_zero_gap_decreasing(zero_records):
    gaps = [rec.limit_gap for rec in zero_records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_asymptotics_zero_validation():
    grid = build_grid(8.0, 32, 16, SectorKind.half_disk())
    with pytest.raises(ValueError):
        asymptotics_zero(ModelParams(p=4.0, q=1, lam=1.0), [2.0], grid, CFG)
    with pytest.raises(ValueError):
        asymptotics_zero(ModelParams(p=4.0, q=0, lam=1.0), [0.5], grid, CFG)


def test_limit_radius_study():
    grid = build_grid(14.0, 160, 24, SectorKind.half_disk())
    limit = solve_ground(grid, ModelParams(p=4.0, q=0, lam=1.0), CFG)
    e1, e2, rel = limit_radius_study(ModelParams(p=4.0, q=1, lam=1.0), limit, CFG)
    assert e1 == limit.energy.total
    assert rel < 1e-3


def test_sweep_continues_radial_rows(monkeypatch):
    # rows with a radial seed restart from the previous pitch's radial field:
    # one gradient evaluation, and the cold solve's level to round-off
    grid = build_grid(14.0, 128, 24, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    solves = []
    for name in ("solve_ground", "solve_nodal"):
        real = getattr(studies, name)

        def recording(row_grid, pars, cfg, _real=real):
            rep = _real(row_grid, pars, cfg)
            solves.append(("field" if isinstance(cfg.seed, Field) else cfg.seed, rep))
            return rep

        monkeypatch.setattr(studies, name, recording)
    records = sweep_lambda(params, [0.2, 8.0], grid, CFG)
    assert [r.winner for r in records] == [WINNER_RADIAL, WINNER_DIPOLE]

    # the dipole row starts from the odd extension of the sector ground state
    later = solves[4:]
    assert [kind for kind, _ in later] == ["field", SEED_RADIAL, "field", "field"]
    pars = ModelParams(p=4.0, q=1, lam=8.0)
    colds = {0: solve_ground(grid, pars, replace(CFG, seed=SEED_RADIAL)),
             3: solve_nodal(grid, pars, replace(CFG, seed=SEED_RADIAL_NODAL))}
    for row, cold in colds.items():
        continued = later[row][1]
        assert continued.converged and continued.iterations == 1
        assert continued.field.is_radial()
        rel = abs(continued.energy.total - cold.energy.total) / cold.energy.total
        assert rel <= 1e-12
    seeded = later[2][1]
    cold = solve_nodal(grid, pars, replace(CFG, seed=SEED_DIPOLE))
    assert seeded.converged and cold.converged
    assert abs(seeded.energy.total - cold.energy.total) <= 1e-12 * cold.energy.total


def test_sweep_records_a_failed_sector_row(monkeypatch):
    # a sector ground solve that raises costs that pitch its c_hat and tau,
    # and its dipole row falls back to the cold dipole seed
    grid = build_grid(10.0, 64, 16, SectorKind.full_disk())
    real_ground, real_nodal = studies.solve_ground, studies.solve_nodal
    nodal_rows = []   # per pitch the dipole row, then the radial-nodal row

    def ground(row_grid, pars, cfg):
        if not row_grid.sector.is_full and pars.lam == 0.5:
            raise FloatingPointError("injected sector failure")
        return real_ground(row_grid, pars, cfg)

    def nodal(row_grid, pars, cfg):
        rep = real_nodal(row_grid, pars, cfg)
        nodal_rows.append(("field" if isinstance(cfg.seed, Field) else cfg.seed, rep))
        return rep

    monkeypatch.setattr(studies, "solve_ground", ground)
    monkeypatch.setattr(studies, "solve_nodal", nodal)
    failed, after = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5, 4.0], grid, CFG)

    assert failed.failures == ("sector-ground: injected sector failure",)
    assert math.isnan(failed.c_hat) and math.isnan(failed.tau)
    dipole_rows = nodal_rows[::2]
    assert [kind for kind, _ in dipole_rows] == [SEED_DIPOLE, "field"]
    assert failed.beta_dipole == dipole_rows[0][1].energy.total
    assert math.isfinite(failed.beta_dipole)
    assert not after.failures and math.isfinite(after.c_hat)
    assert after.beta_dipole == dipole_rows[1][1].energy.total


def test_sweep_without_a_nodal_level_has_no_winner(monkeypatch):
    # both nodal rows fail at the larger pitch: no level, so no winning class,
    # and that pitch counts toward neither end of the bracket
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    real_nodal = studies.solve_nodal

    def nodal(row_grid, pars, cfg):
        if pars.lam == 8.0:
            raise FloatingPointError("injected nodal failure")
        return real_nodal(row_grid, pars, cfg)

    monkeypatch.setattr(studies, "solve_nodal", nodal)
    won, failed = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.2, 8.0], grid, CFG)
    assert won.winner == WINNER_RADIAL and not won.failures
    assert failed.failures == ("nodal-dipole: injected nodal failure",
                               "nodal-radial: injected nodal failure")
    assert failed.winner == WINNER_NONE and math.isnan(failed.nonradiality)
    assert failed.beta_hat == failed.beta_dipole == failed.beta_radial == math.inf
    lo, hi, crossings = transition_bracket([won, failed])
    assert lo == 0.2 and math.isnan(hi) and crossings == 0


def test_sweep_records_unconverged_rows():
    # every row stops at the iteration cap: each is a failure and gives no level
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    records = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5, 4.0], grid,
                           replace(CFG, max_iters=2))
    tags = ["disk-ground", "sector-ground", "nodal-dipole", "nodal-radial"]
    for rec in records:
        assert rec.failures == tuple(f"{tag}: not converged after 2 iterations"
                                     for tag in tags)
        assert math.isnan(rec.alpha_hat) and math.isnan(rec.c_hat)
        assert rec.beta_hat == math.inf


def test_odd_extension_of_a_half_disk_field():
    # a band-limited half-disk field, cos theta, cos 3 theta and cos 5 theta
    # (the odd sine modes from the lower ray), continued across the rays
    half = build_grid(6.0, 48, 64, SectorKind.half_disk())
    disk = build_grid(6.0, 48, 64, SectorKind.full_disk())

    def profile(r, t):
        return r * np.exp(-0.5 * r**2) * (1.5 * np.cos(t) - 0.4 * np.cos(3 * t)
                                          + 0.1 * np.cos(5 * t))

    u = field_from_polar(half, profile)
    ext = odd_extension(u, disk)
    assert np.array_equal(ext.values, ext.values[:, disk.mirror])
    scale = ext.linf()
    turned = np.roll(ext.values, disk.ntheta // 2, axis=1)     # theta -> theta + pi
    assert np.max(np.abs(turned + ext.values)) <= 1e-13 * scale
    assert np.max(np.abs(ext.values - field_from_polar(disk, profile).values)) <= 1e-13 * scale

    params = ModelParams(p=4.0, q=1, lam=0.7)
    e_half, e_disk = energy(u, params), energy(ext, params)
    for name in ("dirichlet", "angular", "mass", "potential", "total"):
        twice = 2 * getattr(e_half, name)
        assert abs(getattr(e_disk, name) - twice) <= 1e-12 * abs(twice)
