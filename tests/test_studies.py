import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from reference import dipole_on_disk, field_from_polar

from spiralnls import studies
from spiralnls.energy import energy, gradient, lambda_norm
from spiralnls.errors import PeakAtBoundary
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.minimize import (
    SEED_RADIAL,
    SEED_RADIAL_NODAL,
    SolveConfig,
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


def _recording(monkeypatch, solves, fail=None):
    """Route studies' solve_ground and solve_nodal through a recorder of
    (seed kind, grid, report); fail(name, grid, params) may name a failure to
    inject."""
    for name in ("solve_ground", "solve_nodal"):
        real = getattr(studies, name)

        def recording(row_grid, pars, cfg, _real=real, name=name):
            why = fail(name, row_grid, pars) if fail else None
            if why:
                raise FloatingPointError(why)
            rep = _real(row_grid, pars, cfg)
            kind = "field" if isinstance(cfg.seed, Field) else cfg.seed
            solves.append((kind, row_grid, rep))
            return rep

        monkeypatch.setattr(studies, name, recording)


def _is_dipole_row(row_grid, disk):
    return not row_grid.sector.is_full and row_grid.ntheta == disk.ntheta // 2 - 1


def test_sweep_continues_radial_rows(monkeypatch):
    # rows with a radial seed restart from the previous pitch's radial field:
    # one gradient evaluation, and the cold solve's level to round-off; the
    # dipole row is the cold half-disk ground problem on ntheta/2 - 1 nodes,
    # and the sector row starts from it at the cold sector level
    grid = build_grid(14.0, 128, 24, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    solves = []
    _recording(monkeypatch, solves)
    records = sweep_lambda(params, [0.2, 8.0], grid, CFG)
    assert [r.winner for r in records] == [WINNER_RADIAL, WINNER_DIPOLE]
    assert len(solves) == 8

    # per pitch: disk ground, dipole (half disk, 11 nodes), sector (half disk,
    # 24 nodes), radial nodal
    later = solves[4:]
    assert [kind for kind, _, _ in later] == ["field", SEED_RADIAL, "field", "field"]
    assert [(g.sector.kind, g.ntheta) for _, g, _ in solves] == \
        [("full", 24), ("half", 11), ("half", 24), ("full", 24)] * 2
    pars = ModelParams(p=4.0, q=1, lam=8.0)
    colds = {0: solve_ground(grid, pars, replace(CFG, seed=SEED_RADIAL)),
             3: solve_nodal(grid, pars, replace(CFG, seed=SEED_RADIAL_NODAL))}
    for row, cold in colds.items():
        continued = later[row][2]
        assert continued.converged and continued.iterations == 1
        assert continued.field.is_radial()
        rel = abs(continued.energy.total - cold.energy.total) / cold.energy.total
        assert rel <= 1e-12
    dipole = later[1][2]
    assert dipole.converged
    # the dipole row reports from its own half-disk solve
    assert records[1].beta_dipole == 2 * dipole.energy.total
    assert records[1].nonradiality == dipole.nonradiality == 1.0
    half = later[2][1]
    seeded = later[2][2]
    cold = solve_ground(half, pars, replace(CFG, seed=SEED_RADIAL))
    assert seeded.converged and cold.converged
    assert abs(seeded.energy.total - cold.energy.total) <= 1e-12 * cold.energy.total
    assert records[1].c_hat == seeded.energy.total


def test_sweep_records_a_failed_dipole_row(monkeypatch):
    # a dipole row that raises costs that pitch its beta_dipole, and the
    # sector row starts from its cold seed, at the cold level to 1e-12; at
    # the next pitch the dipole row seeds the sector row again
    grid = build_grid(10.0, 64, 16, SectorKind.full_disk())
    solves = []
    _recording(monkeypatch, solves, lambda name, row_grid, pars: (
        "injected dipole failure" if _is_dipole_row(row_grid, grid) and pars.lam == 0.5
        else None))
    failed, after = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5, 4.0], grid, CFG)

    assert failed.failures == ("nodal-dipole: injected dipole failure",)
    assert failed.beta_dipole == math.inf and failed.winner == WINNER_RADIAL
    assert failed.beta_hat == failed.beta_radial
    sector_rows = [(kind, rep) for kind, g, rep in solves
                   if not g.sector.is_full and g.ntheta == grid.ntheta]
    assert [kind for kind, _ in sector_rows] == [SEED_RADIAL, "field"]
    half = build_grid(10.0, 64, 16, SectorKind.half_disk())
    for rec, (_, rep) in zip((failed, after), sector_rows):
        cold = solve_ground(half, ModelParams(p=4.0, q=1, lam=rec.lam),
                            replace(CFG, seed=SEED_RADIAL))
        assert rec.c_hat == rep.energy.total
        assert abs(rec.c_hat - cold.energy.total) <= 1e-12 * cold.energy.total
        assert math.isfinite(rec.tau)
    assert not after.failures and math.isfinite(after.beta_dipole)


def test_sweep_lets_a_programming_error_in_a_row_propagate(monkeypatch):
    # a row fails only on the kinds the CLI maps to exit 3; a TypeError is a
    # bug, and leaves the sweep with its traceback
    grid = build_grid(10.0, 64, 16, SectorKind.full_disk())

    def broken(row_grid, pars, cfg):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(studies, "solve_ground", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5], grid, CFG)


def test_sweep_without_a_nodal_level_has_no_winner(monkeypatch):
    # both nodal rows fail at the larger pitch: no level, so no winning class,
    # and that pitch counts toward neither end of the bracket
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    solves = []
    _recording(monkeypatch, solves, lambda name, row_grid, pars: (
        "injected nodal failure" if pars.lam == 8.0 and (
            name == "solve_nodal" or _is_dipole_row(row_grid, grid)) else None))
    won, failed = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.2, 8.0], grid, CFG)
    assert won.winner == WINNER_RADIAL and not won.failures
    assert failed.failures == ("nodal-dipole: injected nodal failure",
                               "nodal-radial: injected nodal failure")
    assert failed.winner == WINNER_NONE and math.isnan(failed.nonradiality)
    assert failed.beta_hat == failed.beta_dipole == failed.beta_radial == math.inf
    assert math.isfinite(failed.alpha_hat) and math.isfinite(failed.c_hat)
    lo, hi, crossings = transition_bracket([won, failed])
    assert lo == 0.2 and math.isnan(hi) and crossings == 0


def test_sweep_records_unconverged_rows(caplog, solve_budget):
    # every row stops after two descent steps: each is a failure and gives no
    # level; the dipole row runs before the sector row, but failures keep the
    # row order
    solve_budget(2)
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    with caplog.at_level(logging.WARNING, logger="spiralnls.studies"):
        records = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5, 4.0], grid, CFG)
    tags = ["disk-ground", "sector-ground", "nodal-dipole", "nodal-radial"]
    for rec in records:
        assert rec.failures == tuple(f"{tag}: not converged after 2 iterations"
                                     for tag in tags)
        assert math.isnan(rec.alpha_hat) and math.isnan(rec.c_hat)
        assert rec.beta_hat == rec.beta_dipole == rec.beta_radial == math.inf
        assert rec.winner == WINNER_NONE
    run_order = [rec.getMessage().split()[0] for rec in caplog.records]
    assert run_order == ["disk-ground", "nodal-dipole", "sector-ground", "nodal-radial"] * 2


def test_sweep_makes_four_solver_calls_per_pitch(monkeypatch):
    # the benchmark's op_s_p50 is a median over these calls, 16 per 4-pitch pass
    grid = build_grid(10.0, 64, 16, SectorKind.full_disk())
    solves = []
    _recording(monkeypatch, solves)
    records = sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.2, 1.0, 4.0, 8.0], grid, CFG)
    assert len(records) == 4 and len(solves) == 16
    assert not any(rec.failures for rec in records)


def test_dipole_row_unfolds_by_a_signed_gather():
    # a half disk with n/2 - 1 nodes, unfolded onto the n-node disk: theta-even,
    # odd under the half turn and 0 on both rays, bit for bit; energy pieces
    # twice the half disk's, and the same Euler-Lagrange residual (the
    # gradient itself unfolds), for a rough field and a solved one
    params = ModelParams(p=4.0, q=1, lam=0.7)

    def profile(r, t):
        return r * np.exp(-0.5 * r**2) * (1.5 * np.cos(t) - 0.4 * np.cos(3 * t)
                                          + 0.1 * np.cos(5 * t))

    for n in (8, 64):
        disk = build_grid(6.0, 48, n, SectorKind.full_disk())
        half = build_grid(6.0, 48, n // 2 - 1, SectorKind.half_disk())
        rough = Field(half, half.even_part(field_from_polar(half, profile).values))
        solved = solve_ground(half, params, replace(CFG, seed=rough)).field
        for u in (rough, solved):
            ext = dipole_on_disk(u, disk)
            vals = ext.values
            assert np.array_equal(vals, vals[:, disk.mirror])
            assert np.array_equal(np.roll(vals, n // 2, axis=1), -vals)
            assert not np.any(vals[:, [n // 4, 3 * n // 4]])
            assert np.array_equal(vals[:, n // 4 + 1: 3 * n // 4], u.values)

            e_half, e_disk = energy(u, params), energy(ext, params)
            for name in ("dirichlet", "angular", "mass", "potential", "total"):
                twice = 2 * getattr(e_half, name)
                assert abs(getattr(e_disk, name) - twice) <= 1e-12 * abs(twice)
            g_half, g_disk = gradient(u, params)[0], gradient(ext, params)[0]
            unfolded = dipole_on_disk(g_half, disk).values
            assert np.max(np.abs(g_disk.values - unfolded)) <= 1e-12 * np.max(np.abs(vals))
            res_half = lambda_norm(g_half, params) / lambda_norm(u, params)
            res_disk = lambda_norm(g_disk, params) / lambda_norm(ext, params)
            assert abs(res_disk - res_half) <= 1e-6 * res_half
        assert res_half <= 1e-7
