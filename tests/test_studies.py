from dataclasses import replace

import pytest

from spiralnls import studies
from spiralnls.errors import PeakAtBoundary
from spiralnls.grid import ModelParams, SectorKind, build_grid
from spiralnls.minimize import (
    SEED_CUSTOM,
    SEED_DIPOLE,
    SEED_RADIAL,
    SEED_RADIAL_NODAL,
    SolveConfig,
    solve_ground,
    solve_nodal,
)
from spiralnls.studies import (
    SweepRecord,
    WINNER_DIPOLE,
    WINNER_RADIAL,
    asymptotics_infinity,
    asymptotics_zero,
    limit_radius_study,
    sweep_lambda,
    transition_bracket,
)

CFG = SolveConfig(grad_tol=1e-7, newton_refine=True)


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


def test_transition_bracket_synthetic():
    def rec(lam, winner):
        return SweepRecord(lam=lam, alpha_hat=1, beta_hat=2, c_hat=1,
                           nonradiality=0, winner=winner, tau=1,
                           beta_dipole=2, beta_radial=2)
    records = [rec(0.1, WINNER_RADIAL), rec(1.0, WINNER_RADIAL),
               rec(10.0, WINNER_DIPOLE)]
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
    return asymptotics_zero(ModelParams(p=4.0, q=1, lam=1.0),
                            [1.0, 0.5, 0.25], proto, CFG)


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
    e1, e2, rel = limit_radius_study(ModelParams(p=4.0, q=1, lam=1.0), grid, CFG)
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
            solves.append((cfg.seed_kind, rep))
            return rep

        monkeypatch.setattr(studies, name, recording)
    records = sweep_lambda(params, [0.2, 8.0], grid, CFG)
    assert [r.winner for r in records] == [WINNER_RADIAL, WINNER_DIPOLE]

    later = solves[4:]
    assert [kind for kind, _ in later] == [SEED_CUSTOM, SEED_RADIAL, SEED_DIPOLE,
                                           SEED_CUSTOM]
    pars = ModelParams(p=4.0, q=1, lam=8.0)
    colds = {0: solve_ground(grid, pars, replace(CFG, seed_kind=SEED_RADIAL)),
             3: solve_nodal(grid, pars, replace(CFG, seed_kind=SEED_RADIAL_NODAL))}
    for row, cold in colds.items():
        continued = later[row][1]
        assert continued.converged and continued.iterations == 1
        assert continued.field.is_radial()
        rel = abs(continued.energy.total - cold.energy.total) / cold.energy.total
        assert rel <= 1e-12
