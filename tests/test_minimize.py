import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from reference import field_from_polar, newton_refine, unprojected
from scipy.sparse.linalg import LinearOperator

from spiralnls import minimize, radial
from spiralnls.energy import energy, gradient, lambda_inner, lambda_norm
from spiralnls.errors import GridMismatchError, OnePhaseMissing, SeedCollapsed, ZeroFieldError
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.minimize import (
    SEED_DIPOLE,
    SEED_RADIAL,
    SEED_RADIAL_NODAL,
    SolveConfig,
    make_seed,
    solve_ground,
    solve_nodal,
)
from spiralnls.nehari import Projected, manifold_residual, project_ray
from spiralnls.radial import limit_levels, shoot_ground
from spiralnls.studies import sweep_lambda

GRID = build_grid(20.0, 256, 32, SectorKind.full_disk())
HALF = build_grid(20.0, 256, 32, SectorKind.half_disk())


@pytest.fixture(scope="module")
def ground_run():
    params = ModelParams(p=4.0, q=1, lam=1.0)
    cfg = SolveConfig(grad_tol=1e-8, keep_trace=True)
    return solve_ground(GRID, params, cfg), params, cfg


@pytest.fixture(scope="module")
def nodal_run():
    params = ModelParams(p=4.0, q=1, lam=0.1)
    cfg = SolveConfig(seed=SEED_DIPOLE, grad_tol=1e-7)
    return solve_nodal(GRID, params, cfg), params


def test_ground_converges_radial(ground_run):
    report, params, cfg = ground_run
    assert report.converged
    assert report.nonradiality < 1e-8
    oracle = shoot_ground(4.0)
    assert abs(report.energy.total - oracle.energy) / oracle.energy < 0.005


def test_ground_positive(ground_run):
    report, _, _ = ground_run
    assert np.min(report.field.values) >= -1e-8 * report.field.linf()


def test_ground_criticality_weak_form(ground_run, rng):
    report, params, cfg = ground_run
    u = report.field
    for _ in range(50):
        v = Field(GRID, rng.standard_normal((GRID.nr, GRID.ntheta)))
        vn = Field(GRID, v.values / lambda_norm(v, params))
        res = lambda_inner(gradient(u, params)[0], vn, params)
        assert abs(res) < 10 * cfg.grad_tol


def test_ground_nehari_residual(ground_run):
    report, params, cfg = ground_run
    assert abs(manifold_residual(report.field, params).single) <= 10 * cfg.grad_tol


def test_ground_descent_monotone(ground_run):
    report, params, _ = ground_run
    energies = [row[1] for row in report.trace]
    slack = 1e-12 * (1 + abs(energies[0]))
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))


def test_ground_lambda_independence():
    cfg = SolveConfig(grad_tol=1e-8)
    totals = []
    for lam in (0.5, 1.0, 2.0):
        rep = solve_ground(GRID, ModelParams(p=4.0, q=1, lam=lam), cfg)
        assert rep.converged
        totals.append(rep.energy.total)
    spread = max(totals) - min(totals)
    assert spread <= 1e-8 * abs(totals[0])


def test_sector_level_monotone_in_lambda():
    cfg = SolveConfig(grad_tol=1e-8)
    c1 = solve_ground(HALF, ModelParams(p=4.0, q=1, lam=1.0), cfg).energy.total
    c2 = solve_ground(HALF, ModelParams(p=4.0, q=1, lam=2.0), cfg).energy.total
    assert c1 >= c2


def test_nodal_small_pitch_both_seeds_radial(nodal_run):
    report_dip, params = nodal_run
    cfg = SolveConfig(seed=SEED_RADIAL_NODAL, grad_tol=1e-7)
    report_rad = solve_nodal(GRID, params, cfg)
    for rep in (report_dip, report_rad):
        assert rep.converged
        assert rep.nonradiality < 1e-6
    _, nodal_energy, _ = limit_levels(4.0)
    assert abs(report_rad.energy.total - nodal_energy) / nodal_energy < 0.01
    assert abs(report_dip.energy.total - report_rad.energy.total) \
        <= 1e-6 * abs(report_rad.energy.total)


def test_nodal_large_pitch_below_radial_branch():
    params = ModelParams(p=4.0, q=1, lam=50.0)
    cfg = SolveConfig(seed=SEED_DIPOLE, grad_tol=1e-7)
    rep = solve_nodal(GRID, params, cfg)
    assert rep.converged
    c_inf, _, eps_star = limit_levels(4.0)
    assert rep.energy.total < 2 * c_inf + eps_star
    assert manifold_residual(rep.field, params).plus == pytest.approx(0.0, abs=1e-10)


def test_level_ordering_beta_vs_alpha(ground_run, nodal_run):
    ground, params, _ = ground_run
    nodal, _ = nodal_run
    assert nodal.energy.total >= 2 * ground.energy.total - 1e-6


def test_sector_large_pitch_energy_near_free_level():
    # half disk at lam = 40, R = 40: level within 2% of the free-plane ground
    grid = build_grid(40.0, 512, 96, SectorKind.half_disk())
    params = ModelParams(p=4.0, q=1, lam=40.0)
    rep = solve_ground(grid, params, SolveConfig(grad_tol=1e-8))
    assert rep.converged
    oracle = shoot_ground(4.0)
    assert abs(rep.energy.total - oracle.energy) / oracle.energy < 0.02


def test_dipole_solve_that_would_lose_a_sign_ends_radial():
    # at small pitch the cold dipole iterate slides toward the radial-nodal
    # state; on this grid a full step on the way wipes out one signed part,
    # and the descent halves such a step instead of giving up
    grid = build_grid(24.0, 320, 64, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=0.1)
    dipole = solve_nodal(grid, params, SolveConfig(seed=SEED_DIPOLE))
    radial = solve_nodal(grid, params, SolveConfig(seed=SEED_RADIAL_NODAL))
    assert dipole.converged and radial.converged
    assert dipole.nonradiality < 1e-6
    assert abs(dipole.energy.total - radial.energy.total) <= 1e-12 * radial.energy.total


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_radial_nodal_seed_never_shoots_the_oracle(monkeypatch, p):
    # the named seed is a closed form, so the 1D oracle that checks the
    # radial branch never starts it; it reaches the oracle-seeded level
    grid = build_grid(8.0, 24, 8, SectorKind.full_disk())
    params = ModelParams(p=p, q=1, lam=5.0)
    profile = radial.shoot_nodal(p, 1)
    oracle_seed = Field(grid, profile(grid.radii)[:, None] * np.ones((1, grid.ntheta)))
    reference = solve_nodal(grid, params, SolveConfig(seed=oracle_seed))

    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("the radial-nodal seed shot the 1D oracle")

    for name in ("_shoot_cached", "_shoot_amplitude"):
        getattr(radial, name).cache_clear()
        monkeypatch.setattr(radial, name, refuse)
    rep = solve_nodal(grid, params, SolveConfig(seed=SEED_RADIAL_NODAL))
    assert rep.converged and reference.converged
    assert calls == []
    assert abs(rep.energy.total - reference.energy.total) <= 1e-12 * reference.energy.total


def test_nodal_requires_full_disk():
    with pytest.raises(ValueError):
        solve_nodal(HALF, ModelParams(p=4.0, q=1, lam=1.0))


def test_nodal_rejects_one_signed_seed():
    seed = field_from_polar(GRID, lambda r, t: np.exp(-r) + 0 * t)
    cfg = SolveConfig(seed=seed)
    with pytest.raises(OnePhaseMissing):
        solve_nodal(GRID, ModelParams(p=4.0, q=1, lam=1.0), cfg)


@pytest.mark.parametrize("solve", [solve_ground, solve_nodal])
def test_a_field_seed_on_another_grid_is_refused(solve):
    # the solve runs on its grid argument, never on the seed's
    seed_grid = build_grid(8.0, 32, 16, SectorKind.full_disk())
    seed = make_seed(seed_grid, ModelParams(p=4.0, q=1, lam=1.0), SEED_DIPOLE)
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    with pytest.raises(GridMismatchError):
        solve(grid, ModelParams(p=4.0, q=1, lam=1.0), SolveConfig(seed=seed))


def test_descent_turns_a_vanished_trial_into_seed_collapsed(small_disk, params_q1):
    # the projection, which integrates |u|^p anyway, reports the vanished field
    def vanished(v):
        raise ZeroFieldError("trial vanished")

    cur = project_ray(make_seed(small_disk, params_q1, SEED_RADIAL), params_q1)
    with pytest.raises(SeedCollapsed):
        minimize._descend(cur, params_q1, vanished, 0.0, None)


def test_descent_gives_up_once_its_step_reaches_the_floor(small_disk, params_q1):
    # every trial raises the energy: the step halves from 1 to STEP_MIN
    # (1, 1/2, ..., 2**-13, then 1e-4: 15 trials) and the iterate stays
    cur = project_ray(make_seed(small_disk, params_q1, SEED_RADIAL), params_q1)
    trials = []

    def rising(v):
        trials.append(v)
        return Projected(v, None, cur.energy + 1.0)

    state, gn, iterations = minimize._descend(cur, params_q1, rising, 0.0, None)
    assert state is cur and gn > 0.0 and iterations == 1
    assert len(trials) == 15
    g = minimize._gradient_of(cur, params_q1)[0].values
    assert np.allclose(trials[-1].values, cur.field.values - minimize.STEP_MIN * g,
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
def test_ground_solve_from_a_seed_with_no_symmetry(lam):
    # an off-center bump: no symmetry to lock, yet the flow reaches the radial level
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=lam)
    seed = field_from_polar(grid, lambda r, t: 2.0 * np.exp(
        -((r * np.cos(t) - 1.0) ** 2 + (r * np.sin(t) - 0.5) ** 2) / 2.0))
    assert grid.class_view(seed.values) is grid
    rep = solve_ground(grid, params, SolveConfig(seed=seed))
    radial = solve_ground(grid, params)
    assert rep.converged and radial.converged
    assert abs(rep.energy.total - radial.energy.total) <= 1e-12 * radial.energy.total


def test_a_theta_constant_seed_on_a_sector_is_even_not_radial():
    # the Dirichlet rays pull a theta-constant seed down at the sector's
    # edges, so the flow cannot keep it constant; held to constant fields,
    # this solve stalled unconverged at E = 49.37 after 311 iterations
    grid = build_grid(8.0, 48, 16, SectorKind.half_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    seed = field_from_polar(grid, lambda r, t: 2.0 * np.exp(-0.5 * r**2) + 0 * t)
    assert seed.is_radial()
    rep = solve_ground(grid, params, SolveConfig(seed=seed))
    named = solve_ground(grid, params)
    assert rep.converged and named.converged
    assert abs(rep.energy.total - named.energy.total) <= 1e-12 * named.energy.total
    # the even class, folded onto the ceil(16/2) nodes below the bisector
    view = grid.class_view(seed.values)
    assert view.columns == grid.even_columns() and view.nnodes == 8


def test_newton_polish_stops_at_its_solve_budget(caplog, solve_budget):
    # this solve descends 17 steps and converges with 4 Newton solves; a
    # budget of 3 Newton solves stops it at 20 iterations
    grid = build_grid(8.0, 48, 16, SectorKind.half_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert solve_ground(grid, params).converged
    solve_budget(minimize._DESCENT_STEPS, 3)
    with caplog.at_level(logging.DEBUG, logger="spiralnls.minimize"):
        rep = solve_ground(grid, params, SolveConfig(keep_trace=True))
    assert not rep.converged and rep.iterations == 20 and len(rep.trace) == 20
    assert any(rec.getMessage().startswith("17 descent steps")
               and "3 newton solves" in rec.getMessage() for rec in caplog.records)


def test_step_budget_returns_best_iterate(solve_budget):
    solve_budget(3)
    rep = solve_ground(GRID, ModelParams(p=4.0, q=1, lam=1.0), SolveConfig(grad_tol=1e-12))
    assert not rep.converged
    assert rep.iterations == 3
    assert np.all(np.isfinite(rep.field.values))


def test_newton_refine_fixed_point(ground_run):
    report, params, cfg = ground_run
    refined = newton_refine(report.field, params, tol=cfg.grad_tol)
    gn_in = lambda_norm(gradient(report.field, params)[0], params)
    gn_out = lambda_norm(gradient(refined, params)[0], params)
    assert gn_out <= gn_in * (1 + 1e-12)


def test_newton_refine_quadratic_polish():
    params = ModelParams(p=4.0, q=1, lam=1.0)
    rough = solve_ground(GRID, params, SolveConfig(grad_tol=1e-6))
    assert rough.converged
    refined = newton_refine(rough.field, params, tol=1e-12)
    gn = lambda_norm(gradient(refined, params)[0], params)
    assert gn < 1e-12


def test_newton_refine_rejects_zero(params_q1, small_disk):
    z = Field(small_disk, np.zeros((small_disk.nr, small_disk.ntheta)))
    with pytest.raises(ZeroFieldError):
        newton_refine(z, params_q1, tol=1e-10)


def test_newton_refine_rejects_far_field(params_q1, small_disk, rng):
    u = Field(small_disk, 5.0 * rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    with pytest.raises(ValueError):
        newton_refine(u, params_q1, tol=1e-10)


def test_deterministic_reports():
    params = ModelParams(p=4.0, q=1, lam=1.3)
    cfg = SolveConfig(grad_tol=1e-7)
    a = solve_ground(GRID, params, cfg)
    b = solve_ground(GRID, params, cfg)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.energy.total == b.energy.total
    assert a.iterations == b.iterations


def test_invalid_solve_config():
    with pytest.raises(ValueError):
        SolveConfig(grad_tol=0.0)


def _near_critical(params):
    rough = solve_ground(GRID, params, SolveConfig(grad_tol=1e-6))
    assert rough.converged
    return rough.field


def test_newton_polish_stops_on_gmres_breakdown(monkeypatch):
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = _near_critical(params)
    monkeypatch.setattr(minimize, "gmres",
                        lambda op, rhs, **kw: (np.zeros_like(rhs), -1))
    state, gn, solves, _ = minimize._newton_polish(u, params, 1e-12, unprojected(params))
    assert solves == 1
    assert np.array_equal(state.field.values, u.values)
    assert gn > 1e-12


def test_newton_polish_logs_gmres_iteration_cap(monkeypatch, caplog):
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = _near_critical(params)
    real = minimize.gmres

    def capped(op, rhs, **kw):
        delta, _ = real(op, rhs, **kw)
        return delta, 1

    monkeypatch.setattr(minimize, "gmres", capped)
    with caplog.at_level(logging.DEBUG, logger="spiralnls.minimize"):
        _, gn, _, _ = minimize._newton_polish(u, params, 1e-12, unprojected(params))
    assert gn <= 1e-12
    assert any("short of its tolerance" in rec.getMessage() and rec.levelno == logging.DEBUG
               for rec in caplog.records)


def _failed_polish_solve(monkeypatch, caplog, gmres):
    """Check a cold ground solve on the 48x16 disk whose polish fails with
    gmres replaced; returns the polish's solves."""
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    calls = {}

    def recording(name):
        real = getattr(minimize, name)

        def wrapper(*args, **kwargs):
            assert name not in calls, f"{name} ran twice"
            calls[name] = real(*args, **kwargs)
            return calls[name]
        return wrapper

    for name in ("_descend", "_newton_polish"):
        monkeypatch.setattr(minimize, name, recording(name))
    monkeypatch.setattr(minimize, "gmres", gmres)
    with caplog.at_level(logging.WARNING, logger="spiralnls.minimize"):
        rep = solve_ground(grid, ModelParams(p=4.0, q=1, lam=2.0), SolveConfig(keep_trace=True))
    handover, _, steps = calls["_descend"]
    state, gn, solves, _ = calls["_newton_polish"]
    # unconverged at once: the polish's last iterate is the report's field
    assert not rep.converged and gn > 1e-8
    assert rep.iterations == steps + solves
    assert np.array_equal(rep.field.values, state.field.values[:, state.field.grid.orbit])
    assert rep.energy.total <= handover.energy * (1 + 1e-12)
    # one trace row per descent step and per solve, numbered on without gaps
    assert [row[0] for row in rep.trace] == list(range(1, rep.iterations + 1))
    return solves


def test_solve_ends_unconverged_after_gmres_breakdown(monkeypatch, caplog):
    solves = _failed_polish_solve(
        monkeypatch, caplog, lambda op, rhs, **kw: (np.zeros_like(rhs), -1))
    assert solves == 1
    assert any("newton linear solve failed (gmres info=-1)" in rec.getMessage()
               for rec in caplog.records)


def test_newton_stall_ends_the_solve_unconverged(monkeypatch, caplog):
    # a zero Newton step never lowers the energy or the residual
    solves = _failed_polish_solve(
        monkeypatch, caplog, lambda op, rhs, **kw: (np.zeros_like(rhs), 0))
    assert solves == 9
    assert any("newton stalled" in rec.getMessage() for rec in caplog.records)


@pytest.mark.parametrize("R, iterations, level", [
    (24.0, 34, 288746749192.1665),
    (1.2, 24, 306555149558.0969),
])
def test_round_off_floor_ends_a_large_norm_solve(R, iterations, level):
    # at p = 2.5, lambda = 0.05 the half-disk ground state has ||u|| about
    # 2e6: Newton stalls at |E'| of 45-65 eps ||u||, above grad_tol = 1e-8,
    # and converges at the floor _ROUNDOFF eps ||u||
    grid = build_grid(R, 320, 64, SectorKind.half_disk())
    rep = solve_ground(grid, ModelParams(p=2.5, q=1, lam=0.05))
    assert rep.converged and rep.iterations == iterations
    assert abs(rep.energy.total - level) <= 1e-13 * level


def test_cold_sector_ground_solve_hands_over_early(caplog):
    # the bump's flat valley at lambda = 5 took 102 descent steps before the
    # hand-over at 1e-4; Newton now carries it from 1e-2
    grid = build_grid(24.0, 320, 64, SectorKind.half_disk())
    with caplog.at_level(logging.DEBUG, logger="spiralnls.minimize"):
        rep = solve_ground(grid, ModelParams(p=4.0, q=1, lam=5.0), SolveConfig(keep_trace=True))
    assert rep.converged and rep.iterations <= 20
    assert abs(rep.energy.total - 6.596732415772473) <= 1e-12 * 6.596732415772473
    # one trace row per descent step and per Newton solve
    iters = [row[0] for row in rep.trace]
    assert iters == list(range(1, rep.iterations + 1))
    assert any("newton solves" in rec.getMessage() and rec.levelno == logging.DEBUG
               for rec in caplog.records)


def test_newton_forcing_term_does_not_over_solve(monkeypatch):
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = _near_critical(params)
    project = unprojected(params)
    real = minimize.gmres
    rtols = []

    def recording(op, rhs, **kw):
        rtols.append(kw["rtol"])
        return real(op, rhs, **kw)

    monkeypatch.setattr(minimize, "gmres", recording)
    tol, trace = 1e-12, []
    _, gn, solves, _ = minimize._newton_polish(u, params, tol, project, trace=trace)
    assert gn <= tol and len(rtols) == solves >= 1
    # the residual norm at each solve: the polish's start, then each solve's row
    gns = [minimize._gradient_of(project(u), params)[1]] + [row[2] for row in trace]
    for rtol, g in zip(rtols, gns):
        assert rtol >= min(0.1, 0.1 * tol / g)


def test_newton_line_search_skips_candidates_whose_projection_fails(monkeypatch):
    # the full step t = 1 vanishes and t = 1.5 loses a sign in every line
    # search: both count as worse, so no longer step is tried, and the shorter
    # ones still carry the polish to its tolerance
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = _near_critical(params)
    carry = unprojected(params)
    steps, tried = [], []   # the step being scored; every projected step
    real_walk = minimize._line_walk

    def walk(score):
        tried.append([])
        return real_walk(lambda t: steps.append(t) or score(t))

    def project(v):
        if not tried:
            return carry(v)        # the polish's start
        t = steps[-1]
        tried[-1].append(t)
        if t == 1.0:
            raise ZeroFieldError("vanished")
        if t == 1.5:
            raise OnePhaseMissing("one sign lost")
        return carry(v)

    monkeypatch.setattr(minimize, "_line_walk", walk)
    _, gn, solves, _ = minimize._newton_polish(u, params, 1e-12, project)
    assert gn <= 1e-12 and solves >= 1
    energy_walks = [t for t in tried if t[:1] == [1.0]]   # each solve's first walk
    assert len(energy_walks) == solves
    for t in energy_walks:
        assert t[:3] == [1.0, 1.5, 0.75] and 2.0 not in t


_STEPS = (2.0, 1.5, 1.0, 0.75, 0.5, 0.25, 0.1)
_INF = math.inf


@pytest.mark.parametrize("energies, residuals, tried, pick", [
    # energies at t = 2, 1.5, 1, 0.75, 0.5, 0.25, 0.1 (None: the projection
    # fails), the start at 1.0; the steps projected in order, the step taken
    ((9, 8, 0.5, 0.7, 0.8, 0.9, 0.95), None, [1, 1.5, 0.75], 1),
    ((0.5, 0.6, 0.8, 0.9, 0.95, 0.97, 0.99), None, [1, 1.5, 2], 2),
    ((0.7, 0.6, 0.8, 0.9, 0.95, 0.97, 0.99), None, [1, 1.5, 2], 1.5),
    ((0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.65), None, [1, 1.5, 0.75, 0.5, 0.25, 0.1], 0.25),
    ((0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5), None, [1, 1.5, 0.75, 0.5, 0.25, 0.1], 0.1),
    # ties go to the longer step, and a tie ends the walk in its direction
    ((0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5), None, [1, 1.5, 0.75], 1.5),
    ((0.9, 0.5, 0.5, 0.4, 0.4, 0.3, 0.2), None, [1, 1.5, 0.75, 0.5], 0.75),
    ((0.9, 0.8, 0.5, 0.5, 0.4, 0.3, 0.2), None, [1, 1.5, 0.75], 1),
    # failed projections score as worse than any energy
    ((0.1, None, 0.5, 0.7, 0.8, 0.9, 0.95), None, [1, 1.5, 0.75], 1),
    ((None, None, None, 0.7, 0.6, 0.8, 0.9), None, [1, 1.5, 0.75, 0.5, 0.25], 0.5),
    # (not unimodal: a longer step that beats a failed t = 1 ends the search)
    ((None, 0.7, None, 0.6, 0.8, 0.9, 0.95), None, [1, 1.5, 2], 1.5),
    ((None,) * 7, (_INF,) * 7, [1, 1.5, 0.75], None),
    # energy flat to round-off: the residual decides, walked the same way,
    # reusing the projections the energy walk made; none below the start's
    # residual (1.0) means no step
    ((1.0,) * 7, (0.45, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), [1, 1.5, 0.75, 2], 1.5),
    ((1.0,) * 7, (0.9, 0.8, 0.5, 0.3, 0.2, 0.25, 0.6), [1, 1.5, 0.75, 0.5, 0.25], 0.5),
    ((1.0,) * 7, (2.0, 1.5, 1.2, 1.1, 1.05, 1.02, 1.01), [1, 1.5, 0.75, 0.5, 0.25, 0.1], None),
])
def test_newton_line_search_walks_outward_from_the_full_step(monkeypatch, energies, residuals,
                                                             tried, pick):
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = field_from_polar(GRID, lambda r, t: np.exp(-r**2))
    d = field_from_polar(GRID, lambda r, t: r * np.exp(-r**2)).values
    by_step = dict(zip(_STEPS, energies))
    residual_at = dict(zip(_STEPS, residuals or (2.0,) * 7))
    projected = []

    def step_of(v):
        return round(float(np.sum((v.values - u.values) * d) / np.sum(d * d)), 9)

    def project(v):
        if v.values is u.values:
            return Projected(v, GRID.to_modes(v.values), 1.0)
        t = step_of(v)
        projected.append(t)
        if by_step[t] is None:
            raise OnePhaseMissing("one sign lost")
        return Projected(v, GRID.to_modes(v.values), float(by_step[t]))

    def gradient_of(state, params):
        t = None if state.field.values is u.values else step_of(state.field)
        return state.field, 1.0 if t is None else residual_at[t]

    monkeypatch.setattr(minimize, "gmres", lambda op, rhs, **kw: (d.ravel().copy(), 0))
    monkeypatch.setattr(minimize, "_gradient_of", gradient_of)
    monkeypatch.setattr(minimize, "_NEWTON_SOLVES", 1)
    state, _, solves, _ = minimize._newton_polish(u, params, 1e-300, project)
    assert solves == 1
    assert projected == tried
    if pick is None:
        assert state.field.values is u.values
    else:
        assert step_of(state.field) == pick


def test_line_walk_picks_what_a_full_scan_picks_on_unimodal_scores():
    # a full scan takes the least score, the longer step on ties
    rng = np.random.default_rng(11)
    for _ in range(300):
        low = int(rng.integers(7))
        rises = np.cumsum(rng.choice([0.0, 0.5, 1.0], size=7) + 0.25 * rng.random(7))
        scores = [float(rises[abs(i - low)]) for i in range(7)]   # least at index low
        evaluated = []

        def score(t):
            evaluated.append(t)
            return scores[_STEPS.index(t)]

        t, s = minimize._line_walk(score)
        full = min(range(7), key=lambda i: (scores[i], i))
        assert (t, s) == (_STEPS[full], scores[full])
        assert len(evaluated) == len(set(evaluated)) <= 6


@pytest.mark.parametrize("level", [logging.DEBUG, logging.INFO], ids=["debug", "info"])
def test_gmres_cap_residual_is_computed_only_for_debug(monkeypatch, caplog, level):
    params = ModelParams(p=4.0, q=1, lam=1.0)
    u = _near_critical(params)
    real = minimize.gmres
    outside = []   # matvecs of the polish's operator made after gmres returned

    def capped(op, rhs, **kw):
        matvec = op.matvec
        op.matvec = lambda x: outside.append(1) or matvec(x)
        delta, _ = real(SimpleNamespace(matvec=matvec), rhs, **kw)
        return delta, 1

    monkeypatch.setattr(minimize, "gmres", capped)
    with caplog.at_level(level, logger="spiralnls.minimize"):
        minimize._newton_polish(u, params, 1e-12, unprojected(params))
    assert bool(outside) == (level == logging.DEBUG)


def _nonsymmetric(n, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n) * 4.0 + rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal(n)


@pytest.mark.parametrize("n", [5, 60])
def test_gmres_solves_a_nonsymmetric_system(n):
    # at n = 5 the Krylov space closes on the solution: info 0, not -1
    A, b = _nonsymmetric(n, 7)
    x, info = minimize.gmres(SimpleNamespace(matvec=lambda v: A @ v), b, rtol=1e-10)
    assert info == 0
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(A, b), rtol=0, atol=1e-8)


def test_gmres_reports_its_cycle_cap(monkeypatch):
    # the one cycle ends at _GMRES_STEPS Arnoldi steps, short of rtol: info 1
    monkeypatch.setattr(minimize, "_GMRES_STEPS", 2)
    A, b = _nonsymmetric(60, 8)
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    x, info = minimize.gmres(SimpleNamespace(matvec=matvec), b, rtol=1e-12)
    assert info == 1 and len(calls) == 3   # two Arnoldi steps, one true residual
    assert np.linalg.norm(b - A @ x) > 1e-12 * np.linalg.norm(b)


def test_gmres_of_a_zero_right_hand_side():
    A, _ = _nonsymmetric(10, 9)
    x, info = minimize.gmres(SimpleNamespace(matvec=lambda v: A @ v), np.zeros(10), rtol=1e-8)
    assert info == 0 and not np.any(x)


def test_gmres_reports_a_closed_krylov_space():
    # b spans the kernel of a nilpotent A: the space closes without a solution
    A = np.diag(np.ones(3), k=1)
    x, info = minimize.gmres(SimpleNamespace(matvec=lambda v: A @ v), np.eye(4)[0], rtol=1e-8)
    assert info == -1


def test_gmres_takes_a_scipy_linear_operator():
    # the shape of a benchmark tracer's counting wrapper
    A, b = _nonsymmetric(40, 10)
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    op = LinearOperator(A.shape, matvec=matvec, dtype=float)
    x, info = minimize.gmres(op, b, rtol=1e-10)
    assert info == 0
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert 0 < len(calls) <= 41


@pytest.mark.parametrize("finite_calls", [0, 5])
def test_gmres_stops_on_a_non_finite_matvec(finite_calls):
    # NaN in the Arnoldi step, at once or after 5 steps: the cycle ends with
    # info -1 before it forms an iterate, so x comes back finite (zero)
    A, b = _nonsymmetric(60, 11)
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v if len(calls) <= finite_calls else np.full_like(v, np.nan)

    x, info = minimize.gmres(SimpleNamespace(matvec=matvec), b, rtol=1e-12)
    assert info == -1 and np.all(np.isfinite(x)) and not np.any(x)
    assert len(calls) == finite_calls + 1


def test_gmres_false_convergence_is_caught_by_the_true_residual():
    # a slightly nonlinear operator: the Arnoldi relation holds for the basis
    # vectors but not for their combination x, so the Givens estimate meets
    # rtol while the true residual ||b - op(x)|| does not; the true residual
    # decides, and there is no second cycle
    A, b = _nonsymmetric(60, 12)
    unit = []   # per matvec: is the argument an Arnoldi basis vector?

    def matvec(v):
        unit.append(abs(np.linalg.norm(v) - 1.0) < 1e-12)
        return A @ v + 1e-3 * v**3

    x, info = minimize.gmres(SimpleNamespace(matvec=matvec), b, rtol=1e-10)
    basis = unit[:]
    assert info == 1
    assert np.linalg.norm(b - matvec(x)) > 1e-10 * np.linalg.norm(b)
    # the cycle stopped on its estimate, short of the cap, and the one
    # non-basis matvec is the true residual's, last
    assert all(basis[:-1]) and not basis[-1]
    assert len(basis) - 1 < minimize._GMRES_STEPS


def test_newton_linear_solves_converge_in_one_short_cycle(monkeypatch):
    # every linear solve of a two-pitch sweep and of a lambda = 50 dipole
    # solve, both on the 48x16 disk, meets its rtol well inside the one
    # cycle (at most 10 matvecs each when this was written)
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    real = minimize.gmres
    solves = []   # (info, matvecs) per call

    def recording(op, rhs, **kw):
        count = [0]

        def matvec(x):
            count[0] += 1
            return op.matvec(x)

        x, info = real(SimpleNamespace(matvec=matvec), rhs, **kw)
        solves.append((info, count[0]))
        return x, info

    monkeypatch.setattr(minimize, "gmres", recording)
    sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5, 4.0], grid, SolveConfig(grad_tol=1e-7))
    swept = len(solves)
    rep = solve_nodal(grid, ModelParams(p=4.0, q=1, lam=50.0))
    assert rep.converged and 0 < swept < len(solves)
    assert all(info == 0 and matvecs <= 20 for info, matvecs in solves), solves
