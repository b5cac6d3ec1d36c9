"""Pitch sweeps and the two asymptotic regimes.

sweep_lambda charts the symmetry-breaking transition: per pitch it computes
the positive ground level on disk and sector and the sign-changing level from
both candidate seeds, declaring the winning symmetry class and the bracket
between the last radial win and the first dipole win.

asymptotics_infinity tracks the sector ground state's peak drifting outward
(tau up, tau/lambda down) and its convergence, recentred, to the free-plane
ground profile.

asymptotics_zero follows the concentration limit: the q=1 sector problem is
solved on grids whose radius scales with the pitch, so the rescaled field
v(x) = lam^{2/(p-2)} u(lam x) lands sample-for-sample on the fixed prototype
grid where the q=0 limit problem lives.  The energy identity
J_lam(v) = lam^{4/(p-2)} E_lam(u) is then checked between two genuinely
independent evaluations (different grids, different parameter sets), and the
distance to the q=0 ground state needs no interpolation at all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import energy, h1_fd_norm_sq, lambda_norm
from .errors import PeakAtBoundary, SpiralError
from .grid import Field, ModelParams, PolarGrid, SectorKind, build_grid
from .minimize import (
    SEED_RADIAL,
    SEED_RADIAL_NODAL,
    SolveConfig,
    SolveReport,
    make_seed,
    solve_ground,
    solve_nodal,
)
from .radial import shoot_ground

log = logging.getLogger(__name__)

WINNER_RADIAL = "RadialNodal"
WINNER_DIPOLE = "Dipole"
WINNER_NONE = ""      # neither nodal row gave a level
_WIDE = 1.5    # radius (and radial node) factor of limit_radius_study's second grid


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    alpha_hat: float          # disk ground level
    beta_hat: float           # nodal level, min over seeds
    c_hat: float              # sector ground level
    nonradiality: float       # of the winning nodal minimizer
    winner: str               # WINNER_RADIAL, WINNER_DIPOLE or WINNER_NONE
    tau: float                # axis peak location of the sector ground state
    beta_dipole: float
    beta_radial: float
    failures: tuple = ()


@dataclass(frozen=True)
class InfinityRecord:
    lam: float
    tau: float
    tau_over_lambda: float
    h1_gap_rel: float         # recentred H1 distance to the free ground profile
    c_hat: float


@dataclass(frozen=True)
class RescaleRecord:
    lam: float
    c_lambda: float
    j_lambda: float           # lam^{4/(p-2)} c_lambda, by construction
    j_direct: float           # J evaluated on the rescaled field's own grid
    identity_rel: float       # |j_direct - j_lambda| / j_lambda
    limit_gap: float          # ||v - v*|| / ||v*|| in the lam=1, q=0 metric


def _axis_peak(report: SolveReport) -> float:
    """Peak position along theta = 0, refined by a parabola through the argmax.

    Sector grids have no node exactly on the axis; the angular series is
    summed at theta = 0, which is spectrally exact.
    """
    grid = report.field.grid
    profile = grid.series_at(report.field.values, 0.0)
    j = int(np.argmax(np.abs(profile)))
    if j in (0, grid.nr - 1):
        raise PeakAtBoundary(f"profile maximum at radial node {j}; increase R")
    y0, y1, y2 = np.abs(profile[j - 1: j + 2])
    denom = y0 - 2 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    return float(grid.radii[j] + shift * grid.dr)


_ROWS = ("disk-ground", "sector-ground", "nodal-dipole", "nodal-radial")   # failure order


def _converged(rep: SolveReport) -> SolveReport:
    """rep, if its solve converged; else a SpiralError naming its iteration count."""
    if not rep.converged:
        raise SpiralError(f"not converged after {rep.iterations} iterations")
    return rep


def sweep_lambda(params_base: ModelParams, lambdas, grid: PolarGrid,
                 cfg: SolveConfig | None = None) -> list[SweepRecord]:
    """Ground and nodal levels per pitch; locates the symmetry transition.

    Uses the supplied disk grid for the disk ground and radial-nodal rows and
    a half-disk grid of the same shape for the sector level.  Requires q = 1,
    the full disk with ntheta divisible by 4 and at least 8, and an increasing
    pitch list.  Per-pitch solver failures, unconverged rows among them, are
    recorded in row order and give no level (no winner without a nodal level);
    the sweep goes on.  A row whose seed is radial on its grid and whose field
    at the previous pitch is radial starts from that field (natural-parameter
    continuation, exact for radial states).

    The dipole row is the ground problem on the half disk with ntheta/2 - 1
    nodes, from its cold seed: the disk's fields even in theta and odd under
    the half turn are its odd extensions (symmetric criticality, Palais,
    Comm. Math. Phys. 69, 1979).  Its level on the disk is twice its
    half-disk level, since the disk field is the signed gather of two
    copies, and its nonradiality is that of a sector field, 1.  The sector
    ground row starts from the dipole row's sine series summed at the
    sector grid's angles, the same state on twice the angular nodes, or from
    its cold seed if the dipole row failed.
    """
    if params_base.q != 1:
        raise ValueError("the sweep studies the q = 1 problem")
    if not grid.sector.is_full:
        raise ValueError("the sweep runs on the full disk")
    if grid.ntheta % 4 or grid.ntheta < 8:
        raise ValueError(f"the sweep needs ntheta divisible by 4 and at least 8, "
                         f"got {grid.ntheta}")
    lambdas = list(lambdas)
    if not lambdas or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("need a nonempty, strictly increasing pitch list")
    cfg = cfg or SolveConfig()
    half = build_grid(grid.R, grid.nr, grid.ntheta, SectorKind.half_disk())
    dipole_half = build_grid(grid.R, grid.nr, grid.ntheta // 2 - 1, SectorKind.half_disk())

    records = []
    previous = {}   # row tag -> that row's converged report at the previous pitch
    for lam in lambdas:
        params = replace(params_base, lam=float(lam))
        failures = {}

        def attempt(tag, fn, row_grid, seed):
            # a radial seed keeps its solve among radial fields, which have no
            # angular energy: there the previous pitch's field is critical at
            # this pitch too, and seeds the row exactly
            prev = previous.pop(tag, None)
            if (prev is not None and prev.field.is_radial()
                    and make_seed(row_grid, params, seed).is_radial()):
                seed = prev.field
            try:
                rep = _converged(fn(row_grid, params, replace(cfg, seed=seed)))
            except Exception as exc:  # per-pitch failures must not kill the sweep
                log.warning("%s failed at lam=%s: %s", tag, lam, exc)
                failures[tag] = f"{tag}: {exc}"
                return None
            previous[tag] = rep
            return rep

        rep_alpha = attempt("disk-ground", solve_ground, grid, SEED_RADIAL)
        rep_dip = attempt("nodal-dipole", solve_ground, dipole_half, SEED_RADIAL)
        sector_seed = SEED_RADIAL
        if rep_dip:
            series = dipole_half.series_at(rep_dip.field.values, half.angles)
            sector_seed = Field(half, half.even_part(series))
        rep_c = attempt("sector-ground", solve_ground, half, sector_seed)
        tau = math.nan
        if rep_c:
            try:
                tau = _axis_peak(rep_c)
            except PeakAtBoundary as exc:   # the level stands; only tau is lost
                log.warning("sector-ground failed at lam=%s: %s", lam, exc)
                failures["sector-ground"] = f"sector-ground: {exc}"
        rep_rad = attempt("nodal-radial", solve_nodal, grid, SEED_RADIAL_NODAL)

        beta_dip = 2.0 * rep_dip.energy.total if rep_dip else math.inf
        beta_rad = rep_rad.energy.total if rep_rad else math.inf
        if beta_dip < beta_rad * (1.0 - 1e-9):
            winner, best = WINNER_DIPOLE, rep_dip
        else:
            winner, best = (WINNER_RADIAL, rep_rad) if rep_rad else (WINNER_NONE, None)
        records.append(SweepRecord(
            lam=float(lam),
            alpha_hat=rep_alpha.energy.total if rep_alpha else math.nan,
            beta_hat=min(beta_dip, beta_rad),
            c_hat=rep_c.energy.total if rep_c else math.nan,
            nonradiality=best.nonradiality if best else math.nan,
            winner=winner,
            tau=tau,
            beta_dipole=beta_dip,
            beta_radial=beta_rad,
            failures=tuple(failures[tag] for tag in _ROWS if tag in failures),
        ))
    return records


def transition_bracket(records: list[SweepRecord]):
    """[largest radial-winning pitch, smallest dipole-winning pitch] and the
    crossing count among pitches with a winner (the theory fixes two regimes
    but not a single crossing)."""
    radial_lams = [r.lam for r in records if r.winner == WINNER_RADIAL]
    dipole_lams = [r.lam for r in records if r.winner == WINNER_DIPOLE]
    lo = max(radial_lams) if radial_lams else math.nan
    hi = min(dipole_lams) if dipole_lams else math.nan
    won = [r for r in records if r.winner != WINNER_NONE]
    crossings = sum(1 for a, b in zip(won, won[1:]) if a.winner != b.winner)
    return lo, hi, crossings


def _interp_profile_shifted(profile, grid: PolarGrid, tau: float) -> np.ndarray:
    """Sample profile(|x - tau e1|) on the grid nodes."""
    rr = grid.radii[:, None]
    tt = grid.angles[None, :]
    dist = np.sqrt(rr**2 + tau**2 - 2.0 * rr * tau * np.cos(tt))
    return profile(dist)


def asymptotics_infinity(params: ModelParams, lambdas, grid: PolarGrid,
                         cfg: SolveConfig | None = None) -> list[InfinityRecord]:
    """Large-pitch drift of the sector ground state toward the free profile.

    For each pitch the half-plane ground state is solved, its axis peak tau
    located, and the recentred field compared in (first-difference) H1 norm to
    the 1D oracle's ground profile translated to tau.  A solve that stops
    unconverged raises SpiralError.
    """
    if params.q != 1:
        raise ValueError("the large-pitch study needs q = 1")
    if grid.sector.is_full:
        raise ValueError("needs a sector grid")
    cfg = cfg or SolveConfig()
    w_inf = shoot_ground(params.p)
    w_h1 = math.sqrt(2.0 * math.pi * np.trapezoid(
        (w_inf.slopes**2 + w_inf.values**2) * w_inf.radii, w_inf.radii))

    out = []
    for lam in lambdas:
        pars = replace(params, lam=float(lam))
        rep = _converged(solve_ground(grid, pars, replace(cfg, seed=SEED_RADIAL)))
        tau = _axis_peak(rep)
        if tau > grid.R - 5.0:
            raise PeakAtBoundary(f"peak {tau:.2f} too close to R={grid.R}")
        shifted = _interp_profile_shifted(w_inf, grid, tau)
        diff = Field(grid, rep.field.values - shifted)
        gap = math.sqrt(h1_fd_norm_sq(diff)) / w_h1
        out.append(InfinityRecord(
            lam=float(lam), tau=tau, tau_over_lambda=tau / float(lam),
            h1_gap_rel=gap, c_hat=rep.energy.total,
        ))
    return out


def asymptotics_zero(params: ModelParams, lambdas, grid: PolarGrid,
                     cfg: SolveConfig | None = None):
    """Concentration limit: rescaled sector solutions against the q=0 ground.

    grid is the lam = 1 prototype; each pitch is solved on the radius-scaled
    copy (R -> lam R) so that v(x) = lam^{2/(p-2)} u(lam x) is an exact
    sample-for-sample rescale back onto the prototype, where the q=0 limit
    problem is solved once.  Pitches must not exceed 1 (concentration regime).
    Returns the records and the limit problem's report.  A solve that stops
    unconverged raises SpiralError.
    """
    if params.q != 1:
        raise ValueError("the concentration study rescales the q = 1 problem")
    if grid.sector.is_full:
        raise ValueError("needs a sector grid")
    lambdas = list(lambdas)
    if any(l > 1.0 for l in lambdas):
        raise ValueError("pitch values must be <= 1 for the rescaling limit")
    cfg = cfg or SolveConfig()
    alpha = 2.0 / (params.p - 2.0)

    limit_params = ModelParams(p=params.p, q=0, lam=1.0)
    limit_rep = _converged(solve_ground(grid, limit_params, replace(cfg, seed=SEED_RADIAL)))
    vstar = limit_rep.field
    vstar_norm = lambda_norm(vstar, limit_params)

    out = []
    for lam in lambdas:
        lam = float(lam)
        pars = replace(params, lam=lam)
        sub = build_grid(lam * grid.R, grid.nr, grid.ntheta, grid.sector)
        rep = _converged(solve_ground(sub, pars, replace(cfg, seed=SEED_RADIAL)))
        c_lam = rep.energy.total
        j_lam = lam ** (2.0 * alpha) * c_lam

        v = Field(grid, lam**alpha * rep.field.values)
        veng = energy(v, limit_params)
        j_direct = (veng.total
                    + 0.5 * lam**2 * grid.quad(v.values**2))  # + lam^2 |v|_2^2 / 2
        identity_rel = abs(j_direct - j_lam) / abs(j_lam)

        diff = Field(grid, v.values - vstar.values)
        gap = lambda_norm(diff, limit_params) / vstar_norm
        out.append(RescaleRecord(
            lam=lam, c_lambda=c_lam, j_lambda=j_lam, j_direct=j_direct,
            identity_rel=identity_rel, limit_gap=gap,
        ))
    return out, limit_rep


def limit_radius_study(params: ModelParams, limit: SolveReport,
                       cfg: SolveConfig | None = None):
    """Truncation-radius sensitivity of the q=0 limit level (no decay rate is
    known a priori there): the level of limit, asymptotics_zero's solve at R,
    against a solve at 1.5 R, same resolution; SpiralError if that solve
    stops unconverged."""
    cfg = cfg or SolveConfig()
    limit_params = ModelParams(p=params.p, q=0, lam=1.0)
    e1 = limit.energy.total
    grid = limit.field.grid
    wide = build_grid(_WIDE * grid.R, int(_WIDE * grid.nr), grid.ntheta, grid.sector)
    e2 = _converged(solve_ground(wide, limit_params, cfg)).energy.total
    return e1, e2, abs(e2 - e1) / abs(e1)
