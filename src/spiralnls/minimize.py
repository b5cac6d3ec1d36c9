"""Least-energy solves by Nehari-projected preconditioned descent.

Ground states (positive, level alpha on the disk / c_lambda on sectors)
descend along the pitch-metric gradient and re-project onto the Nehari set
after every step; sign-changing solves (level beta) re-project both signed
parts.  Backtracking halves the step whenever the projected energy rises or
a signed part vanishes, and doubles it after five consecutive accepts,
clamped to [1e-4, 1].  Every solve then hands over to a Newton polish of the
full Euler-Lagrange system, solved matrix-free with the per-mode operator as
preconditioner; that is what makes tight tolerances affordable when the
energy landscape is flat (large pitch, translating bump).  Ground solves
hand over once ||E'|| <= 1e-2 (1 + ||u||), so Newton, not the descent,
carries the bump along that flat valley; nodal solves descend to 1e-4
(1 + ||u||), because there the descent picks the branch (see
_NODAL_HANDOVER).  The polish's linear solves are inexact, with forcing
term 0.01 ||E'|| safeguarded against over-solving the last step (Kelley
1995, sec. 6.3); each is one GMRES cycle of at most _GMRES_STEPS steps, never
restarted, since the preconditioned system is a compact perturbation of the
identity, on which GMRES converges superlinearly (Campbell, Ipsen, Kelley &
Meyer, BIT 36, 1996).  A polish that breaks down, stalls or spends its budget
ends the solve unconverged.  A solve converges at ||E'|| <= max(grad_tol,
_ROUNDOFF eps ||u||), below which round-off in E' stalls Newton (Dennis &
Schnabel 1996, sec. 7.2).  A solve takes at most _DESCENT_STEPS descent steps
and _NEWTON_SOLVES Newton solves, and keep_trace records one row per descent
step and per Newton solve.

The exact flow preserves the symmetries of its seed: on the disk a radial
seed stays radial, and on every grid a reflection-even seed stays even in
theta.  (On a sector a theta-constant seed is even but does not stay
constant, since the Dirichlet rays pull it down.)  Runs started from such
seeds solve on the class's folded view (PolarGrid.class_view), whose critical
points are the whole grid's in the class (Palais, Comm. Math. Phys. 69,
1979): the mean mode and one node per ring for a radial seed, about half
the modes and nodes for an even one.  The class then holds bit for bit, so
round-off cannot excite the broken modes: the radial branch of the nodal
problem stays computable on its own, and the rotational null direction that
stalls the Newton polish on the full disk stays out.  The report's energy
and nonradiality index come from the modes that the last projected state
carries on the view, whose forms and quadrature are the whole grid's on class
fields; so reporting costs no transform, and only the field is unfolded onto
the caller's grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .diagnostics import _disk_nonradiality
from .energy import EnergyBreakdown, abs_power, gradient, lp_integral
from .errors import GridMismatchError, OnePhaseMissing, SeedCollapsed, ZeroFieldError
from .grid import Field, ModelParams, PolarGrid, solve_operator
from .nehari import Projected, project_nodal, project_ray

log = logging.getLogger(__name__)

STEP_MIN = 1e-4
STEP_MAX = 1.0
_DESCENT_STEPS = 300   # descent steps before the hand-over to Newton
_NEWTON_SOLVES = 40    # linear solves per Newton polish
_GMRES_STEPS = 80      # Arnoldi steps per linear solve; no run measured took more than 14
# Convergence floor in eps ||u||_lambda.  Newton stalled at 45 and 65 on the p = 2.5,
# lambda = 0.05 half-disk ground solves (320x64, R = 24 and 1.2, ||u|| ~ 2e6); 32 ended
# both unconverged, 48 one, 64-256 neither; 128 leaves a factor 2 (about 1e-12 at ||u|| 30).
_ROUNDOFF = 128
# Hand-over tolerances, relative to 1 + ||u||_lambda.  A ground solve hands
# over early: Newton carries the bump along its flat valley in a few solves
# where the descent took 100-300 steps.  A nodal solve keeps descending to
# 1e-4, since there the descent picks the branch: a hand-over of 1e-3, 3e-3
# or 1e-2 failed the small-pitch tests in which dipole and radial-nodal seeds
# must reach the same radial state, or in which the nodal solutions below the
# pitch threshold must come out radial.
_GROUND_HANDOVER = 1e-2
_NODAL_HANDOVER = 1e-4

SEED_RADIAL = "radial"
SEED_DIPOLE = "dipole"
SEED_RADIAL_NODAL = "radial-nodal"
_SEED_KINDS = (SEED_RADIAL, SEED_DIPOLE, SEED_RADIAL_NODAL)


@dataclass(frozen=True)
class SolveConfig:
    grad_tol: float = 1e-8
    seed: str | Field = SEED_RADIAL    # a seed kind, or a Field on the solve's grid
    keep_trace: bool = False

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if not isinstance(self.seed, Field) and self.seed not in _SEED_KINDS:
            raise ValueError(f"unknown seed kind {self.seed!r}")


@dataclass
class SolveReport:
    """What a solve owes its callers; the report writer derives the rest from field."""

    field: Field
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    nonradiality: float
    trace: Optional[list] = None


def make_seed(grid: PolarGrid, params: ModelParams, seed: str | Field) -> Field:
    """Starting field on grid: a Field seed, which must live there, or a named kind.

    radial        positive bump (disk) / lowest-angular-mode bump (sector)
    dipole        w(r) cos(theta) with w a positive bump, disk only
    radial-nodal  3 (1 - r^2/1.5^2) exp(-r^2/4), one sign change at r = 1.5

    Named seeds are exactly reflection-even so the solver can lock the
    symmetry class.
    """
    if isinstance(seed, Field):
        if seed.grid != grid:
            raise GridMismatchError("the seed field lives on another grid than the solve")
        return seed
    r = grid.radii[:, None]
    th = grid.angles[None, :]
    if seed == SEED_RADIAL:
        if grid.sector.is_full:
            vals = 2.0 * np.exp(-0.5 * r**2) * np.ones_like(th)
        else:
            # center tracks the expected peak: ~2 lam under concentration,
            # ~log(lam) when the bump migrates outward at large pitch
            if params.lam <= 1.0:
                center, width = 2.0 * params.lam, params.lam
                amp = 2.0 * params.lam ** (-2.0 / (params.p - 2.0))
            else:
                center, width = max(2.0, math.log(params.lam)), 1.0
                amp = 2.0
            center = min(center, 0.75 * grid.R)
            theta0 = grid.sector.half_angle
            lowest = np.sin(np.pi * (th + theta0) / (2 * theta0))
            vals = grid.even_part(amp * np.exp(-0.5 * ((r - center) / width) ** 2) * lowest)
        return Field(grid, vals)
    if seed == SEED_DIPOLE:
        vals = grid.even_part(2.0 * r * np.exp(-0.5 * (r - 2.0) ** 2) * np.cos(th))
        return Field(grid, vals)
    # SEED_RADIAL_NODAL; a closed form, so the 1D oracle only checks the radial branch
    return Field(grid, 3.0 * (1.0 - r**2 / 1.5**2) * np.exp(-0.25 * r**2) * np.ones_like(th))


def _gradient_of(state: Projected, params: ModelParams):
    """The gradient of a carried state and its pitch-weighted norm.

    The norm comes from the gradient's modes, the state's modes minus those
    of the per-mode solve, so it costs no transform.
    """
    g, S = gradient(state.field, params)
    G = state.modes - S
    return g, math.sqrt(max(state.field.grid.operator(params).inner(G, G), 0.0))


def _descend(cur: Projected, params: ModelParams, project, tol: float,
             trace: Optional[list]):
    """Projected gradient descent with the spec'd backtracking policy.

    The iterate and each projected trial carry their modes and energy, so a
    step transforms only the nonlinearity and the trial.  A trial that
    vanished is reported by its projection (ZeroFieldError) and raises
    SeedCollapsed.  Stops after _DESCENT_STEPS steps.  Returns (state,
    gradient norm, iterations).
    """
    grid = cur.field.grid
    step = STEP_MAX
    accepts_in_row = 0
    iterations = 0
    gn = math.inf
    for iterations in range(1, _DESCENT_STEPS + 1):
        g, gn = _gradient_of(cur, params)
        if trace is not None:
            trace.append((iterations, cur.energy, gn))
        if gn <= tol:
            return cur, gn, iterations
        while True:
            try:
                trial = project(Field(grid, cur.field.values - step * g.values))
            except ZeroFieldError:
                raise SeedCollapsed("descent iterate vanished") from None
            except OnePhaseMissing:
                trial = None     # the step wiped out one sign: too long, like a rise
            if trial is not None and trial.energy <= cur.energy + 1e-12 * (1.0 + abs(cur.energy)):
                break
            if step <= STEP_MIN:
                # flat to round-off; nothing left for first-order steps
                return cur, gn, iterations
            step = max(step / 2.0, STEP_MIN)
            accepts_in_row = 0
        cur = trial
        accepts_in_row += 1
        if accepts_in_row >= 5:
            step = min(step * 2.0, STEP_MAX)
            accepts_in_row = 0
    return cur, gn, iterations


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of products of two vectors in einsum's own loop, which calls no BLAS.

    np.dot and np.linalg.norm call BLAS, which splits long sums over its
    threads, so their bits depend on the thread count.
    """
    return float(np.einsum("i,i->", a, b))


def gmres(op, b: np.ndarray, *, rtol: float):
    """One cycle of GMRES (Saad & Schultz 1986) for op x = b, started from x = 0.

    op is used only through op.matvec.  The cycle runs at most _GMRES_STEPS
    Arnoldi steps (modified Gram-Schmidt) and stops early once the Givens
    estimate of the residual meets rtol ||b||; the true residual ||b - op x||
    then decides.  Returns (x, info): info 0 when the true residual meets
    rtol ||b||, -1 when the Krylov space closes (or a value turns non-finite)
    first, 1 otherwise.  The rotations run on Python floats and every vector
    reduction goes through _dot, so the bits do not depend on the BLAS thread
    count.
    """
    n = b.size
    x = np.zeros(n)
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return x, 0
    target = rtol * bnorm
    steps = min(_GMRES_STEPS, n)
    eps = np.finfo(float).eps
    V = np.empty((steps + 1, n))
    V[0] = b / bnorm
    gs = [bnorm]        # the rotated right-hand side of the least-squares problem
    cols, rots = [], []
    closed = False
    for j in range(steps):
        w = op.matvec(V[j])
        w0 = math.sqrt(_dot(w, w))
        h = []
        for k in range(j + 1):
            h.append(_dot(V[k], w))
            w -= h[k] * V[k]
        hn = math.sqrt(_dot(w, w))
        if not math.isfinite(hn):
            return x, -1
        closed = hn <= eps * w0
        if not closed:
            V[j + 1] = w / hn
        for k, (c, s) in enumerate(rots):
            h[k], h[k + 1] = c * h[k] + s * h[k + 1], c * h[k + 1] - s * h[k]
        rho = math.hypot(h[j], hn)
        c, s = (h[j] / rho, hn / rho) if rho > 0.0 else (1.0, 0.0)
        h[j] = rho
        rots.append((c, s))
        cols.append(h)
        gs.append(-s * gs[j])
        gs[j] *= c
        if abs(gs[j + 1]) <= target or closed:
            break
    # back substitution in the triangle, column by column
    y = gs[:len(cols)]
    for m in range(len(cols) - 1, -1, -1):
        y[m] = y[m] / cols[m][m] if cols[m][m] != 0.0 else 0.0
        for i in range(m):
            y[i] -= y[m] * cols[m][i]
    x += np.einsum("k,ki->i", np.array(y), V[:len(y)])
    r = b - op.matvec(x)
    if math.sqrt(_dot(r, r)) <= target:
        return x, 0
    return x, -1 if closed else 1


_LONGER_STEPS = (1.5, 2.0)
_SHORTER_STEPS = (0.75, 0.5, 0.25, 0.1)


def _line_walk(score):
    """(t, score(t)) of the least score over the step lengths 0.1, ..., 2, walked
    outward from t = 1.

    The longer steps 1.5 and 2 come first; the shorter ones 0.75, 0.5, 0.25 and
    0.1 only if no longer step scored below t = 1.  Each direction stops at its
    first step that scores no lower than the best so far, and a tie goes to the
    longer step.  So whenever score is unimodal along t the pick is a full
    scan's, which prefers the longer of equal steps, at 3 evaluations where the
    best step is t = 1 instead of 7.
    """
    best_t, best = 1.0, score(1.0)
    first = best
    for t in _LONGER_STEPS:
        s = score(t)
        if s <= best:
            best_t = t
        if not s < best:
            break
        best = s
    if not best < first:
        for t in _SHORTER_STEPS:
            s = score(t)
            if not s < best:
                break
            best_t, best = t, s
    return best_t, best


def _newton_polish(u: Field, params: ModelParams, tol: float, project,
                   trace: Optional[list] = None):
    """Newton polish of E'(u) = 0 along the manifold's energy valley.

    Solves ((1 + mu) I - L^{-1} D) delta = -g, D = (p-1)|u|^{p-2}, matrix-free
    with GMRES.  The candidate step is chosen by line-searching the PROJECTED
    energy along delta: soft valley directions (the translating bump at large
    pitch) curve in function space, so the raw residual can transiently grow
    along a productive step while the constrained energy keeps falling.  Once
    energy differences sink below round-off the residual itself decides, which
    is where quadratic convergence takes over.  Either search walks the step
    lengths outward from t = 1 (_line_walk): 1, then 1.5 and 2, then, only if
    neither scored below t = 1, 0.75, 0.5, 0.25 and 0.1, each direction
    stopping at its first step no better than the best so far; a failed
    projection scores as infinite.  mu grows only when a step fails both
    tests.  project maps a field to its Projected state.  The unknowns are
    u's node values, so on a folded view GMRES works on the class's
    fundamental nodes.  A failed linear solve (GMRES breakdown or a
    non-finite step) ends the polish, as do _NEWTON_SOLVES linear solves.

    The forcing term, GMRES's relative tolerance, is 0.01 |g| within
    [1e-10, 0.1], with Kelley's safeguard against over-solving (Iterative
    Methods for Linear and Nonlinear Equations, SIAM 1995, sec. 6.3): never
    below 0.1 tol/|g|, about what one step to tol needs.  Kelley uses 0.5; the
    margin is smaller here because GMRES measures the Euclidean residual of
    the node values and |g| is the pitch norm.  Each solve appends (row number,
    energy, |g|) to trace, numbering on from the rows already there.  Returns
    (state, |g|, solves, matvecs).
    """
    grid, shape = u.grid, u.values.shape
    cur = project(u)
    g, gn = _gradient_of(cur, params)
    mu, fails_here = 0.0, 0
    solves = matvecs = 0
    while solves < _NEWTON_SOLVES and gn > tol:
        weight = (params.p - 1.0) * abs_power(cur.field.values, params.p - 2.0)
        shift = 1.0 + mu

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            vals = x.reshape(shape)
            out = shift * vals - solve_operator(grid, params, weight * vals)[0]
            return out.ravel()

        # shape and dtype describe the operator to wrappers such as a tracer's
        lin = SimpleNamespace(shape=(u.values.size,) * 2, dtype=np.dtype(float), matvec=matvec)
        rhs = -g.values.ravel()
        rtol = min(0.1, max(1e-10, 0.01 * gn, 0.1 * tol / gn))
        delta, info = gmres(lin, rhs, rtol=rtol)
        solves += 1
        if info < 0 or not np.all(np.isfinite(delta)):
            log.warning("newton linear solve failed (gmres info=%d)", info)
            if trace is not None:
                trace.append((len(trace) + 1, cur.energy, gn))
            break
        if info > 0 and log.isEnabledFor(logging.DEBUG):
            res = rhs - lin.matvec(delta)
            log.debug("gmres stopped short of its tolerance (info=%d), relative residual %.3e",
                      info, math.sqrt(_dot(res, res) / _dot(rhs, rhs)))
        dvals = delta.reshape(shape)

        tried = {}   # step length -> its projected candidate, None if the projection failed

        def candidate(t):
            if t not in tried:
                try:
                    tried[t] = project(Field(grid, cur.field.values + t * dvals))
                except (OnePhaseMissing, ZeroFieldError):
                    tried[t] = None
            return tried[t]

        t, e = _line_walk(lambda t: math.inf if candidate(t) is None else candidate(t).energy)
        noise = 1e-13 * (1.0 + abs(cur.energy))
        accepted = None
        if e < cur.energy - noise:
            accepted = tried[t]
            g, gn = _gradient_of(accepted, params)
        else:
            # energy flat to round-off: the residual decides, walked the same way
            scored = {}

            def residual(t):
                cand = candidate(t)
                if cand is None:
                    return math.inf
                cand = Projected(cand.field, grid.to_modes(cand.field.values), cand.energy)
                scored[t] = (cand, *_gradient_of(cand, params))
                return scored[t][2]

            t, r = _line_walk(residual)
            if r < gn:
                accepted, g, gn = scored[t]
        if accepted is not None:
            cur = accepted
            mu = 0.0 if mu < 1e-8 else mu * 0.25
            fails_here = 0
        else:
            mu = max(4.0 * mu, 1e-4)
            fails_here += 1
        if trace is not None:
            trace.append((len(trace) + 1, cur.energy, gn))
        if fails_here > 8:
            log.warning("newton stalled at residual %.3e (gmres info=%s)", gn, info)
            break
    return cur, gn, solves, matvecs


def _finalize(state: Projected, grid: PolarGrid, iterations, converged, params, trace
              ) -> SolveReport:
    """The report of a solve's last state, from the modes it carries on its view.

    On a folded view a class field's forms and quadrature are the whole
    grid's, so the energy and the nonradiality index need no transform; only
    the field is unfolded onto grid.
    """
    work, vals = state.field.grid, state.field.values
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("field has non-finite values")
    op = work.operator(params)
    d, a, m = op.pieces(state.modes, state.modes)
    pot = lp_integral(state.field, params.p) / params.p
    if not work.sector.is_full:
        nonradiality = 1.0 if np.any(vals) else 0.0
    elif work.columns == (0,):
        nonradiality = 0.0
    else:
        nonradiality = _disk_nonradiality(state.modes.copy(), op)
    return SolveReport(
        field=Field(grid, vals[:, work.orbit]),
        energy=EnergyBreakdown(d, a, m, pot, 0.5 * (d + a + m) - pot),
        iterations=iterations,
        converged=bool(converged),
        nonradiality=nonradiality,
        trace=trace,
    )


def _run(grid: PolarGrid, seed: Field, params: ModelParams, cfg: SolveConfig, project,
         handover: float) -> SolveReport:
    """Descend and polish on the folded view of the seed's class, which the flow
    preserves (the whole grid for a seed of neither class); report from the
    last state's carried modes, with its field unfolded onto grid."""
    trace = [] if cfg.keep_trace else None
    work = grid.class_view(seed.values)
    cur = project(Field(work, seed.values[:, :work.nnodes]))

    # hand over to Newton once the iterate is merely in the neighborhood;
    # the energy line search makes the polish robust from moderate range
    norm = math.sqrt(max(work.operator(params).inner(cur.modes, cur.modes), 0.0))
    switch_tol = max(cfg.grad_tol, handover * (1.0 + norm))
    cur, gn, iters = _descend(cur, params, project, switch_tol, trace)
    steps, handover_gn, solves, matvecs = iters, gn, 0, 0
    norm = math.sqrt(max(work.operator(params).inner(cur.modes, cur.modes), 0.0))
    tol = max(cfg.grad_tol, _ROUNDOFF * np.finfo(float).eps * norm)
    if gn > tol and _NEWTON_SOLVES > 0:
        cur, gn, solves, matvecs = _newton_polish(cur.field, params, tol, project, trace)
        iters += solves
    log.debug("%d descent steps to |E'| %.3e, %d newton solves, %d matvecs, %d nodes per ring, "
              "on %d of %d modes", steps, handover_gn, solves, matvecs, work.nnodes, work.nmodes,
              grid.ntheta)
    return _finalize(cur, grid, iters, gn <= tol, params, trace)


def solve_ground(grid: PolarGrid, params: ModelParams, cfg: SolveConfig | None = None
                 ) -> SolveReport:
    """Least-energy positive solution: alpha level (disk) or c_lambda (sector)."""
    cfg = cfg or SolveConfig()
    seed = make_seed(grid, params, cfg.seed)
    if np.any(seed.values < 0) and not isinstance(cfg.seed, Field):
        raise ValueError(f"a ground solve needs a nonnegative seed; the {cfg.seed} "
                         f"seed changes sign on this domain")

    def project(v: Field) -> Projected:
        return project_ray(v, params)

    return _run(grid, seed, params, cfg, project, _GROUND_HANDOVER)


def solve_nodal(grid: PolarGrid, params: ModelParams, cfg: SolveConfig | None = None
                ) -> SolveReport:
    """A sign-changing solution on the full disk, in the seed's symmetry class.

    The descent and polish find a critical point of the nodal Nehari problem
    near the seed, not necessarily its least level: from the cold dipole seed
    it returns the theta-even critical point the descent reaches, which at
    small pitch can be the radial nodal state or the dipole class's 2 c_lambda
    state.  The sweep compares the classes by solving each on its own (the
    dipole class as a half-disk ground problem).  Raises OnePhaseMissing if
    the seed has only one sign.
    """
    cfg = cfg or SolveConfig(seed=SEED_DIPOLE)
    if not grid.sector.is_full:
        raise ValueError("nodal solves run on the full disk")
    seed = make_seed(grid, params, cfg.seed)
    if not (np.any(seed.values > 0) and np.any(seed.values < 0)):
        raise OnePhaseMissing("nodal solve needs a sign-changing seed")

    def project(v: Field) -> Projected:
        return project_nodal(v, params)

    return _run(grid, seed, params, cfg, project, _NODAL_HANDOVER)
