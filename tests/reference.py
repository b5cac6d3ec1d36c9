"""Reference math the tests check the package against; not part of the package."""

import logging
import math

import numpy as np
from hypothesis import settings

from spiralnls import minimize
from spiralnls.energy import energy, gradient, lambda_inner, lambda_norm, nonlinearity
from spiralnls.errors import SectorError, ZeroFieldError
from spiralnls.grid import Field, ModelParams, PolarGrid, PolarOperator, check_same_grid
from spiralnls.io import SOLUTION_MAGIC, RunConfig, _format_value
from spiralnls.nehari import Projected, split_parts
from spiralnls.radial import RadialProfile, _integrate
from spiralnls.spiral3d import _HEADER, SpiralEvaluator, SpiralField3D

# settings of every property test: fixed examples, bounded count, no deadline
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)

log = logging.getLogger(__name__)


def field_from_polar(grid: PolarGrid, fn) -> Field:
    """Sample fn(r, theta) on the grid nodes."""
    rr, tt = np.meshgrid(grid.radii, grid.angles, indexing="ij")
    return Field(grid, np.asarray(fn(rr, tt), dtype=float))


def radial_average(u: Field) -> Field:
    """Angular mean at each radius; a projection onto radial fields.

    The mean is taken about each row's first value, as to_modes takes the
    mean mode, so a radial row is its own mean bit for bit.
    """
    if not u.grid.sector.is_full:
        raise SectorError("radial average needs the full disk (sectors have "
                          "Dirichlet rays; the angular mean is not admissible)")
    first = u.values[:, :1]
    mean = first + (u.values - first).mean(axis=1, keepdims=True)
    return Field(u.grid, np.broadcast_to(mean, u.values.shape).copy())


def operator_apply(op: PolarOperator, modes: np.ndarray) -> np.ndarray:
    """L times a mode array (nr, nmodes): K times it, over r dr.

    K's node weights are rebuilt from the Stencil constants, so the check
    shares no array with the factored operator.
    """
    st, params = op.stencil, op.params
    node = st.cent_w + st.ang_w / params.lam**2 + params.q * st.wr[:, None]
    node[-1] += st.bnd_w
    flux = st.face_w * (modes[1:] - modes[:-1])
    out = node * modes
    out[:-1] -= flux
    out[1:] += flux
    return out / st.wr[:, None]


def apply_operator(u: Field, params: ModelParams) -> Field:
    """Apply the linear part L = -Laplacian - (1/lam^2) d_theta^2 + q per mode."""
    grid = u.grid
    result = grid.from_modes(operator_apply(grid.operator(params), grid.to_modes(u.values)))
    if not np.all(np.isfinite(result)):
        raise FloatingPointError("operator application produced non-finite values")
    return Field(grid, result)


def apply_angular_derivative(u: Field) -> Field:
    """Spectral d/dtheta: the angular series differentiated term by term at the nodes.

    The disk's Nyquist term vanishes at the nodes (the standard
    real-derivative convention); quadratic forms elsewhere use the m^2
    multiplier directly and keep it.  Dense in the angular node count.
    """
    grid = u.grid
    omega, A = grid.angular_series(u.values)
    phase = np.exp(1j * np.outer(omega, grid.angles + grid.sector.half_angle))
    return Field(grid, ((1j * omega * A) @ phase).real)


def unprojected(params: ModelParams):
    """The projector that carries u itself as a state, for polishing without a projection."""
    def project(u: Field) -> Projected:
        return Projected(u, u.grid.to_modes(u.values), energy(u, params).total)
    return project


def newton_refine(u: Field, params: ModelParams, tol: float) -> Field:
    """Polish a near-critical field to residual < tol; returns input on stall.

    Requires the pitch-metric gradient already small (descent output); an
    indefinite-Hessian stall at sign-changing saddles is logged, not raised,
    since criticality rather than minimality is the target there.
    """
    norm = lambda_norm(u, params)
    if norm == 0.0:
        raise ZeroFieldError("newton_refine needs a nontrivial field")
    gn = lambda_norm(gradient(u, params)[0], params)
    if gn > 1e-3 * (1.0 + norm):
        raise ValueError(f"not near a critical point: |grad| = {gn:.3e}")
    refined, gn, _, _ = minimize._newton_polish(u, params, tol, unprojected(params))
    if gn > tol:
        log.warning("newton_refine returned the best iterate without reaching %.1e", tol)
    return refined.field


def spiral_value(ev: SpiralEvaluator, x1, x2, t):
    """Sample the evaluator's field v at broadcastable coordinate arrays."""
    x1, x2, t = np.broadcast_arrays(x1, x2, t)
    return (ev.base(x1, x2) * ev.twist(t)).sum(axis=1).real.reshape(x1.shape)


def helicoid_deviation(u: Field, params: ModelParams, n_samples: int = 100,
                       x_extent: float | None = None) -> float:
    """Largest |v| over points of the helicoid swept by the sector's zero rays.

    The screw motion carries the t = 0 zero set {x1 = 0} to
    {(-x sin s, x cos s, lam s)}; for a half-disk solution this
    surface lies in the nodal set, so the sampled values gauge reconstruction
    fidelity.
    """
    ev = SpiralEvaluator(u, params)
    if x_extent is None:
        x_extent = 0.6 * u.grid.R
    rng = np.random.default_rng(7)
    xs = rng.uniform(-x_extent, x_extent, n_samples)
    ss = rng.uniform(0.0, 2 * math.pi, n_samples)
    x1 = -xs * np.sin(ss)
    x2 = xs * np.cos(ss)
    t = params.lam * ss
    return float(np.max(np.abs(spiral_value(ev, x1, x2, t))))


def shot_crossings(a: float, p: float, rtol: float, k: int) -> int:
    """Sign changes of the 1D shot from a, counted up to k + 1.

    Crossings only accumulate along a shot, so stopping at the (k+1)-th one
    leaves the class (at most k, or more) of the full count unchanged.
    """
    return _integrate(a, p, rtol, stop_at=k + 1)[0]


def count_interior_zeros(profile: RadialProfile, floor: float = 1e-8) -> int:
    """Sign changes of the profile, ignoring sub-noise tail wiggle."""
    v = profile.values[np.abs(profile.values) > floor * abs(profile.amplitude)]
    return int(np.count_nonzero(np.diff(np.signbit(v))))


def directional_derivative(u: Field, v: Field, params: ModelParams) -> float:
    """E'(u) v evaluated directly from the weak form."""
    check_same_grid(u, v)
    inner = lambda_inner(u, v, params)
    return inner - u.grid.quad(nonlinearity(u.values, params.p) * v.values)


def interface_commitment(u: Field, params: ModelParams) -> float:
    """Discrete cross energy <u^+, u^-> relative to ||u||^2 (O(dr) at interfaces)."""
    n2 = lambda_inner(u, u, params)
    if n2 == 0.0:
        raise ZeroFieldError("interface_commitment of the zero field")
    plus, minus = split_parts(u)
    return lambda_inner(plus, minus, params) / n2


def solution_text(field: Field, params: ModelParams) -> str:
    """The bytes save_solution writes, formatted one value at a time."""
    grid = field.grid
    lines = [
        SOLUTION_MAGIC,
        f"# p = {params.p!r}",
        f"# q = {int(params.q)}",
        f"# lambda = {params.lam!r}",
        f"# sector = {grid.sector.label()}",
        f"# R = {grid.R!r}",
        f"# nr = {grid.nr}",
        f"# ntheta = {grid.ntheta}",
    ]
    for j in range(grid.nr):
        lines.append(",".join(repr(float(x)) for x in field.values[j]))
    return "\n".join(lines) + "\n"


def dipole_on_disk(u: Field, disk: PolarGrid) -> Field:
    """A field on the half disk with n/2 - 1 nodes as the n-node disk's dipole-class field.

    The two grids share their angular spacing, so half-disk node j is disk
    node n/4 + 1 + j; half a turn further the disk takes its negative, and
    the nodes on the two rays, n/4 and 3n/4, hold 0.  A signed gather: the
    result is even in theta and odd under theta -> theta + pi bit for bit.
    """
    n = disk.ntheta
    vals = np.zeros((disk.nr, n))
    nodes = n // 4 + 1 + np.arange(u.grid.ntheta)
    vals[:, nodes] = u.values
    vals[:, (nodes + n // 2) % n] = -u.values
    return Field(disk, vals)


def vtk_text(field3d: SpiralField3D) -> str:
    """The bytes export_vtk writes, formatted one value at a time."""
    lines = [
        "# vtk DataFile Version 3.0",
        "spiraling field, one turn period",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {field3d.nx} {field3d.ny} {field3d.nt}",
        "ORIGIN {:.12g} {:.12g} {:.12g}".format(*field3d.origin),
        "SPACING {:.12g} {:.12g} {:.12g}".format(*field3d.spacing),
        f"POINT_DATA {field3d.nx * field3d.ny * field3d.nt}",
        "SCALARS v double 1",
        "LOOKUP_TABLE default",
    ]
    flat = np.transpose(field3d.values, (2, 1, 0)).ravel()   # x fastest
    lines.extend("{:.11e}".format(x) for x in flat)
    return "\n".join(lines) + "\n"


def read_vtk(path) -> SpiralField3D:
    """Minimal reader for the files export_vtk writes (round-trip checks)."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    if lines[0] != _HEADER or lines[3] != "DATASET STRUCTURED_POINTS":
        raise ValueError(f"{path}: not a structured-points file from this package")
    dims = tuple(int(x) for x in lines[4].split()[1:])
    origin = tuple(float(x) for x in lines[5].split()[1:])
    spacing = tuple(float(x) for x in lines[6].split()[1:])
    count = int(lines[7].split()[1])
    data = np.array([float(x) for x in lines[10:10 + count]])
    values = data.reshape(dims[2], dims[1], dims[0]).transpose(2, 1, 0)
    return SpiralField3D(nx=dims[0], ny=dims[1], nt=dims[2], origin=origin,
                         spacing=spacing, values=values, lam=math.nan)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: sorted keys, normalized value formatting."""
    lines = [f"{key} = {_format_value(cfg.entries[key])}"
             for key in sorted(cfg.entries)]
    return "\n".join(lines) + "\n"
