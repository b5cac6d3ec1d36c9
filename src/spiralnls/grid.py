"""Truncated polar grids and the discrete linear operator.

The computational domain is a disk of radius R (or an angular sector of it)
with homogeneous Dirichlet data at r = R.  Radial nodes are staggered,
r_j = (j + 1/2) dr, so no node sits on the coordinate singularity; the radial
part of the operator is the conservative second-order finite-volume stencil

    (L_r u)_j = -[ R_{j+1} (u_{j+1} - u_j) - R_j (u_j - u_{j-1}) ] / (r_j dr^2)

with face radii R_f = f dr.  The inner face R_0 = 0 kills the ghost value, so
the pole needs no special casing.  The angular direction is spectral: a real
Fourier series on the full disk, a DST-I sine series on Dirichlet sectors.
Either transform is one product with a real (n, n) matrix built with the
grid, so modes are real on every grid: on the disk rfft's cos and sin parts
are separate mode columns.  The product costs O(n^2) per radius against an
FFT's O(n log n), but it is faster at the sizes in use, whatever the factors
of n or n + 1 (timings in the README).  Per angular mode the operator

    -d^2/dr^2 - (1/r) d/dr + (1/lambda^2 + 1/r^2) mu + q

is tridiagonal (mu = m^2 on the disk, mu = (n pi / 2 theta0)^2 on sectors),
which is what makes preconditioned solves cheap.  Scaled by the radial
quadrature weight r_j dr its rows become symmetric, since the face weight
R_{j+1}/dr couples nodes j and j+1 both ways, and that r-weighted form is the
matrix of the pitch inner product: symmetric positive definite for every lambda > 0 and q in
{0, 1}.  PolarOperator therefore factors it once per (grid, params), on its
first solve, as L D L^T and solves with the factor, and evaluates the inner
product as one weighted sum over node products plus one over face
differences.  The sums
are numpy loops and the factor and its solves are unthreaded LAPACK loops,
so none of them depends on the BLAS thread count.  The angular transform is
a BLAS dgemm; OpenBLAS splits it by blocks of the output, so every entry
keeps one summation order, and tests/test_operator.py checks that its bits
are the same at one and two threads.

A folded view (PolarGrid.folded) holds one symmetry class, the disk's radial
fields or the fields even in theta: the class's mode columns and one angular
node per orbit, so a solve in the class works on those alone (the parity
reduction of Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import GridMismatchError
from .lapack import dpttrf, dpttrs

FULL = "full"
HALF = "half"
CONE = "cone"


@dataclass(frozen=True)
class SectorKind:
    """Angular extent of the domain: full disk, half disk, or cone."""

    kind: str
    half_angle: float  # half opening of the theta interval; pi for the full disk

    @staticmethod
    def full_disk() -> "SectorKind":
        return SectorKind(FULL, np.pi)

    @staticmethod
    def half_disk() -> "SectorKind":
        return SectorKind(HALF, np.pi / 2)

    @staticmethod
    def cone(alpha: float) -> "SectorKind":
        if not 0.0 < alpha < np.pi:
            raise ValueError(f"cone half-angle must lie in (0, pi), got {alpha}")
        return SectorKind(CONE, float(alpha))

    @property
    def is_full(self) -> bool:
        return self.kind == FULL

    def label(self) -> str:
        if self.kind == CONE:
            return f"cone:{self.half_angle!r}"
        return self.kind


def sector_from_label(text: str) -> SectorKind:
    text = text.strip()
    if text == FULL:
        return SectorKind.full_disk()
    if text == HALF:
        return SectorKind.half_disk()
    if text.startswith("cone:"):
        return SectorKind.cone(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown sector {text!r}")


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters: exponent p > 2, mass switch q in {0, 1}, pitch lambda > 0."""

    p: float
    q: float
    lam: float

    def __post_init__(self):
        if not 2 < self.p < math.inf:
            raise ValueError(f"p must be a finite number above 2, got {self.p}")
        if self.q not in (0, 1, 0.0, 1.0):
            raise ValueError(f"q must be 0 or 1, got {self.q}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        lam2 = float(self.lam) ** 2
        if lam2 == 0.0 or not math.isfinite(1.0 / lam2):
            raise ValueError(f"lambda {self.lam} is too small: 1/lambda^2 overflows")


@dataclass(frozen=True)
class PolarGrid:
    """Staggered polar grid with quadrature weights for integral r dr dtheta.

    Grids compare and hash by (R, nr, ntheta, sector); the node arrays follow
    from those.
    """

    R: float
    nr: int
    ntheta: int
    sector: SectorKind
    radii: np.ndarray = field(compare=False)     # (nr,) staggered nodes (j + 1/2) dr
    angles: np.ndarray = field(compare=False)    # (ntheta,) angular nodes, open at Dirichlet rays
    weights: np.ndarray = field(compare=False)   # (nr, ntheta) quadrature weights r dr dtheta
    # (forward, inverse) angular transform matrices, (ntheta, nmodes) and (nmodes, ntheta)
    transform: tuple = field(compare=False, repr=False)
    # each node's fundamental node, the identity on a whole grid
    orbit: np.ndarray = field(compare=False, repr=False)
    # the whole grid's node permutation realizing theta -> -theta exactly
    mirror: np.ndarray = field(compare=False, repr=False)
    # a folded view's mode columns; None on a whole grid
    columns: tuple | None = field(default=None, repr=False)

    @property
    def dr(self) -> float:
        return self.R / self.nr

    @property
    def dtheta(self) -> float:
        if self.sector.is_full:
            return 2 * np.pi / self.ntheta
        return 2 * self.sector.half_angle / (self.ntheta + 1)

    @property
    def face_radii(self) -> np.ndarray:
        return np.arange(self.nr + 1) * self.dr

    @property
    def nmodes(self) -> int:
        """Mode columns the transforms keep: ntheta, or fewer on a folded view."""
        return self.transform[0].shape[1]

    @property
    def nnodes(self) -> int:
        """Angular nodes per ring: ntheta, or fewer on a folded view."""
        return len(self.angles)

    def _kept(self, per_column: np.ndarray) -> np.ndarray:
        return per_column if self.columns is None else per_column[list(self.columns)]

    def _omega(self) -> np.ndarray:
        """Angular frequency of each mode column."""
        if self.sector.is_full:
            return self._kept(_disk_columns(self.ntheta)[0].astype(float))
        return self._kept(np.arange(1, self.ntheta + 1) * np.pi / (2 * self.sector.half_angle))

    def mode_multipliers(self) -> np.ndarray:
        """Squared angular frequency mu of each mode column."""
        return self._omega() ** 2

    def mode_quad_coeffs(self) -> np.ndarray:
        """Coefficients c_m with sum_k u_k v_k dtheta = sum_m c_m U_m V_m, per mode column."""
        if self.sector.is_full:
            return self._kept(_disk_columns(self.ntheta)[1] * self.dtheta / self.ntheta)
        return np.full(self.nmodes, self.dtheta / (2 * (self.ntheta + 1)))

    def even_columns(self) -> tuple:
        """The mode columns of theta-even fields: the disk's cos columns 0, ..., n/2,
        a sector's odd sine frequencies (columns 0, 2, 4, ...)."""
        if self.sector.is_full:
            return tuple(range(self.ntheta // 2 + 1))
        return tuple(range(0, self.ntheta, 2))

    def even_part(self, values: np.ndarray) -> np.ndarray:
        """(u(theta) + u(-theta)) / 2 through mirror: even bit for bit, as sampled trig is not."""
        return 0.5 * (values + values[:, self.mirror])

    def class_view(self, values: np.ndarray) -> "PolarGrid":
        """The folded view of the symmetry class values lie in, bit for bit:
        radial on the disk, else even in theta; the grid itself for neither."""
        if self.sector.is_full and Field(self, values).is_radial():
            return self.folded((0,))
        if np.array_equal(values, values[:, self.mirror]):
            return self.folded(self.even_columns())
        return self

    def folded(self, columns: tuple) -> "PolarGrid":
        """This grid cut to one symmetry class, built once per class.

        columns names the class: (0,), radial fields on the disk, or
        even_columns(), fields even in theta.  The view keeps those mode
        columns and the fundamental nodes, one per orbit: one per ring
        (radial), k = 0, ..., n/2 (even, disk) or the ceil(n/2) nodes up to
        the bisector (even, sector).  They come first, so a class field folds
        to values[:, :nnodes] and unfolds by values[:, orbit].  The forward
        matrix sums the kept columns' rows over each orbit, the inverse reads
        the kept rows at the fundamental nodes and the weights carry the orbit
        sizes, which add up to ntheta, so to_modes's mean-mode fill stays
        exact.  A view compares equal to no whole grid.
        """
        radial = self.sector.is_full and columns == (0,)
        if self.columns is not None or not (radial or columns == self.even_columns()):
            raise ValueError(f"no symmetry class of this grid has the mode columns {columns}")
        views = self.__dict__.setdefault("_views", {})
        if columns not in views:
            orbit = np.zeros_like(self.orbit) if radial else np.minimum(self.orbit, self.mirror)
            nodes = int(orbit.max()) + 1
            forward, inverse = self.transform
            folded = np.zeros((nodes, len(columns)))
            np.add.at(folded, orbit, forward[:, list(columns)])
            kept = (folded, np.ascontiguousarray(inverse[list(columns), :nodes]))
            weights = self.weights[:, :nodes] * np.bincount(orbit)
            for arr in (orbit, weights, *kept):
                arr.setflags(write=False)
            views[columns] = replace(self, angles=self.angles[:nodes], weights=weights,
                                     transform=kept, columns=columns, orbit=orbit)
        return views[columns]

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Angular transform: one product with the forward matrix.

        On the disk a row's first value is kept out of the product and put
        back into the mean mode, so a radial row's other modes are exactly 0.
        """
        if not self.sector.is_full:
            return values @ self.transform[0]
        first = values[:, :1]
        modes = (values - first) @ self.transform[0]
        modes[:, 0] += self.ntheta * first[:, 0]
        return modes

    def from_modes(self, modes: np.ndarray) -> np.ndarray:
        return modes @ self.transform[1]

    def angular_series(self, values: np.ndarray):
        """(omega, A) with values[j, k] = Re sum_m A[j, m] exp(i omega_m (angles[k] + half_angle)).

        The only code that knows the transforms' normalization: on the disk
        A[:, m], m = 0, ..., n/2, is (cos column + i sin column) of frequency
        m times c/n (_disk_columns); on sectors it is -i times the DST-I modes
        over n + 1 (a sine series from the lower ray).  It needs the whole
        grid, not a folded view.
        """
        if self.columns is not None:
            raise ValueError("the angular series needs the whole grid, not a folded view")
        omega, modes = self._omega(), self.to_modes(values)
        if not self.sector.is_full:
            return omega, -1j * (modes / (self.ntheta + 1))
        h = self.ntheta // 2
        scaled = modes * (_disk_columns(self.ntheta)[1] / self.ntheta)
        A = scaled[:, :h + 1].astype(complex)
        A.imag[:, 1:h] = scaled[:, h + 1:]
        return omega[:h + 1], A

    def series_at(self, values: np.ndarray, angles) -> np.ndarray:
        """The angular series of values summed at any angles, (nr, *shape of angles).

        On the half disk the frequencies are integers, so at angles outside
        the sector this is the odd extension of the field across its rays.
        """
        omega, A = self.angular_series(values)
        shifted = np.asarray(angles) + self.sector.half_angle
        return (A @ np.exp(1j * np.multiply.outer(omega, shifted))).real

    def quad(self, samples: np.ndarray) -> float:
        """Quadrature of point samples against the r dr dtheta measure."""
        return float(np.sum(self.weights * samples))

    @cached_property
    def stencil(self) -> "Stencil":
        """The lambda-independent operator constants, built on first use."""
        return Stencil(self)

    def operator(self, params: ModelParams) -> "PolarOperator":
        """The operator L for params; the grid keeps only the last one built."""
        op = self.__dict__.get("_operator")
        if op is None or op.params != params:
            self.__dict__.pop("_operator", None)   # never hold two at once
            op = PolarOperator(self.stencil, params)
            object.__setattr__(self, "_operator", op)
        return op


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples on a polar grid (radial j, angular k); compared and hashed by identity."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.nr, self.grid.nnodes):
            raise GridMismatchError(f"values shape {self.values.shape} does not match grid "
                                    f"({self.grid.nr}, {self.grid.nnodes})")

    def is_radial(self) -> bool:
        """True when every radius holds one value at all its angular nodes."""
        return bool(np.all(np.ptp(self.values, axis=1) == 0))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


def build_grid(R: float, nr: int, ntheta: int, sector: SectorKind) -> PolarGrid:
    """Construct a staggered polar grid with midpoint-in-r, uniform-in-theta nodes.

    The angular nodes exclude Dirichlet rays on sectors; on the full disk the
    node count must be even so real Fourier modes pair up.  Quadrature of the
    constant 1 over the full disk reproduces pi R^2 exactly (midpoint rule is
    exact for the linear integrand r).
    """
    if not 0 < R < math.inf:
        raise ValueError(f"truncation radius must be positive and finite, got {R}")
    if nr < 2:
        raise ValueError(f"need at least 2 radial nodes, got {nr}")
    if ntheta < 2:
        raise ValueError(f"need at least 2 angular nodes, got {ntheta}")
    if sector.is_full and ntheta % 2 != 0:
        raise ValueError("ntheta must be even on the full disk")

    dr = R / nr
    radii = (np.arange(nr) + 0.5) * dr
    if sector.is_full:
        dtheta = 2 * np.pi / ntheta
        angles = -np.pi + dtheta * np.arange(ntheta)
    else:
        theta0 = sector.half_angle
        dtheta = 2 * theta0 / (ntheta + 1)
        angles = -theta0 + dtheta * np.arange(1, ntheta + 1)
    weights = np.outer(radii * dr, np.full(ntheta, dtheta))
    transform = _transform_matrices(ntheta, sector.is_full)
    k = np.arange(ntheta)
    mirror = (-k) % ntheta if sector.is_full else ntheta - 1 - k
    for arr in (radii, angles, weights, k, mirror, *transform):
        arr.setflags(write=False)
    return PolarGrid(float(R), int(nr), int(ntheta), sector, radii, angles, weights, transform,
                     k, mirror)


def _disk_columns(n: int) -> tuple:
    """(m, c) per disk mode column: the frequencies m = 0, ..., n/2 of the cos
    columns, then 1, ..., n/2 - 1 of the sin columns, and the nodal values c
    each column stands for, 1 at m = 0 and m = n/2, else 2."""
    h = n // 2
    m = np.concatenate([np.arange(h + 1), np.arange(1, h)])
    return m, np.where((m == 0) | (m == h), 1.0, 2.0)


def _transform_matrices(n: int, full: bool) -> tuple:
    """The (forward, inverse) real (n, n) angular transform matrices.

    Disk: cos(2 pi m k / n) and -sin columns, rfft's real and imaginary
    parts, with the inverse F^T c / n.  Sectors: S[k, m] = 2 sin(pi (k+1)
    (m+1) / (n+1)), scipy's DST-I, with the inverse S / (2(n+1)).  Integer
    products are reduced modulo the period, so arguments stay below 2 pi.
    """
    if not full:
        k = np.arange(1, n + 1)
        forward = 2 * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))
        return forward, forward / (2 * (n + 1))
    m, c = _disk_columns(n)
    h = n // 2
    phase = (2 * np.pi / n) * (np.outer(np.arange(n), m) % n)
    forward = np.concatenate([np.cos(phase[:, :h + 1]), -np.sin(phase[:, h + 1:])], axis=1)
    return forward, np.ascontiguousarray(forward.T) * (c / n)[:, None]


def check_same_grid(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise GridMismatchError("fields live on different grids")


class Stencil:
    """Lambda-independent constants of the discrete operator on one grid.

    Mode arrays are (nr, nmodes), radial index first, as to_modes returns
    them.  Every angular mode shares the radial finite-volume stencil; the
    quadratic-form weights turn mode products into the Dirichlet, angular and
    mass integrals, and they are also the entries of the r-weighted operator.
    PolarGrid.stencil builds this once per grid.
    """

    def __init__(self, grid: "PolarGrid"):
        r, dr, faces = grid.radii, grid.dr, grid.face_radii
        self.mu = mu = grid.mode_multipliers()          # (nm,)
        self.cm = grid.mode_quad_coeffs()               # (nm,) Parseval coefficients
        self.wr = wr = r * dr                           # (nr,) radial quadrature weights
        # quadratic-form weights: faces R_f / dr, closure 2 R / dr (the
        # Dirichlet ghost -u_last), nodes mu dr / r (centrifugal) and
        # mu r dr (angular)
        self.face_w = faces[1:-1, None] / dr
        self.bnd_w = 2 * faces[-1] / dr
        self.cent_w = (mu[None, :] / r[:, None]) * dr
        self.ang_w = mu[None, :] * wr[:, None]

    def forms(self, U: np.ndarray, V: np.ndarray):
        """Bilinear building blocks (dirichlet, angular2, mass2) from mode arrays.

        angular2 is the integral of d_theta u d_theta v and mass2 that of u v,
        both unscaled.  Each is summed over r per mode, then against c_m.
        """
        dU = U[1:] - U[:-1]
        dV = dU if V is U else V[1:] - V[:-1]
        prod_faces = dU * dV                                      # (nr-1, nm)
        prod_nodes = U * V                                        # (nr, nm)
        # Dirichlet boundary: ghost = -u_last adds 2 R u_last v_last / dr
        bnd = self.bnd_w * prod_nodes[-1]
        dirichlet = float(self.cm @ ((self.face_w * prod_faces).sum(axis=0) + bnd
                                     + (self.cent_w * prod_nodes).sum(axis=0)))
        angular2 = float(self.cm @ (self.ang_w * prod_nodes).sum(axis=0))
        mass2 = float(self.cm @ (self.wr[:, None] * prod_nodes).sum(axis=0))
        return dirichlet, angular2, mass2


class PolarOperator:
    """L = -Laplacian - (1/lam^2) d_theta^2 + q on one grid, acting on modes.

    Per angular mode L is the tridiagonal radial operator
    -d2/dr2 - (1/r) d/dr + (1/lam^2 + 1/r^2) mu + q with Dirichlet closure at
    r = R (ghost value -u_last, i.e. the midpoint boundary condition).  Its
    rows scaled by r dr form K = diag(r dr) L, the symmetric positive definite
    matrix of <., .>_{lam,q} per mode: off-diagonals -R_f / dr, diagonal the
    two adjacent face weights plus the node weight, the only part that
    depends on (lam, q).  The modes stack mode-major into one tridiagonal K,
    factored once, on the first solve: an operator that only evaluates forms,
    as the whole grid's does in the report writer after a solve on a folded
    view, never factors.  PolarGrid.operator builds one per parameters.
    """

    def __init__(self, stencil: Stencil, params: ModelParams):
        self.stencil = stencil
        self.params = params
        # inner-product weights with the Parseval coefficients folded in
        self.w_nodes = self._node_weights() * stencil.cm
        self.w_faces = stencil.face_w * stencil.cm

    def _node_weights(self) -> np.ndarray:
        """K's node weights, (nr, nm)."""
        st, params = self.stencil, self.params
        node = st.cent_w + st.ang_w / params.lam**2 + params.q * st.wr[:, None]
        node[-1] += st.bnd_w
        return node

    @cached_property
    def _factor(self):
        faces = self.stencil.face_w[:, 0]
        diag = self._node_weights().T.copy()                    # (nm, nr), mode-major
        diag[:, 1:] += faces
        diag[:, :-1] += faces
        off = np.zeros_like(diag)
        off[:, :-1] = -faces                                    # no coupling across modes
        d, e, info = dpttrf(diag.ravel(), off.ravel()[:-1])
        if info != 0:
            raise FloatingPointError(f"per-mode operator not positive definite (pttrf info={info})")
        return d, e

    def solve(self, modes: np.ndarray) -> np.ndarray:
        """L^{-1} of a mode array (nr, nmodes): K^{-1} of the r dr-scaled modes."""
        rhs = (modes * self.stencil.wr[:, None]).T.reshape(-1, 1)   # mode-major
        x, info = dpttrs(*self._factor, rhs, overwrite_b=True)
        if info != 0:
            raise FloatingPointError(f"per-mode solve failed (pttrs info={info})")
        return x.reshape(modes.shape[::-1]).T

    def pieces(self, U: np.ndarray, V: np.ndarray):
        """(dirichlet, angular, mass) terms of <u, v>_{lam,q} from mode arrays."""
        d, a2, m2 = self.stencil.forms(U, V)
        return d, a2 / self.params.lam**2, self.params.q * m2

    def inner(self, U: np.ndarray, V: np.ndarray) -> float:
        """<u, v>_{lam,q} from mode arrays: a weighted sum over nodes plus one over faces."""
        dU = U[1:] - U[:-1]
        dV = dU if V is U else V[1:] - V[:-1]
        return float(np.einsum("ij,ij,ij->", self.w_nodes, U, V)
                     + np.einsum("ij,ij,ij->", self.w_faces, dU, dV))

    def gram(self, P: np.ndarray, M: np.ndarray):
        """(<p, p>, <p, m>, <m, m>) from mode arrays, sharing the weighted p terms."""
        dP, dM = P[1:] - P[:-1], M[1:] - M[:-1]
        wP, wdP = self.w_nodes * P, self.w_faces * dP
        pp = np.einsum("ij,ij->", wP, P) + np.einsum("ij,ij->", wdP, dP)
        pm = np.einsum("ij,ij->", wP, M) + np.einsum("ij,ij->", wdP, dM)
        mm = (np.einsum("ij,ij,ij->", self.w_nodes, M, M)
              + np.einsum("ij,ij,ij->", self.w_faces, dM, dM))
        return float(pp), float(pm), float(mm)


def solve_operator(grid: PolarGrid, params: ModelParams, rhs_values: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Solve L u = rhs (physical-space samples) via per-mode tridiagonal solves.

    Returns (values, modes): u's samples and the modes the per-mode solve gave.
    """
    modes = grid.operator(params).solve(grid.to_modes(rhs_values))
    out = grid.from_modes(modes)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("per-mode tridiagonal solve produced non-finite values")
    return out, modes
