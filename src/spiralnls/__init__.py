"""Variational solver for spiraling nonlinear Schrodinger fields.

Computes positive and sign-changing least-energy solutions of

    -Delta u - (1/lambda^2) (x1 d2 - x2 d1)^2 u + q u = |u|^{p-2} u

on truncated polar domains (full disk, half disk, cones), together with the
1D radial shooting oracle, symmetry diagnostics, and the pitch sweeps /
asymptotic studies built on top of them.
"""

from .diagnostics import (
    SymmetryReport,
    check_wirtinger,
    symmetry_report,
)
from .energy import EnergyBreakdown, gradient, lambda_inner
from .grid import (
    Field,
    ModelParams,
    PolarGrid,
    SectorKind,
    build_grid,
)
from .minimize import (
    SolveConfig,
    SolveReport,
    solve_ground,
    solve_nodal,
)
from .nehari import NehariResidual, manifold_residual, nehari_scale, project_nodal
from .radial import RadialProfile, limit_levels, shoot_ground, shoot_nodal
from .spiral3d import SpiralField3D, export_vtk, reconstruct3d
from .studies import (
    InfinityRecord,
    RescaleRecord,
    SweepRecord,
    asymptotics_infinity,
    asymptotics_zero,
    sweep_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyBreakdown",
    "Field",
    "InfinityRecord",
    "ModelParams",
    "NehariResidual",
    "PolarGrid",
    "RadialProfile",
    "RescaleRecord",
    "SectorKind",
    "SolveConfig",
    "SolveReport",
    "SpiralField3D",
    "SweepRecord",
    "SymmetryReport",
    "asymptotics_infinity",
    "asymptotics_zero",
    "build_grid",
    "check_wirtinger",
    "export_vtk",
    "gradient",
    "lambda_inner",
    "limit_levels",
    "manifold_residual",
    "nehari_scale",
    "project_nodal",
    "reconstruct3d",
    "shoot_ground",
    "shoot_nodal",
    "solve_ground",
    "solve_nodal",
    "sweep_lambda",
    "symmetry_report",
    "__version__",
]
