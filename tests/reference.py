"""Reference math the tests check the package against; not part of the package."""

import numpy as np

from spiralnls.energy import lambda_inner, nonlinearity
from spiralnls.errors import ZeroFieldError
from spiralnls.grid import Field, ModelParams, check_same_grid
from spiralnls.io import SOLUTION_MAGIC
from spiralnls.nehari import split_parts
from spiralnls.spiral3d import SpiralField3D


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
    """The bytes save_solution writes, formatted one node at a time."""
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
        "j,k,value",
    ]
    for j in range(grid.nr):
        row = field.values[j]
        for k in range(grid.ntheta):
            lines.append(f"{j},{k},{float(row[k])!r}")
    return "\n".join(lines) + "\n"


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
