"""Reference math the tests check the package against; not part of the package."""

from spiralnls.energy import lambda_inner, nonlinearity
from spiralnls.errors import ZeroFieldError
from spiralnls.grid import Field, ModelParams, check_same_grid
from spiralnls.nehari import split_parts


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
