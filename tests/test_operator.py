"""The precomputed polar operator: one per (grid, params), one transform per field."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spiralnls.energy import energy, lambda_inner
from spiralnls.grid import (
    Field,
    ModelParams,
    PolarGrid,
    SectorKind,
    apply_operator,
    build_grid,
)
from spiralnls.minimize import SEED_DIPOLE, SolveConfig, solve_ground, solve_nodal
from spiralnls.nehari import project_nodal, project_nodal_state, project_ray

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def to_modes_calls(monkeypatch):
    """Counts PolarGrid.to_modes calls; read with calls[0]."""
    calls = [0]
    original = PolarGrid.to_modes

    def counting(self, values):
        calls[0] += 1
        return original(self, values)

    monkeypatch.setattr(PolarGrid, "to_modes", counting)
    return calls


def _count(calls, fn):
    calls[0] = 0
    fn()
    return calls[0]


def _per_step(calls, solve, grid, params, seed_kind):
    """Forward transforms of one accepted descent step: run k + 1 steps minus k."""
    def run(k):
        cfg = SolveConfig(max_iters=k, seed_kind=seed_kind, newton_refine=False)
        return _count(calls, lambda: solve(grid, params, cfg))
    return run(3) - run(2)


def test_ground_step_transforms(to_modes_calls):
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert _per_step(to_modes_calls, solve_ground, grid, params, "radial") <= 2


def test_nodal_step_transforms(to_modes_calls):
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert _per_step(to_modes_calls, solve_nodal, grid, params, SEED_DIPOLE) <= 3


def test_project_nodal_transforms(to_modes_calls, small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    assert _count(to_modes_calls, lambda: project_nodal(u, params_q1)) <= 2


SECTORS = [SectorKind.full_disk(), SectorKind.half_disk(), SectorKind.cone(np.pi / 4)]


@pytest.mark.parametrize("sector", SECTORS)
@pytest.mark.parametrize("project", [project_ray, project_nodal_state])
def test_projection_carries_modes_and_energy(sector, project, rng):
    # the carried modes and energy are those of the projected field
    grid = build_grid(3.0, 24, 16, sector)
    params = ModelParams(p=4.0, q=1, lam=0.7)
    for _ in range(3):
        u = Field(grid, rng.standard_normal((grid.nr, grid.ntheta)))
        state = project(u, params)
        exact = energy(state.field, params).total
        assert abs(state.energy - exact) <= 1e-13 * abs(exact)
        modes = grid.to_modes(state.field.values)
        assert np.max(np.abs(state.modes - modes)) <= 1e-13 * np.max(np.abs(modes))


@pytest.mark.parametrize("sector", SECTORS)
def test_inner_is_operator_quadratic_form(sector, rng):
    # <u, v>_{lam,q} is the quadrature of u L v, to round-off
    grid = build_grid(3.0, 24, 16, sector)
    params = ModelParams(p=4.0, q=1, lam=0.7)
    shape = (grid.nr, grid.ntheta)
    for _ in range(3):
        u = Field(grid, rng.standard_normal(shape))
        v = Field(grid, u.values + 0.5 * rng.standard_normal(shape))
        form = lambda_inner(u, v, params)
        quad = grid.quad(u.values * apply_operator(v, params).values)
        assert abs(form - quad) <= 1e-13 * abs(form)


@pytest.mark.parametrize("sector", SECTORS)
def test_angular_series_reproduces_nodes(sector, rng):
    grid = build_grid(3.0, 12, 16, sector)
    values = rng.standard_normal((grid.nr, grid.ntheta))
    omega, A = grid.angular_series(values)
    phase = np.exp(1j * np.outer(omega, grid.angles + sector.half_angle))
    assert np.max(np.abs((A @ phase).real - values)) <= 1e-13 * np.max(np.abs(values))


def test_grid_keeps_one_operator(small_disk):
    a = ModelParams(p=4.0, q=1, lam=0.7)
    b = ModelParams(p=4.0, q=1, lam=1.3)
    op_a = small_disk.operator(a)
    assert small_disk.operator(ModelParams(p=4.0, q=1, lam=0.7)) is op_a
    op_b = small_disk.operator(b)
    assert op_b is not op_a and op_b.stencil is op_a.stencil
    assert small_disk.operator(a) is not op_a


def test_benchmark_layers_resolve():
    # every span the benchmark's tracer wraps names a callable of the package
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, (module, attr) in tracer.LAYERS.items():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{name}: {module}.{attr} does not resolve"


def test_package_exports_resolve():
    package = importlib.import_module("spiralnls")
    for name in package.__all__:
        assert hasattr(package, name), f"spiralnls.{name} does not resolve"
