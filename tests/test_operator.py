"""The precomputed polar operator: one per (grid, params), one transform per field."""

import ast
import importlib
import importlib.util
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import apply_operator, field_from_polar, operator_apply

from spiralnls.energy import energy, lambda_inner
from spiralnls.grid import (
    Field,
    ModelParams,
    PolarGrid,
    SectorKind,
    build_grid,
)
import spiralnls.grid
from spiralnls.diagnostics import nonradiality_index, symmetry_report
from spiralnls.io import report_dict, symmetry_dict
from spiralnls import minimize
from spiralnls.minimize import (SEED_DIPOLE, SEED_RADIAL, SolveConfig, _finalize, solve_ground,
                                solve_nodal)
from spiralnls.nehari import project_nodal, project_ray
from spiralnls.studies import sweep_lambda

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _counting(monkeypatch, name):
    """Counts calls of the PolarGrid method name; read with calls[0]."""
    calls = [0]
    original = getattr(PolarGrid, name)

    def counting(self, values):
        calls[0] += 1
        return original(self, values)

    monkeypatch.setattr(PolarGrid, name, counting)
    return calls


@pytest.fixture
def to_modes_calls(monkeypatch):
    return _counting(monkeypatch, "to_modes")


@pytest.fixture
def quad_calls(monkeypatch):
    return _counting(monkeypatch, "quad")


def _count(calls, fn):
    calls[0] = 0
    fn()
    return calls[0]


def _per_step(calls, cap, solve, grid, params, seed):
    """Forward transforms of one accepted descent step: run k + 1 steps minus k.

    cap is the solve_budget fixture; with no Newton solves, neither run polishes.
    """
    def run(k):
        cap(k)
        return _count(calls, lambda: solve(grid, params, SolveConfig(seed=seed)))
    return run(3) - run(2)


def test_ground_step_transforms(to_modes_calls, solve_budget):
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert _per_step(to_modes_calls, solve_budget, solve_ground, grid, params, "radial") <= 2


def test_nodal_step_transforms(to_modes_calls, solve_budget):
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert _per_step(to_modes_calls, solve_budget, solve_nodal, grid, params, SEED_DIPOLE) <= 3


def test_ground_step_integrates_once(quad_calls, solve_budget):
    # |u|^p is integrated by the projection alone
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert _per_step(quad_calls, solve_budget, solve_ground, grid, params, "radial") == 1


def test_nodal_step_integrates_once_per_part(quad_calls, solve_budget):
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    assert _per_step(quad_calls, solve_budget, solve_nodal, grid, params, SEED_DIPOLE) == 2


def _assert_report_is_its_fields(report, params):
    # the carried forms agree with a full-width evaluation of the unfolded field
    fresh = energy(report.field, params)
    for name in ("dirichlet", "angular", "mass", "potential", "total"):
        got, want = getattr(report.energy, name), getattr(fresh, name)
        assert abs(got - want) <= 1e-13 * abs(want), name
    assert abs(report.nonradiality - nonradiality_index(report.field, params)) <= 1e-13


@pytest.mark.parametrize("sector", [SectorKind.full_disk(), SectorKind.half_disk()],
                         ids=["disk", "half"])
def test_finalize_transforms(to_modes_calls, rng, sector):
    # none: the energy and the nonradiality index come from the carried modes
    grid = build_grid(8.0, 48, 16, sector)
    params = ModelParams(p=4.0, q=1, lam=2.0)
    state = project_ray(Field(grid, rng.standard_normal((grid.nr, grid.ntheta))), params)
    report = None

    def finalize():
        nonlocal report
        report = _finalize(state, grid, 1, True, params, None)

    assert _count(to_modes_calls, finalize) == 0
    assert report.field.grid is grid and np.array_equal(report.field.values, state.field.values)
    _assert_report_is_its_fields(report, params)


def test_report_dict_transforms(to_modes_calls):
    # the manifold residuals (3), the H1 norm, and one for the symmetry block,
    # whose Wirtinger pieces and nonradiality index share it
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    rep = solve_ground(grid, params)
    assert rep.converged
    payload = {}
    assert _count(to_modes_calls, lambda: payload.update(report_dict(rep, params))) <= 5
    assert payload["symmetry"] == symmetry_dict(symmetry_report(rep.field, params))


@pytest.fixture
def mode_widths(monkeypatch):
    """(nodes, modes) per ring of every forward transform, with None where _finalize begins."""
    widths = []
    to_modes, finalize = PolarGrid.to_modes, minimize._finalize

    def recording(self, values):
        modes = to_modes(self, values)
        widths.append((values.shape[1], modes.shape[1]))
        return modes

    def marking(*args):
        widths.append(None)
        return finalize(*args)

    monkeypatch.setattr(PolarGrid, "to_modes", recording)
    monkeypatch.setattr(minimize, "_finalize", marking)
    return widths


@pytest.mark.parametrize("sector,seed,width", [
    (SectorKind.full_disk(), SEED_RADIAL, 1),
    (SectorKind.full_disk(), SEED_DIPOLE, 9),
    (SectorKind.half_disk(), SEED_RADIAL, 8),
], ids=["disk-radial", "disk-dipole", "half-even"])
def test_a_symmetric_solve_transforms_on_its_class_modes(mode_widths, caplog, sector, seed, width):
    # as many fundamental nodes as class modes, and no transform once the
    # last step is done: the report comes from the class modes
    grid = build_grid(8.0, 48, 16, sector)
    solve = solve_nodal if seed == SEED_DIPOLE else solve_ground
    with caplog.at_level(logging.DEBUG, logger="spiralnls.minimize"):
        report = solve(grid, ModelParams(p=4.0, q=1, lam=2.0), SolveConfig(seed=seed))
    assert report.converged and report.field.grid is grid
    assert len(mode_widths) > 1 and mode_widths[-1] is None
    assert set(mode_widths[:-1]) == {(width, width)}
    message = caplog.records[-1].getMessage()
    assert f"{width} nodes per ring" in message and message.endswith(f"on {width} of 16 modes")


def _off_center_seed(grid):
    """A bump off the origin and off the theta = 0 axis: in no symmetry class."""
    return field_from_polar(grid, lambda r, t: 2.0 * np.exp(
        -((r * np.cos(t) - 1.0) ** 2 + (r * np.sin(t) - 0.5) ** 2) / 2.0))


_SMALL = (8.0, 48, 16, 2.0)   # R, nr, ntheta and the pitch


@pytest.mark.parametrize("sector,seed,size", [
    (SectorKind.full_disk(), SEED_RADIAL, _SMALL),
    (SectorKind.full_disk(), SEED_DIPOLE, _SMALL),
    (SectorKind.half_disk(), SEED_RADIAL, _SMALL),
    (SectorKind.cone(np.pi / 4), SEED_RADIAL, _SMALL),
    (SectorKind.full_disk(), None, _SMALL),
    # the sweep's lambda = 50 half-disk row: its 8 descent steps and 8 Newton
    # solves make the longest chain of carried modes
    (SectorKind.half_disk(), SEED_RADIAL, (24.0, 320, 64, 50.0)),
], ids=["disk-radial", "disk-dipole", "half-even", "cone-even", "disk-none", "half-even-lambda50"])
def test_a_solve_reports_its_field_without_a_transform(mode_widths, sector, seed, size):
    # the report's five energy pieces and nonradiality index are those of its
    # field, evaluated afresh at full width, though the solve made no forward
    # transform after its last step
    R, nr, ntheta, lam = size
    grid = build_grid(R, nr, ntheta, sector)
    params = ModelParams(p=4.0, q=1, lam=lam)
    solve = solve_nodal if seed == SEED_DIPOLE else solve_ground
    report = solve(grid, params, SolveConfig(seed=_off_center_seed(grid) if seed is None else seed))
    assert report.converged and report.field.grid is grid
    assert mode_widths.count(None) == 1 and mode_widths[-1] is None
    _assert_report_is_its_fields(report, params)


def test_a_solve_without_symmetry_transforms_at_full_width(mode_widths):
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    twin = build_grid(8.0, 48, 16, SectorKind.full_disk())
    seed = _off_center_seed(twin)
    report = solve_ground(grid, ModelParams(p=4.0, q=1, lam=2.0), SolveConfig(seed=seed))
    # on the grid object passed in, not on the seed's equal one
    assert report.converged and report.field.grid is grid
    assert set(mode_widths) - {None} == {(16, 16)}


def test_project_nodal_transforms(to_modes_calls, small_disk, params_q1, rng):
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    assert _count(to_modes_calls, lambda: project_nodal(u, params_q1)) <= 2


SECTORS = [SectorKind.full_disk(), SectorKind.half_disk(), SectorKind.cone(np.pi / 4)]


@pytest.mark.parametrize("sector", SECTORS)
@pytest.mark.parametrize("project", [project_ray, project_nodal])
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


kernel_params = pytest.mark.parametrize(
    "params", [ModelParams(p=4.0, q=q, lam=lam) for q in (0, 1) for lam in (0.05, 50.0)],
    ids=lambda p: f"q{p.q}-lam{p.lam:g}")


def _random_modes(grid, rng, count):
    return [grid.to_modes(rng.standard_normal((grid.nr, grid.ntheta))) for _ in range(count)]


@pytest.mark.parametrize("sector", SECTORS)
@kernel_params
def test_fused_inner_matches_pieces(sector, params, rng):
    # the one weighted sum is the sum of the per-piece forms, and symmetric;
    # cross terms are measured against the Cauchy-Schwarz scale ||u|| ||v||,
    # since those of independent random fields cancel
    grid = build_grid(3.0, 24, 16, sector)
    op = grid.operator(params)
    for U, V in zip(*[iter(_random_modes(grid, rng, 6))] * 2):
        norms = op.inner(U, U), op.inner(V, V)
        for W, norm in zip((U, V), norms):
            assert abs(norm - sum(op.pieces(W, W))) <= 1e-14 * norm
        scale = np.sqrt(norms[0] * norms[1])
        form = op.inner(U, V)
        assert abs(form - sum(op.pieces(U, V))) <= 1e-14 * scale
        assert abs(form - op.inner(V, U)) <= 1e-14 * scale


@pytest.mark.parametrize("sector", SECTORS)
@kernel_params
def test_gram_matches_inner(sector, params, rng):
    grid = build_grid(3.0, 24, 16, sector)
    op = grid.operator(params)
    for P, M in zip(*[iter(_random_modes(grid, rng, 6))] * 2):
        want = op.inner(P, P), op.inner(P, M), op.inner(M, M)
        scale = np.sqrt(want[0] * want[2])
        for got, form in zip(op.gram(P, M), want):
            assert abs(got - form) <= 1e-14 * scale


@pytest.mark.parametrize("sector", SECTORS)
@kernel_params
def test_solve_inverts_apply(sector, params, rng):
    grid = build_grid(3.0, 24, 16, sector)
    op = grid.operator(params)
    for X in _random_modes(grid, rng, 3):
        assert np.max(np.abs(operator_apply(op, op.solve(X)) - X)) <= 1e-12 * np.max(np.abs(X))


def test_factorization_once_per_operator(monkeypatch):
    # a whole solve, descent and Newton polish, factors its operator once
    calls = [0]
    original = spiralnls.grid.dpttrf

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spiralnls.grid, "dpttrf", counting)
    grid = build_grid(8.0, 48, 16, SectorKind.half_disk())
    report = solve_ground(grid, ModelParams(p=4.0, q=1, lam=2.0),
                          SolveConfig(grad_tol=1e-8))
    assert report.converged and report.iterations > 1
    assert calls[0] == 1


def test_nodal_projection_takes_one_gram(monkeypatch, small_disk, params_q1, rng):
    calls = {"gram": 0, "inner": 0}
    for name in calls:
        original = getattr(spiralnls.grid.PolarOperator, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(spiralnls.grid.PolarOperator, name, counting)
    u = Field(small_disk, rng.standard_normal((small_disk.nr, small_disk.ntheta)))
    project_nodal(u, params_q1)
    assert calls == {"gram": 1, "inner": 0}


_THREAD_PROBE = """
import hashlib
import numpy as np
from spiralnls.grid import ModelParams, SectorKind, build_grid
def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()
grid = build_grid(14.0, 320, 64, SectorKind.full_disk())
op = grid.operator(ModelParams(p=4.0, q=1, lam=0.5))
rng = np.random.default_rng(20201)
P, M = (grid.to_modes(rng.standard_normal((320, 64))) for _ in range(2))
print([float(x).hex() for x in (op.inner(P, M), op.inner(P, P), *op.gram(P, M))])
print(digest(op.solve(P)))
# the angular transform is a BLAS dgemm, large enough here to thread at 2
for sector, shape in ((SectorKind.full_disk(), (320, 64)), (SectorKind.half_disk(), (480, 96)),
                      (SectorKind.cone(0.7), (320, 64))):
    grid = build_grid(14.0, *shape, sector)
    op = grid.operator(ModelParams(p=4.0, q=1, lam=10.0))
    values = rng.standard_normal(shape)
    modes = grid.to_modes(values)
    print(digest(modes), digest(grid.from_modes(values)), digest(op.solve(modes)))
"""


def test_kernels_do_not_depend_on_blas_threads():
    # the reductions stay off BLAS: 21120-long dot products would thread at 2;
    # the angular transform's dgemm splits its output, not its sums, over threads
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


_SOLVE_PROBE = """
import hashlib
from spiralnls.grid import ModelParams, SectorKind, build_grid
from spiralnls import minimize
from spiralnls.minimize import SolveConfig, solve_ground
linear_solves = []
real = minimize.gmres
minimize.gmres = lambda *args, **kw: linear_solves.append(1) or real(*args, **kw)
grid = build_grid(24.0, 320, 64, SectorKind.half_disk())
rep = solve_ground(grid, ModelParams(p=4.0, q=1, lam=2.0), SolveConfig())
print(rep.energy.total.hex(), hashlib.sha256(rep.field.values.tobytes()).hexdigest())
print(rep.converged, len(linear_solves) > 0)   # the Newton polish ran
"""


def test_newton_polished_solve_does_not_depend_on_blas_threads():
    # the polish's GMRES reduces 20480-long vectors, which BLAS would split at 2
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _SOLVE_PROBE], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert outputs[0].splitlines()[1] == "True True"
    assert outputs[0] == outputs[1]


def test_grid_keeps_one_operator(small_disk):
    a = ModelParams(p=4.0, q=1, lam=0.7)
    b = ModelParams(p=4.0, q=1, lam=1.3)
    op_a = small_disk.operator(a)
    assert small_disk.operator(ModelParams(p=4.0, q=1, lam=0.7)) is op_a
    op_b = small_disk.operator(b)
    assert op_b is not op_a and op_b.stencil is op_a.stencil
    assert small_disk.operator(a) is not op_a


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_layers_resolve():
    # every span the benchmark's tracer wraps names a callable of the package
    tracer = _load_tracer()
    for name, (module, attr) in tracer.LAYERS.items():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{name}: {module}.{attr} does not resolve"


def test_traced_sweep_counts_the_solver_layers():
    # the solver calls the public gradient, nodal projection and operator solve
    # the tracer wraps, so a traced sweep's spans read its work
    tracer = _load_tracer()
    for module, _ in tracer.LAYERS.values():
        importlib.import_module(module)   # the tracer wraps loaded modules only
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    with tracer.Tracer(tracer.LAYERS) as spans:
        sweep_lambda(ModelParams(p=4.0, q=1, lam=1.0), [0.5, 4.0], grid,
                     SolveConfig(grad_tol=1e-7))
    counts = spans.snapshot()
    for name in ("energy.gradient", "nehari.project_nodal", "grid.solve_operator",
                 "minimize.gmres"):
        assert counts[f"{name}.calls"] > 0, name
    assert counts["grid.solve_operator.calls"] == (counts["minimize.gmres.matvecs"]
                                                   + counts["energy.gradient.calls"])


def _attribute_chain(node):
    """["mod", "a", "b"] for the expression mod.a.b, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def test_benchmark_calls_resolve():
    # every package attribute the benchmark's workloads and input maker read
    # through their module handles (x = import_module("spiralnls.y")) exists
    modules, chains = {}, set()
    for name in ("workloads.py", "make_inputs.py"):
        tree = ast.parse((ROOT / "bench" / name).read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "import_module"):
                modules[node.targets[0].id] = node.value.args[0].value
            chain = _attribute_chain(node)
            if chain and len(chain) > 1:
                chains.add(tuple(chain))
    assert set(modules) >= {"cli", "sio", "grid_mod", "radial", "nehari"}
    used = [chain for chain in chains if chain[0] in modules]
    assert {chain[0] for chain in used} == set(modules)
    for handle, *attrs in sorted(used):
        obj = importlib.import_module(modules[handle])
        for attr in attrs:
            assert hasattr(obj, attr), f"{handle}.{'.'.join(attrs)} does not resolve"
            obj = getattr(obj, attr)


def test_package_exports_resolve():
    package = importlib.import_module("spiralnls")
    for name in package.__all__:
        assert hasattr(package, name), f"spiralnls.{name} does not resolve"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["report"].converged
    assert capsys.readouterr().out.count("\n") == 1
