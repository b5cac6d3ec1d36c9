import math
import tracemalloc

import numpy as np
import pytest
from reference import field_from_polar, helicoid_deviation, read_vtk, spiral_value, vtk_text

from spiralnls.errors import SectorError
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.minimize import SolveConfig, solve_ground
from spiralnls.spiral3d import (
    SpiralEvaluator,
    SpiralField3D,
    export_vtk,
    reconstruct3d,
)


@pytest.fixture(scope="module")
def half_ground():
    grid = build_grid(14.0, 160, 32, SectorKind.half_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    rep = solve_ground(grid, params, SolveConfig(grad_tol=1e-8))
    assert rep.converged
    return rep.field, params


def test_radial_profile_gives_t_independent_volume(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-(r**2)) + 0 * t)
    params = ModelParams(p=4.0, q=1, lam=1.5)
    vol = reconstruct3d(u, params, nt=8, nxy=16)
    spread = np.max(vol.values, axis=2) - np.min(vol.values, axis=2)
    assert np.max(spread) < 1e-13


def test_turn_periodicity(small_disk):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) * np.cos(2 * t))
    params = ModelParams(p=4.0, q=1, lam=0.8)
    ev = SpiralEvaluator(u, params)
    pts = np.array([0.3, -0.7, 1.1]), np.array([0.5, 0.2, -0.9])
    t = np.array([0.1, 1.0, 2.5])
    period = 2 * math.pi * params.lam
    a = spiral_value(ev, pts[0], pts[1], t)
    b = spiral_value(ev, pts[0], pts[1], t + period)
    assert np.max(np.abs(a - b)) < 1e-12


def test_screw_invariance(small_disk, rng):
    u = field_from_polar(small_disk, lambda r, t: np.exp(-r) * (np.cos(t) + 0.3 * np.sin(3 * t)))
    params = ModelParams(p=4.0, q=1, lam=1.1)
    ev = SpiralEvaluator(u, params)
    for _ in range(20):
        x1, x2 = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(0, 5)
        omega = rng.uniform(-3, 3)
        rot = np.array([[np.cos(omega), -np.sin(omega)],
                        [np.sin(omega), np.cos(omega)]]) @ np.array([x1, x2])
        a = spiral_value(ev, np.array([x1]), np.array([x2]), np.array([t]))
        b = spiral_value(ev, rot[:1], rot[1:], np.array([t + params.lam * omega]))
        assert abs(a - b) < 1e-11


def test_half_disk_series_is_odd_extension(rng):
    # at t = 0 the evaluator returns the nodes and their negated mirror
    # images across the rays theta = +-pi/2
    grid = build_grid(3.0, 12, 15, SectorKind.half_disk())
    u = Field(grid, rng.standard_normal((grid.nr, grid.ntheta)))
    ev = SpiralEvaluator(u, ModelParams(p=4.0, q=1, lam=1.0))
    r, theta = np.meshgrid(grid.radii, grid.angles, indexing="ij")
    scale = u.linf()
    for angle, sign in ((theta, 1.0), (np.pi - theta, -1.0), (-np.pi - theta, -1.0)):
        v = spiral_value(ev, r * np.cos(angle), r * np.sin(angle), 0.0)
        assert np.max(np.abs(v - sign * u.values)) <= 1e-13 * scale


def test_evaluator_base_operand_order(rng):
    # numpy's SIMD complex product is not bitwise commutative, and the
    # volumes' bits follow phases * modes; modes * phases fails here (disk
    # modes have both parts nonzero, unlike the half disk's imaginary ones)
    grid = build_grid(4.0, 32, 32, SectorKind.full_disk())
    u = Field(grid, rng.standard_normal((grid.nr, grid.ntheta)))
    ev = SpiralEvaluator(u, ModelParams(p=4.0, q=1, lam=1.3))
    xs = np.linspace(-3.5, 3.5, 24)
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    r, phi = np.hypot(x1, x2).ravel(), np.arctan2(x2, x1).ravel()
    expected = np.exp(1j * np.outer(phi + ev.half_angle, ev.omega)) * ev.modes_at(r)
    assert np.array_equal(ev.base(x1, x2), expected)


@pytest.mark.parametrize("sector,n", [
    (SectorKind.full_disk(), 64), (SectorKind.full_disk(), 30),
    (SectorKind.half_disk(), 96), (SectorKind.half_disk(), 15),
], ids=["disk64", "disk30", "half96", "half15"])
def test_volume_rows_match_the_one_block_product(rng, sector, n):
    # the row-by-row fill gives the bits of one (points x modes) product;
    # the lattice's corners lie outside R, where the series is 0
    grid = build_grid(4.0, 40, n, sector)
    u = Field(grid, rng.standard_normal((grid.nr, grid.ntheta)))
    params = ModelParams(p=4.0, q=1, lam=1.3)
    ev = SpiralEvaluator(u, params)
    for nxy in (2, 13, 49):
        xs = np.linspace(-0.75 * grid.R, 0.75 * grid.R, nxy)
        x1, x2 = np.meshgrid(xs, xs, indexing="ij")
        assert np.hypot(x1, x2).max() > grid.R
        for nt in (2, 5):
            ts = np.arange(nt) * (2 * math.pi * params.lam / nt)
            block = (ev.base(x1, x2) @ ev.twist(ts).T).real.reshape(nxy, nxy, nt)
            assert np.array_equal(reconstruct3d(u, params, nt=nt, nxy=nxy).values, block)


def test_volume_memory_is_the_volume_plus_one_row():
    # bound from array sizes: the volume, the spline's four coefficient
    # blocks and one row's complex (nxy, modes) block, with a factor 2 for
    # temporaries (19.5 MB); one (points x modes) product took 162 MB
    grid = build_grid(30.0, 480, 96, SectorKind.half_disk())
    u = field_from_polar(grid, lambda r, t: np.exp(-r) * np.cos(t) * (1 + 0.5 * np.cos(3 * t)))
    params = ModelParams(p=4.0, q=1, lam=10.0)
    nxy, nt = 160, 32
    modes = len(SpiralEvaluator(u, params).omega)
    volume = nxy * nxy * nt * 8
    coefficients = 4 * (grid.nr - 1) * modes * 16
    row = nxy * modes * 16
    tracemalloc.start()
    try:
        reconstruct3d(u, params, nt=nt, nxy=nxy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (volume + coefficients + row)


def test_helicoid_nodal_set(half_ground):
    field, params = half_ground
    dev = helicoid_deviation(field, params, n_samples=100)
    assert dev < 1e-6 * field.linf()


def test_reconstruct_rejects_cone():
    grid = build_grid(4.0, 16, 8, SectorKind.cone(0.5))
    u = field_from_polar(grid, lambda r, t: np.cos(t) * np.exp(-r))
    with pytest.raises(SectorError):
        reconstruct3d(u, ModelParams(p=4.0, q=1, lam=1.0), nt=4, nxy=8)


def test_vtk_constant_field_line_count(tmp_path):
    vol = SpiralField3D(nx=2, ny=2, nt=2, origin=(0, 0, 0),
                        spacing=(1.0, 1.0, 1.0),
                        values=np.ones((2, 2, 2)), lam=1.0)
    path = tmp_path / "cube.vtk"
    export_vtk(vol, path)
    lines = path.read_text().splitlines()
    header_end = lines.index("LOOKUP_TABLE default")
    assert len(lines) - header_end - 1 == 8


def test_vtk_round_trip(tmp_path, rng):
    values = rng.standard_normal((3, 4, 5))
    vol = SpiralField3D(nx=3, ny=4, nt=5, origin=(-1.0, -1.0, 0.0),
                        spacing=(0.5, 0.25, 0.1), values=values, lam=2.0)
    path = tmp_path / "vol.vtk"
    export_vtk(vol, path)
    back = read_vtk(path)
    assert back.nx == 3 and back.ny == 4 and back.nt == 5
    np.testing.assert_allclose(back.values, values, rtol=1e-11, atol=1e-300)
    np.testing.assert_allclose(back.spacing, vol.spacing, rtol=1e-12)


def test_vtk_rejects_mismatched_dimensions(tmp_path):
    vol = SpiralField3D(nx=3, ny=3, nt=3, origin=(0, 0, 0),
                        spacing=(1, 1, 1), values=np.ones((2, 2, 2)), lam=1.0)
    with pytest.raises(ValueError):
        export_vtk(vol, tmp_path / "bad.vtk")


def test_vtk_x_fastest_order(tmp_path):
    values = np.arange(8.0).reshape(2, 2, 2)   # values[ix, iy, it]
    vol = SpiralField3D(nx=2, ny=2, nt=2, origin=(0, 0, 0),
                        spacing=(1, 1, 1), values=values, lam=1.0)
    path = tmp_path / "order.vtk"
    export_vtk(vol, path)
    lines = path.read_text().splitlines()
    data = [float(x) for x in lines[lines.index("LOOKUP_TABLE default") + 1:]]
    # x fastest, then y, then t: flat[i] = values[ix, iy, it] with ix inner
    expected = [values[ix, iy, it]
                for it in range(2) for iy in range(2) for ix in range(2)]
    assert data == expected


def test_vtk_matches_per_value_writer(tmp_path, rng, small_half):
    values = rng.standard_normal((3, 4, 5)) * 10.0 ** rng.integers(-300, 300, (3, 4, 5))
    values[0, 0, 0] = -0.0
    values[1, 2, 3] = np.nan
    values[2, 3, 4] = np.inf
    values[2, 0, 1] = -np.inf
    synthetic = SpiralField3D(nx=3, ny=4, nt=5, origin=(-1.0, -1.0, 0.0),
                              spacing=(0.5, 0.25, 0.1), values=values, lam=2.0)
    u = field_from_polar(small_half, lambda r, t: np.exp(-r**2) * np.cos(t))
    reconstructed = reconstruct3d(u, ModelParams(p=4.0, q=1, lam=1.5), nt=6, nxy=10)
    for vol in (synthetic, reconstructed):
        path = tmp_path / "vol.vtk"
        export_vtk(vol, path)
        assert path.read_bytes() == vtk_text(vol).encode("ascii")


class _DiskFull:
    """File handle that writes half of its first block, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_vtk_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    vol = SpiralField3D(nx=2, ny=2, nt=2, origin=(0, 0, 0), spacing=(1, 1, 1),
                        values=np.ones((2, 2, 2)), lam=1.0)
    path = tmp_path / "vol.vtk"
    path.write_text("previous\n")
    real_open = open

    def open_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr("builtins.open", open_full_disk)
    with pytest.raises(OSError, match="VTK export"):
        export_vtk(vol, path)
    monkeypatch.undo()
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vol.vtk"]
