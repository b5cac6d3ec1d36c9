"""Property tests of the discrete identities on small random grids and fields."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, strategies as st
from reference import PROPERTY, operator_apply, serialize_config

from spiralnls.energy import lambda_inner, lp_integral
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.io import _BOOL, _SCHEMA, load_solution, parse_config, save_solution
from spiralnls.nehari import split_parts


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(["full", "half", "cone"]))
    if kind == "full":
        sector, ntheta = SectorKind.full_disk(), 2 * draw(st.integers(1, 8))
    else:
        sector = (SectorKind.half_disk() if kind == "half"
                  else SectorKind.cone(draw(st.floats(0.1, 3.0))))
        ntheta = draw(st.integers(2, 16))
    return build_grid(draw(st.floats(0.5, 20.0)), draw(st.integers(2, 24)), ntheta, sector)


params = st.builds(lambda q, e: ModelParams(p=4.0, q=q, lam=10.0 ** e),
                   st.sampled_from([0, 1]), st.floats(-1.5, 1.7))


def _fields(grid, seed, count):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((grid.nr, grid.ntheta)) for _ in range(count)]


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_inner_symmetric_bilinear_positive(grid, par, seed, a):
    op = grid.operator(par)
    U, V, W = (grid.to_modes(f) for f in _fields(grid, seed, 3))
    nu, nv, nw = op.inner(U, U), op.inner(V, V), op.inner(W, W)
    assert min(nu, nv, nw) > 0.0
    scale = np.sqrt(nu * nv)
    assert abs(op.inner(U, V) - op.inner(V, U)) <= 1e-14 * scale
    lhs = op.inner(a * U + V, W)
    rhs = a * op.inner(U, W) + op.inner(V, W)
    assert abs(lhs - rhs) <= 1e-13 * (abs(a) * np.sqrt(nu) + np.sqrt(nv)) * np.sqrt(nw)


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1))
def test_solve_inverts_apply(grid, par, seed):
    op = grid.operator(par)
    (X,) = (grid.to_modes(f) for f in _fields(grid, seed, 1))
    scale = np.max(np.abs(X))
    assert np.max(np.abs(op.solve(operator_apply(op, X)) - X)) <= 1e-11 * scale
    assert np.max(np.abs(operator_apply(op, op.solve(X)) - X)) <= 1e-11 * scale


@PROPERTY
@given(grids(), st.integers(0, 2**32 - 1))
def test_mass_form_is_quadrature(grid, seed):
    # Parseval: the mode-space mass form is the nodal quadrature of u v
    u, v = _fields(grid, seed, 2)
    mass2 = grid.stencil.forms(grid.to_modes(u), grid.to_modes(v))[2]
    assert abs(mass2 - grid.quad(u * v)) <= 1e-13 * np.sqrt(grid.quad(u * u) * grid.quad(v * v))


def _class_fields(grid, seed, count):
    """(columns, fields) per symmetry class of the grid: random fields projected onto it."""
    fields = _fields(grid, seed, count)
    classes = [(grid.even_columns(), [0.5 * (f + f[:, grid.mirror]) for f in fields])]
    if grid.sector.is_full:
        classes.append(((0,), [np.repeat(f.mean(axis=1, keepdims=True), grid.ntheta, axis=1)
                               for f in fields]))
    return classes


# odd and even n on sectors: an odd n has a fixed node on the bisector
FOLDED_EXAMPLES = [
    (build_grid(3.0, 12, 16, SectorKind.full_disk()), ModelParams(p=4.0, q=1, lam=2.0), 1),
    (build_grid(3.0, 12, 15, SectorKind.half_disk()), ModelParams(p=4.0, q=0, lam=0.5), 2),
    (build_grid(3.0, 12, 16, SectorKind.half_disk()), ModelParams(p=4.0, q=1, lam=2.0), 3),
    (build_grid(3.0, 12, 7, SectorKind.cone(0.7)), ModelParams(p=4.0, q=1, lam=20.0), 4),
    (build_grid(3.0, 12, 8, SectorKind.cone(0.7)), ModelParams(p=4.0, q=0, lam=0.1), 5),
]


def folded_examples(test):
    for args in FOLDED_EXAMPLES:
        test = example(*args)(test)
    return test


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1))
@folded_examples
def test_folded_kernels_match_the_whole_grid(grid, par, seed):
    op = grid.operator(par)
    for columns, fields in _class_fields(grid, seed, 2):
        view = grid.folded(columns)
        assert grid.folded(columns) is view and view != grid
        nodes = view.nnodes
        assert view.orbit[0] == 0 and np.bincount(view.orbit).size == nodes
        view_op = view.operator(par)
        kept = list(columns)
        dropped = np.ones(grid.ntheta, bool)
        dropped[kept] = False
        U, V = (grid.to_modes(f) for f in fields)
        Uf, Vf = (view.to_modes(f[:, :nodes]) for f in fields)
        for full, cut, values in ((U, Uf, fields[0]), (V, Vf, fields[1])):
            assert np.array_equal(values[:, :nodes][:, view.orbit], values)
            scale = np.max(np.abs(full))
            assert np.max(np.abs(cut - full[:, kept])) <= 1e-13 * scale
            assert np.max(np.abs(full[:, dropped]), initial=0.0) <= 1e-13 * scale
            back = view.from_modes(cut)[:, view.orbit]
            assert np.max(np.abs(back - grid.from_modes(full))) <= 1e-13 * np.max(np.abs(values))
            solved = op.solve(full)[:, kept]
            assert np.max(np.abs(view_op.solve(cut) - solved)) <= 1e-13 * np.max(np.abs(solved))
        u, v = fields
        assert (abs(view.quad((u * v)[:, :nodes]) - grid.quad(u * v))
                <= 1e-13 * np.sqrt(grid.quad(u * u) * grid.quad(v * v)))
        scale = np.sqrt(op.inner(U, U) * op.inner(V, V))
        assert abs(view_op.inner(Uf, Vf) - op.inner(U, V)) <= 1e-13 * scale
        for got, want in zip(view_op.gram(Uf, Vf), op.gram(U, V)):
            assert abs(got - want) <= 1e-13 * scale


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1))
@folded_examples
def test_nodal_splitting_on_a_folded_view(grid, par, seed):
    for columns, (values,) in _class_fields(grid, seed, 1):
        view = grid.folded(columns)
        u = Field(view, values[:, :view.nnodes])
        plus, minus = split_parts(u)
        lp = lp_integral(u, par.p)
        assert abs(lp_integral(plus, par.p) + lp_integral(minus, par.p) - lp) <= 1e-13 * lp
        up, um = lambda_inner(u, plus, par), lambda_inner(u, minus, par)
        assert abs(up + um - lambda_inner(u, u, par)) <= 1e-13 * (abs(up) + abs(um))


@PROPERTY
@given(grids(), params, st.integers(0, 2**32 - 1))
@folded_examples
def test_nodal_splitting_on_a_whole_grid(grid, par, seed):
    # |u|_p^p = |u+|_p^p + |u-|_p^p and <u, u+> + <u, u-> = <u, u>
    (values,) = _fields(grid, seed, 1)
    u = Field(grid, values)
    plus, minus = split_parts(u)
    lp = lp_integral(u, par.p)
    assert abs(lp_integral(plus, par.p) + lp_integral(minus, par.p) - lp) <= 1e-13 * lp
    up, um = lambda_inner(u, plus, par), lambda_inner(u, minus, par)
    assert abs(up + um - lambda_inner(u, u, par)) <= 1e-13 * (abs(up) + abs(um))


@PROPERTY
@given(grids(), st.floats(2.1, 10.0), st.sampled_from([0, 1]), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_save_load_round_trip_is_bit_exact(grid, p, q, e, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.nr, grid.ntheta)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values.flat[0], values.flat[-1] = -0.0, 5e-324
    params_in = ModelParams(p=p, q=q, lam=10.0 ** e)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sol.csv"
        save_solution(path, Field(grid, values), params_in)
        field, params_out = load_solution(path)
    assert field.grid == grid and field.grid.sector == grid.sector
    assert params_out == params_in
    assert field.values.tobytes() == values.tobytes()


# config values as a config file can spell them: printable ASCII, no "#", no
# whitespace at either end (the parser strips it), several spellings each
_CONFIG_STRINGS = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                        blacklist_characters="#"), max_size=12
                          ).filter(lambda s: s == s.strip())
_CONFIG_FLOATS = st.floats().flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.17e}", f"  {x!r}"]))
_CONFIG_INTS = st.integers(-10**18, 10**18).flatmap(
    lambda n: st.sampled_from([str(n), f"{n:+d}", f"{n:+05d}"]))
_CONFIG_BOOLS = st.sampled_from(sorted(_BOOL)).flatmap(
    lambda b: st.sampled_from([b, b.upper(), b.capitalize()]))
_CONFIG_LISTS = st.lists(_CONFIG_FLOATS, max_size=4).flatmap(
    lambda xs: st.sampled_from([", ".join(xs), " ".join(xs), ",".join(xs)]))
_BY_PARSER = {float: _CONFIG_FLOATS, int: _CONFIG_INTS, str: _CONFIG_STRINGS}
_CONFIG_VALUES = {"lambdas": _CONFIG_LISTS, "keep_trace": _CONFIG_BOOLS} | {
    key: _BY_PARSER[parser] for key, (parser, _) in _SCHEMA.items() if parser in _BY_PARSER}


@st.composite
def config_texts(draw):
    lines = [f"{key} = {draw(_CONFIG_VALUES[key])}"
             for key in _SCHEMA if draw(st.booleans())]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@PROPERTY
@given(config_texts())
@example("lambdas = \nout_dir = \nseed = a = b\n")
def test_config_through_the_manifest_text_is_idempotent(text):
    # parse -> the manifest's config text (io._format_value) -> parse
    first = parse_config(text)
    manifest = serialize_config(first)
    again = parse_config(manifest)
    assert serialize_config(again) == manifest
    assert {k: type(v) for k, v in again.entries.items()} == \
        {k: type(v) for k, v in first.entries.items()}
