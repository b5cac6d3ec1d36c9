import json

import numpy as np
import pytest
from reference import serialize_config, solution_text

from spiralnls.errors import ConfigError
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.io import (
    load_solution,
    parse_config,
    report_dict,
    save_solution,
    write_csv,
    write_json,
    write_manifest,
)
from spiralnls.minimize import SolveConfig, solve_ground


def test_config_round_trip_canonical():
    text = """
    # run setup
    lambda = 2.5
    p = 3.0
    nr = 128
    keep_trace = yes
    lambdas = 0.5, 1.0, 2
    """
    cfg = parse_config(text)
    canonical = serialize_config(cfg)
    again = serialize_config(parse_config(canonical))
    assert canonical == again
    lines = [ln.split(" = ")[0] for ln in canonical.strip().splitlines()]
    assert lines == sorted(lines)
    assert cfg["lambda"] == 2.5
    assert cfg["keep_trace"] is True
    assert cfg["lambdas"] == (0.5, 1.0, 2.0)


def test_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("granularity = 3\n")
    with pytest.raises(ConfigError):
        parse_config("", overrides={"not_a_key": "1"})


def test_config_bad_values():
    with pytest.raises(ConfigError):
        parse_config("nr = small\n")
    with pytest.raises(ConfigError):
        parse_config("keep_trace = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("p 4\n")


def test_config_overrides_win():
    cfg = parse_config("p = 3.0\n", overrides={"p": "5.0"})
    assert cfg["p"] == 5.0


def test_config_builds_objects():
    cfg = parse_config("sector = cone:0.5\nnr = 16\nntheta = 8\nR = 4\n")
    grid = cfg.grid()
    assert grid.sector.kind == "cone"
    assert grid.nr == 16
    params = cfg.model_params()
    assert params.p == 4.0
    cfg.solve_config()


def test_solution_round_trip_bit_exact(tmp_path, rng):
    grid = build_grid(5.0, 12, 8, SectorKind.cone(0.7))
    field = Field(grid, rng.standard_normal((12, 8)))
    params = ModelParams(p=3.5, q=0, lam=2.25)
    path = tmp_path / "sol.csv"
    save_solution(path, field, params)
    loaded, loaded_params = load_solution(path)
    assert np.array_equal(loaded.values, field.values)
    assert loaded_params == params
    assert loaded.grid.sector == grid.sector
    assert np.array_equal(loaded.grid.radii, grid.radii)


# values whose repr is hardest to get right: signed zero, the smallest
# subnormal, the largest finite magnitudes and a 17-digit repr
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1 + 0.2]


@pytest.mark.parametrize("sector", [SectorKind.full_disk(), SectorKind.half_disk(),
                                    SectorKind.cone(0.7)],
                         ids=lambda sector: sector.kind)
def test_save_solution_matches_per_node_writer(tmp_path, rng, sector):
    grid = build_grid(5.0, 12, 8, sector)
    values = rng.standard_normal((12, 8)) * 10.0 ** rng.integers(-300, 300, (12, 8))
    values.flat[:len(EXTREMES)] = EXTREMES
    field = Field(grid, values)
    params = ModelParams(p=3.5, q=0, lam=2.25)
    path = tmp_path / "sol.csv"
    save_solution(path, field, params)
    assert path.read_bytes() == solution_text(field, params).encode("ascii")
    assert load_solution(path)[0].values.tobytes() == values.tobytes()


def test_solution_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("j,k,value\n0,0,1.0\n")
    with pytest.raises(ConfigError):
        load_solution(path)


def test_report_dict_json_safe():
    grid = build_grid(12.0, 96, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=1.0)
    rep = solve_ground(grid, params, SolveConfig(grad_tol=1e-6, keep_trace=True))
    payload = report_dict(rep, params)
    text = json.dumps(payload, allow_nan=False)
    back = json.loads(text)
    assert back["converged"] is True
    assert back["energy"]["total"] == rep.energy.total
    assert back["params"]["lambda"] == 1.0
    assert "trace_tail" in back


def test_manifest_contents(tmp_path):
    cfg = parse_config("p = 4.0\n")
    path = tmp_path / "manifest.json"
    write_manifest(path, "solve-ground", cfg, ["a.json", "b.csv"])
    data = json.loads(path.read_text())
    assert data["command"] == "solve-ground"
    assert data["artifact"].startswith("spiralnls")
    assert data["outputs"] == ["a.json", "b.csv"]
    assert data["config"]["p"] == "4.0"


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"x": float("nan")})


def _saved_lines(tmp_path, rng):
    grid = build_grid(4.0, 6, 4, SectorKind.full_disk())
    path = tmp_path / "sol.csv"
    save_solution(path, Field(grid, rng.standard_normal((6, 4))),
                  ModelParams(p=4.0, q=1, lam=1.0))
    return path, path.read_text().splitlines(keepends=True)


def _rejects(path, lines, match):
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=match):
        load_solution(path)


def test_solution_rejects_truncated_block(tmp_path, rng):
    path, lines = _saved_lines(tmp_path, rng)
    _rejects(path, lines[:-5], "1 rows of 4 values, expected 6 rows of 4")


def test_solution_rejects_duplicate_node(tmp_path, rng):
    # a repeated row repeats its ring's nodes: one row too many
    path, lines = _saved_lines(tmp_path, rng)
    _rejects(path, lines + [lines[-1]], "7 rows of 4 values, expected 6 rows of 4")


def test_solution_rejects_out_of_range_node(tmp_path, rng):
    # a fifth value on every ring is a node past ntheta: rows too wide
    path, lines = _saved_lines(tmp_path, rng)
    _rejects(path, lines[:8] + [ln.rstrip("\n") + ",1.0\n" for ln in lines[8:]],
             "6 rows of 5 values, expected 6 rows of 4")


def test_solution_rejects_missing_header_key(tmp_path, rng):
    path, lines = _saved_lines(tmp_path, rng)
    _rejects(path, [ln for ln in lines if not ln.startswith("# R =")], "lacks R")


def test_solution_rejects_malformed_row(tmp_path, rng):
    # a ragged row
    path, lines = _saved_lines(tmp_path, rng)
    _rejects(path, lines[:-1] + ["5,3\n"], "column")


def test_config_override_values_are_config_errors():
    with pytest.raises(ConfigError):
        parse_config("", overrides={"nr": "abc"})
    # the constructors' own ValueErrors, which the CLI reports as usage errors
    with pytest.raises(ValueError, match="p must be"):
        parse_config("", overrides={"p": "1.5"}).model_params()
    with pytest.raises(ValueError, match="ntheta must be even"):
        parse_config("", overrides={"ntheta": "7"}).grid()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("writer failed mid-write")


class _ParamsFailingAtLambda:
    p, q = 4.0, 1

    @property
    def lam(self):
        raise RuntimeError("writer failed mid-write")


def _save_failing(path):
    grid = build_grid(3.0, 4, 4, SectorKind.full_disk())
    save_solution(path, Field(grid, np.ones((4, 4))), _ParamsFailingAtLambda())


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"a": 1.0, "z": float("nan")}),
    lambda path: write_csv(path, ["x"], [(1.0,), (_Unprintable(),)]),
    _save_failing,
])
def test_failed_write_keeps_previous_file(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_text("previous\n")
    with pytest.raises((ValueError, RuntimeError)):
        write(path)
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    path = tmp_path / "manifest.json"
    write_manifest(path, "solve-ground", parse_config(""), [])
    env = json.loads(path.read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["numpy"] == np.__version__
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
