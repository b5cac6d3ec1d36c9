import json
import warnings

import numpy as np
import pytest
from reference import field_from_polar

import spiralnls.grid
from spiralnls import cli, studies
from spiralnls import io as sio
from spiralnls.cli import (
    EXIT_CHECK,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    run_cli,
)
from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
from spiralnls.io import save_solution
from spiralnls.minimize import SolveConfig, solve_ground
from spiralnls.nehari import nehari_scale

ARGS_SMALL = ["--R", "12", "--nr", "96", "--ntheta", "16", "--grad_tol", "1e-7"]


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli([]) == EXIT_USAGE
    capsys.readouterr()


def test_solve_ground_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli(["solve-ground", "--p", "4", "--q", "1", "--lambda", "2",
                    "--sector", "half", "--out-dir", out] + ARGS_SMALL)
    assert code == EXIT_OK
    summary = capsys.readouterr().out
    assert "converged=True" in summary

    report = json.loads((tmp_path / "out" / "ground_p4_q1_lam2.json").read_text())
    assert report["converged"] is True
    # fixture comparison: the same solve through the API
    grid = build_grid(12.0, 96, 16, SectorKind.half_disk())
    rep = solve_ground(grid, ModelParams(p=4.0, q=1, lam=2.0),
                       SolveConfig(grad_tol=1e-7))
    assert report["energy"]["total"] == pytest.approx(rep.energy.total, rel=1e-12)
    manifest = json.loads(
        (tmp_path / "out" / "ground_p4_q1_lam2_manifest.json").read_text())
    assert manifest["command"] == "solve-ground"


def test_solve_radial_and_check_and_reconstruct(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["solve-radial", "--p", "4", "--out-dir", out]) == EXIT_OK
    data = json.loads((tmp_path / "out" / "radial_p4_k0.json").read_text())
    assert abs(data["energy"] - 5.850) / 5.850 < 0.005

    code = run_cli(["solve-ground", "--p", "4", "--q", "1", "--lambda", "1",
                    "--sector", "half", "--out-dir", out] + ARGS_SMALL)
    assert code == EXIT_OK
    sol = str(tmp_path / "out" / "ground_p4_q1_lam1.csv")
    assert run_cli(["check", sol]) == EXIT_OK
    capsys.readouterr()

    code = run_cli(["reconstruct", sol, "--nt", "8", "--nxy", "12",
                    "--out-dir", out])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "ground_p4_q1_lam1.vtk").exists()
    capsys.readouterr()


def test_solve_radial_reports_the_cost_of_its_amplitude_search(tmp_path, capsys):
    # the report gains the search's classifying shots and accepted steps,
    # and nothing else
    from spiralnls.radial import shoot_nodal
    out = str(tmp_path / "out")
    assert run_cli(["solve-radial", "--p", "4", "--nodes", "1", "--out-dir", out]) == EXIT_OK
    capsys.readouterr()
    data = json.loads((tmp_path / "out" / "radial_p4_k1.json").read_text())
    assert sorted(data) == ["amplitude", "energy", "mass", "nehari_rel", "nodes", "p",
                            "pohozaev_rel", "search_shots", "search_steps"]
    profile = shoot_nodal(4.0, 1)
    assert (data["search_shots"], data["search_steps"]) \
        == (profile.search_shots, profile.search_steps)
    assert data["search_shots"] == 24 and data["search_steps"] > 0


def test_check_names_failing_invariant(tmp_path, capsys):
    out = str(tmp_path / "out")
    run_cli(["solve-ground", "--p", "4", "--q", "1", "--lambda", "1",
             "--sector", "half", "--out-dir", out] + ARGS_SMALL)
    capsys.readouterr()
    src = tmp_path / "out" / "ground_p4_q1_lam1.csv"
    lines = src.read_text().splitlines(keepends=True)
    row = lines[8 + 40].split(",")     # radial node 40, after the magic line and header
    row[0] = repr(float(row[0]) + 1.0)
    lines[8 + 40] = ",".join(row)
    bad = tmp_path / "out" / "corrupt.csv"
    bad.write_text("".join(lines))
    assert run_cli(["check", str(bad)]) == EXIT_CHECK
    message = capsys.readouterr().out
    assert "nehari-residual" in message


def test_unknown_config_key_is_usage(tmp_path, capsys):
    code = run_cli(["solve-ground", "--set", "bogus=1",
                    "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPIRALNLS_OUTDIR", str(tmp_path / "envout"))
    assert run_cli(["solve-radial", "--p", "3"]) == EXIT_OK
    assert (tmp_path / "envout" / "radial_p3_k0.json").exists()
    capsys.readouterr()


def test_solve_nodal_default_seed(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli(["solve-nodal", "--p", "4", "--q", "1", "--lambda", "0.2",
                    "--out-dir", out] + ARGS_SMALL)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "nodal_p4_q1_lam0.2.json").read_text())
    assert report["converged"] is True
    assert report["nonradiality"] < 1e-6
    capsys.readouterr()


def test_asympt_cli_wiring(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    real = studies.solve_ground
    solved_q = []
    monkeypatch.setattr(studies, "solve_ground", lambda grid, params, cfg:
                        solved_q.append(params.q) or real(grid, params, cfg))
    code = run_cli(["asympt-zero", "--p", "4", "--sector", "half",
                    "--lambdas", "1,0.5", "--R", "12", "--nr", "128",
                    "--ntheta", "16", "--grad_tol", "1e-6", "--out-dir", out])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "asympt_zero.csv").read_text().splitlines()
    assert len(rows) == 3
    summary = json.loads((tmp_path / "out" / "asympt_zero.json").read_text())
    assert summary["radius_sensitivity_rel"] < 1e-3
    # one solve per pitch, then the q = 0 limit problem once at R and once at 1.5 R
    assert solved_q == [0, 1, 1, 0]

    code = run_cli(["asympt-inf", "--p", "4", "--sector", "half",
                    "--lambdas", "3,6", "--R", "16", "--nr", "160",
                    "--ntheta", "32", "--grad_tol", "1e-6", "--out-dir", out])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "asympt_inf.csv").read_text().splitlines()
    assert len(rows) == 3
    capsys.readouterr()


def test_sweep_cli_wiring(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli(["sweep", "--p", "4", "--q", "1", "--lambdas", "0.2,8",
                    "--R", "14", "--nr", "128", "--ntheta", "24",
                    "--grad_tol", "1e-6", "--out-dir", out])
    assert code == EXIT_OK
    capsys.readouterr()
    csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv[0].startswith("lambda,alpha_hat,beta_hat,c_hat")
    assert len(csv) == 3
    summary = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert summary["winner_crossings"] == 1
    assert summary["bracket_low"] == 0.2
    assert summary["bracket_high"] == 8.0


def test_sweep_records_a_sector_peak_at_the_boundary(tmp_path, capsys):
    # on R = 10 the sector state at lambda = 0.05 peaks inside the first
    # radial cell: tau is lost at that pitch, its level and the sweep are not
    out = tmp_path / "out"
    code = run_cli(["sweep", "--R", "10", "--nr", "64", "--ntheta", "16",
                    "--lambdas", "0.05,0.5", "--out-dir", str(out)])
    assert code == EXIT_NUMERICAL
    capsys.readouterr()
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [r["lambda"] for r in rows] == ["0.05", "0.5"]
    assert rows[0]["tau"] == "nan" and np.isfinite(float(rows[0]["c_hat"]))
    assert rows[1]["winner"] and all(
        np.isfinite(float(v)) for key, v in rows[1].items() if key != "winner")
    failures = json.loads((out / "sweep.json").read_text())["failures"]
    assert failures == [["sector-ground: profile maximum at radial node 0; increase R"], []]


def test_cli_reports_numerical_failure(tmp_path, capsys, solve_budget):
    # a budget too small to converge -> nonzero exit with solver category
    solve_budget(3)
    out = str(tmp_path / "out")
    code = run_cli(["solve-ground", "--p", "4", "--q", "1", "--lambda", "1",
                    "--sector", "half", "--out-dir", out,
                    "--set", "grad_tol=1e-12"] + ARGS_SMALL[:-2])
    assert code == EXIT_NUMERICAL
    capsys.readouterr()


def _fail_pttrf(d, e):
    return d, e, 1


def _fail_pttrs(d, e, b, **kwargs):
    return b, -1


@pytest.mark.parametrize("name,fake,routine", [
    ("dpttrf", _fail_pttrf, "pttrf info=1"),
    ("dpttrs", _fail_pttrs, "pttrs info=-1"),
], ids=["factor", "solve"])
def test_lapack_failure_of_the_per_mode_operator_is_numerical_failure(
        tmp_path, capsys, monkeypatch, name, fake, routine):
    # the guards on LAPACK's info of the tridiagonal factor and its solves
    monkeypatch.setattr(spiralnls.grid, name, fake)
    code = run_cli(["solve-ground", "--p", "4", "--q", "1", "--lambda", "1", "--R", "4",
                    "--nr", "24", "--ntheta", "8", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
    assert routine in captured.err


def test_check_rejects_nehari_scaled_non_solution(tmp_path, capsys):
    # on the Nehari set, yet far from solving the equation
    grid = build_grid(8.0, 48, 16, SectorKind.full_disk())
    params = ModelParams(p=4.0, q=1, lam=2.0)
    vals = np.abs(np.random.default_rng(20200909).standard_normal((48, 16)))
    field = Field(grid, vals)
    field = Field(grid, nehari_scale(field, params) * vals)
    path = tmp_path / "random.csv"
    save_solution(path, field, params)
    assert run_cli(["check", str(path)]) == EXIT_CHECK
    message = capsys.readouterr().out
    assert "euler-lagrange-residual" in message
    assert "nehari-residual" not in message


# after three bad values: two seed kinds that do not exist, two seeds that
# change sign on the disk, where a ground solve needs one sign, a --set with
# no value and the removed iteration cap
@pytest.mark.parametrize("bad", [["--p", "1.5"], ["--nr", "abc"], ["--ntheta", "7"],
                                 ["--seed", "bogus"], ["--seed", "custom"],
                                 ["--seed", "dipole"], ["--seed", "radial-nodal"],
                                 ["--set", "foo"], ["--set", "max_iters=5"]])
def test_bad_parameters_are_usage_errors(tmp_path, capsys, bad):
    code = run_cli(["solve-ground", "--out-dir", str(tmp_path)] + bad)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [
    ["--p", "inf"], ["--lambda", "1e-300"], ["--lambda", "inf"], ["--R", "inf"],
    ["--grad_tol", "inf"],
], ids=lambda bad: f"{bad[0][2:]}={bad[1]}")
def test_degenerate_parameters_are_usage_errors(tmp_path, capsys, bad):
    code = run_cli(["solve-ground", "--R", "8", "--nr", "32", "--ntheta", "8",
                    "--out-dir", str(tmp_path)] + bad)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["newton", "step", "extent", "check_tol"])
def test_fixed_settings_are_unknown_keys(tmp_path, capsys, key):
    # the solve policy, the volume extent and check's tolerance are not settable
    code = run_cli(["check", "--set", f"{key}=1", "--out-dir", str(tmp_path),
                    str(tmp_path / "absent.csv")])
    assert code == EXIT_USAGE
    assert f"unknown override key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sweep", "--lambdas", "1e-300"],
    ["sweep", "--lambdas", "inf,1"],
    ["sweep", "--lambdas", "2,1"],
    ["asympt-inf", "--sector", "half", "--lambdas", "nan"],
    ["asympt-zero", "--sector", "half", "--lambdas", "1,-0.5"],
], ids=lambda args: f"{args[0]}:{args[-1]}")
def test_bad_pitch_lists_are_usage_errors(tmp_path, capsys, monkeypatch, args):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the pitch list was checked")
    for study in ("sweep_lambda", "asymptotics_infinity", "asymptotics_zero"):
        monkeypatch.setattr(cli, study, no_solve)
    code = run_cli(args + ["--R", "8", "--nr", "32", "--ntheta", "8",
                           "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_grid_too_large_for_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr("spiralnls.io.build_grid", out_of_memory)
    code = run_cli(["solve-ground", "--nr", "100000000000", "--ntheta", "8",
                    "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "100000000000x8" in err


@pytest.mark.parametrize("argv", [
    ["solve-ground", "--sector", "half"],
    ["asympt-inf", "--lambdas", "5"],      # the full-disk config solved on the half disk
    ["solve-nodal"],
], ids=["solve-ground", "asympt-inf", "solve-nodal"])
def test_sine_matrix_too_large_for_memory_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # 30000 angular nodes fit on 8 radii, but the 30000 x 30000 transform
    # matrix of a sector or of the disk would take 7.2 GB; the fake keeps the
    # test from asking for it
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr("spiralnls.grid._transform_matrices", out_of_memory)
    code = run_cli(argv + ["--nr", "8", "--ntheta", "30000", "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "8x30000" in err


@pytest.mark.parametrize("sizes,named", [
    (["--nt", "1"], "nt=1"),
    (["--nxy", "1"], "nxy=1"),
    (["--nxy", "1000000", "--nt", "4"], "1000000x1000000x4"),
], ids=["nt=1", "nxy=1", "too-large"])
def test_bad_volume_sizes_are_usage_errors(tmp_path, capsys, monkeypatch, sizes, named):
    # a real 10^6 x 10^6 volume would ask numpy for 7.3 TiB; the fake keeps the
    # test from depending on how the host answers such a request
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("spiralnls.cli.reconstruct3d", out_of_memory)
    grid = build_grid(4.0, 6, 4, SectorKind.full_disk())
    path = tmp_path / "sol.csv"
    save_solution(path, Field(grid, np.ones((6, 4))), ModelParams(p=4.0, q=1, lam=1.0))
    code = run_cli(["reconstruct", str(path), "--out-dir", str(tmp_path)] + sizes)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "sol.vtk").exists()


def test_calls_share_the_parser_but_no_state(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli._build_parser() is cli._build_parser()
    assert run_cli(["solve-radial", "--set", "bogus=1", "--out-dir", out]) == EXIT_USAGE
    assert run_cli(["solve-radial", "--p", "3", "--out-dir", out]) == EXIT_OK
    assert cli._build_parser().parse_args(["solve-radial"]).overrides == []
    assert run_cli(["solve-radial", "--no-such-option"]) == EXIT_USAGE
    capsys.readouterr()


def test_malformed_solution_is_usage_error(tmp_path, capsys):
    grid = build_grid(4.0, 6, 4, SectorKind.full_disk())
    path = tmp_path / "sol.csv"
    save_solution(path, Field(grid, np.ones((6, 4))), ModelParams(p=4.0, q=1, lam=1.0))
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-3]))
    assert "3 rows of 4 values, expected 6 rows of 4" in _usage_error(capsys, ["check", str(path)])


def test_check_of_a_field_whose_powers_overflow_is_numerical_failure(tmp_path, capsys):
    # finite values whose p-th powers overflow: one line on stderr and exit 3,
    # with no numpy warning on the way, and the check leaves numpy's
    # floating-point settings as it found them
    grid = build_grid(4.0, 24, 8, SectorKind.full_disk())
    path = tmp_path / "big.csv"
    save_solution(path, Field(grid, np.full((24, 8), 1e200)), ModelParams(p=4.0, q=1, lam=1.0))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["check", str(path)]) == EXIT_NUMERICAL
    assert np.geterr() == before
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("value,code,words", [
    (1e-170, EXIT_NUMERICAL, "underflows"),
    (0.0, EXIT_NUMERICAL, "manifold_residual of the zero field"),
    (1e-150, EXIT_CHECK, None),
], ids=["underflow", "zero", "tiny"])
def test_check_tells_an_underflowing_field_from_the_zero_field(tmp_path, capsys, value, code,
                                                               words):
    # at 1e-170 the squares underflow, so the squared norm reads 0 of a field
    # that is not zero; at 1e-150 they do not, and the field fails its checks
    grid = build_grid(4.0, 24, 8, SectorKind.full_disk())
    path = tmp_path / "tiny.csv"
    save_solution(path, Field(grid, np.full((24, 8), value)), ModelParams(p=4.0, q=1, lam=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["check", str(path)]) == code
    captured = capsys.readouterr()
    if words is None:
        assert captured.out.startswith("check: FAIL") and captured.err == ""
        return
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
    assert words in captured.err and captured.out == ""
    assert ("zero field" in captured.err) == (value == 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_solution_is_usage_error(tmp_path, capsys, bad):
    # load_solution rejects the file before check evaluates any invariant
    grid = build_grid(4.0, 6, 4, SectorKind.full_disk())
    vals = np.ones((6, 4))
    vals[2, 1] = bad
    path = tmp_path / "sol.csv"
    save_solution(path, Field(grid, vals), ModelParams(p=4.0, q=1, lam=1.0))
    assert run_cli(["check", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "non-finite values" in captured.err
    assert captured.out == ""


def test_identical_runs_write_identical_manifests(tmp_path, capsys):
    out = str(tmp_path / "out")
    manifest = tmp_path / "out" / "radial_p4_k0_manifest.json"
    texts = []
    for _ in range(2):
        assert run_cli(["solve-radial", "--p", "4", "--out-dir", out]) == EXIT_OK
        texts.append(manifest.read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]
    assert set(json.loads(texts[0])["environment"]) >= {"python", "numpy", "scipy"}


def test_config_file_with_trace(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a traced solve\nkeep_trace = true\nsector = half\n")
    out = tmp_path / "out"
    code = run_cli(["solve-ground", "--config", str(cfg), "--lambda", "2",
                    "--out-dir", str(out)] + ARGS_SMALL)
    assert code == EXIT_OK
    capsys.readouterr()
    lines = (out / "ground_p4_q1_lam2_trace.csv").read_text().splitlines()
    assert lines[0] == "iter,energy,grad_norm"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) > 1 and [row[0] for row in rows] == list(range(1, len(rows) + 1))
    energies = [row[1] for row in rows]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    manifest = json.loads((out / "ground_p4_q1_lam2_manifest.json").read_text())
    assert manifest["config"]["keep_trace"] == "true"


def test_check_of_a_missing_file_is_io_error(tmp_path, capsys):
    assert run_cli(["check", str(tmp_path / "absent.csv")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and err.count("\n") == 1


def _usage_error(capsys, argv):
    assert run_cli(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    return captured.err


def test_non_ascii_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("p = 4.0 é\n".encode("utf-8"))
    err = _usage_error(capsys, ["solve-radial", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert str(cfg) in err


def _solution_bytes(tmp_path, nr=6):
    grid = build_grid(4.0, nr, 4, SectorKind.full_disk())
    path = tmp_path / "sol.csv"
    save_solution(path, Field(grid, np.linspace(1.0, 2.0, nr * 4).reshape(nr, 4)),
                  ModelParams(p=4.0, q=1, lam=1.0))
    return path, path.read_bytes()


def test_non_ascii_solution_header_is_usage_error(tmp_path, capsys):
    path, data = _solution_bytes(tmp_path)
    path.write_bytes(data.replace(b"# sector = full", "# sector = full é".encode("utf-8")))
    assert str(path) in _usage_error(capsys, ["check", str(path)])


def test_non_ascii_byte_deep_in_the_value_block_is_usage_error(tmp_path, capsys):
    # past the first buffered read of the header loop
    path, data = _solution_bytes(tmp_path, nr=2000)
    at = data.index(b",", 100_000) + 2      # a digit of a value
    path.write_bytes(data[:at] + b"\xe9" + data[at + 1:])
    assert str(path) in _usage_error(capsys, ["check", str(path)])


def test_stray_solution_header_line_is_usage_error(tmp_path, capsys):
    path, data = _solution_bytes(tmp_path)
    path.write_bytes(data.replace(b"# p = ", b"bogus line\n# p = ", 1))
    # the value block starts at the first line that is not a comment
    err = _usage_error(capsys, ["check", str(path)])
    assert err.startswith(f"config error: {path}: header lacks p, q, lambda")


def test_solution_without_value_block_is_usage_error(tmp_path, capsys):
    path, data = _solution_bytes(tmp_path)
    path.write_bytes(data[:data.index(b"\n", data.index(b"# ntheta")) + 1])
    assert _usage_error(capsys, ["check", str(path)]).endswith(f"{path}: missing value block\n")


def test_unknown_sector_is_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, ["solve-ground", "--sector", "wedge", "--out-dir", str(tmp_path)])
    assert err == "config error: unknown sector 'wedge'\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra", ["junk", "1.0"])
def test_solution_row_with_an_extra_field_is_usage_error(tmp_path, capsys, extra):
    path, data = _solution_bytes(tmp_path)
    lines = data.decode("ascii").splitlines(keepends=True)
    first = 8     # the magic line and the seven header keys
    if extra == "junk":
        lines[first] = lines[first].rstrip("\n") + ",junk\n"
    else:
        lines[first:] = [line.rstrip("\n") + ",1.0\n" for line in lines[first:]]
    path.write_text("".join(lines))
    _usage_error(capsys, ["check", str(path)])


_V1_SOLUTION = ("# spiralnls-solution v1\n# p = 4.0\n# q = 1\n# lambda = 1.0\n"
                "# sector = full\n# R = 4.0\n# nr = 2\n# ntheta = 4\nj,k,value\n"
                + "".join(f"{j},{k},1.0\n" for j in range(2) for k in range(4)))


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:9] + [lines[9].rsplit(",", 1)[0] + "\n"] + lines[10:],
     "the number of columns changed from 4 to 3"),
    (lambda lines: lines + lines[-2:], "8 rows of 4 values, expected 6 rows of 4"),
    (lambda lines: [ln for ln in lines if not ln.startswith("# nr =")], "header lacks nr"),
    (lambda lines: [_V1_SOLUTION], "not a spiralnls-solution v2 file"),
], ids=["ragged-row", "too-many-rows", "missing-header-key", "v1-file"])
def test_malformed_solution_layout_is_usage_error(tmp_path, capsys, edit, message):
    path, data = _solution_bytes(tmp_path)
    path.write_text("".join(edit(data.decode("ascii").splitlines(keepends=True))))
    assert message in _usage_error(capsys, ["check", str(path)])


@pytest.mark.parametrize("argv", [
    ["asympt-inf", "--lambdas", "3", "--R", "16", "--nr", "64"],
    ["asympt-zero", "--lambdas", "1", "--R", "6", "--nr", "24"],
], ids=["asympt-inf", "asympt-zero"])
def test_unconverged_asymptotic_study_is_numerical_failure(tmp_path, capsys, solve_budget,
                                                           argv):
    solve_budget(1)
    code = run_cli(argv + ["--sector", "half", "--ntheta", "8", "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: not converged after 1 iterations\n"
    assert not any(tmp_path.glob("asympt_*.csv"))


def test_negative_node_count_is_usage_error(tmp_path, capsys):
    assert "--nodes" in _usage_error(capsys, ["solve-radial", "--nodes", "-1",
                                              "--out-dir", str(tmp_path)])
    assert run_cli(["solve-radial", "--nodes", "0", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert "k=0" in capsys.readouterr().out
    assert (tmp_path / "radial_p4_k0.json").exists()


_CHECK_DISK = build_grid(8.0, 48, 16, SectorKind.full_disk())
_CHECK_HALF = build_grid(8.0, 48, 16, SectorKind.half_disk())


def _two_signed_on_the_nehari_set(params):
    # on N_lam as a whole, but neither signed part is on its own Nehari set
    u = field_from_polar(_CHECK_DISK, lambda r, t: np.exp(-r**2)
                         - 0.3 * np.exp(-(r - 2.0) ** 2) * np.cos(t) ** 2)
    return Field(_CHECK_DISK, nehari_scale(u, params) * u.values)


@pytest.mark.parametrize("make,lam,line", [
    (_two_signed_on_the_nehari_set, 1.0, "nodal-nehari-residual"),
    (lambda params: field_from_polar(
        _CHECK_DISK, lambda r, t: 0.1 * np.exp(-r**2) * (1.0 + 0.5 * np.cos(t))),
     1.0, "radiality-threshold"),
    (lambda params: field_from_polar(
        _CHECK_HALF, lambda r, t: np.exp(-r**2) * (1.2 + np.cos(4.0 * t)) * np.cos(t)),
     2.0, "angular-monotonicity"),
], ids=["nodal-nehari-residual", "radiality-threshold", "angular-monotonicity"])
def test_check_fails_on_its_named_line(tmp_path, capsys, make, lam, line):
    params = ModelParams(p=4.0, q=1, lam=lam)
    path = tmp_path / "crafted.csv"
    save_solution(path, make(params), params)
    assert run_cli(["check", str(path)]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert out.startswith("check: FAIL") and line in out


def _cone_solution(tmp_path):
    grid = build_grid(8.0, 24, 8, SectorKind.cone(1.0))
    path = tmp_path / "cone.csv"
    save_solution(path, field_from_polar(grid, lambda r, t: np.exp(-r**2) * np.cos(t)),
                  ModelParams(p=4.0, q=1, lam=2.0))
    return str(path)


# inputs outside a study's or a solve's scope, which the library rejects
@pytest.mark.parametrize("argv", [
    lambda tmp: ["solve-nodal", "--sector", "half"],
    lambda tmp: ["solve-nodal", "--sector", "cone:0.5"],
    lambda tmp: ["sweep", "--q", "0"],
    lambda tmp: ["sweep", "--sector", "half", "--lambdas", "1"],
    lambda tmp: ["asympt-inf", "--q", "0"],
    lambda tmp: ["asympt-zero", "--q", "0", "--sector", "half"],
    lambda tmp: ["asympt-zero", "--sector", "half", "--lambdas", "2"],
    lambda tmp: ["reconstruct", _cone_solution(tmp)],
], ids=["nodal-half", "nodal-cone", "sweep-q0", "sweep-half", "asympt-inf-q0", "asympt-zero-q0",
        "asympt-zero-pitch-2", "reconstruct-cone"])
def test_out_of_scope_inputs_are_usage_errors(tmp_path, capsys, argv):
    _usage_error(capsys, argv(tmp_path) + ["--R", "8", "--nr", "24", "--ntheta", "8",
                                           "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("ntheta", ["30", "4", "6", "10"])
def test_sweep_needs_ntheta_divisible_by_four(tmp_path, capsys, ntheta):
    # the dipole row's half disk needs disk nodes on both rays
    err = _usage_error(capsys, ["sweep", "--R", "8", "--nr", "24", "--ntheta", ntheta,
                                "--lambdas", "1", "--out-dir", str(tmp_path / "out")])
    assert "divisible by 4 and at least 8" in err and f"got {ntheta}" in err


@pytest.mark.parametrize("argv", [
    ["solve-radial", "--p", "200"],
    ["asympt-inf", "--p", "200", "--sector", "half", "--lambdas", "5"],
], ids=["solve-radial", "asympt-inf"])
def test_overflow_in_the_radial_oracle_is_numerical_failure(tmp_path, capsys, argv):
    code = run_cli(argv + ["--R", "8", "--nr", "24", "--ntheta", "8",
                           "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "p=200" in err


@pytest.mark.parametrize("argv", [
    ["asympt-inf", "--lambdas", "3", "--R", "16", "--nr", "64"],
    ["asympt-zero", "--lambdas", "1", "--R", "8", "--nr", "32"],
], ids=["asympt-inf", "asympt-zero"])
def test_asymptotic_studies_of_the_full_disk_build_one_half_disk(
        tmp_path, capsys, monkeypatch, argv):
    real = sio.build_grid
    built = []
    monkeypatch.setattr(sio, "build_grid", lambda R, nr, ntheta, sector:
                        built.append(sector.label()) or real(R, nr, ntheta, sector))
    code = run_cli(argv + ["--ntheta", "8", "--grad_tol", "1e-6",
                           "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert built == ["half"]
    capsys.readouterr()


def test_check_creates_no_output_directory(tmp_path, capsys, monkeypatch):
    path, _ = _solution_bytes(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("SPIRALNLS_OUTDIR", raising=False)
    assert run_cli(["check", str(path)]) == EXIT_CHECK    # not a solution, but read and checked
    capsys.readouterr()
    assert list(work.iterdir()) == []
