"""Command-line driver.

Subcommands: solve-ground, solve-nodal, solve-radial, sweep, asympt-inf,
asympt-zero, reconstruct, check.  Each run reads an optional config file,
applies --key value overrides, writes its JSON/CSV artifacts plus a manifest
into the output directory, and prints a one-line summary.  Exit codes:
0 success, 2 usage, 3 numerical failure, 4 check failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import io as sio
from .diagnostics import RADIAL_TOL, symmetry_report
from .energy import energy, gradient, lambda_norm
from .errors import ConfigError, SpiralError
from .minimize import SEED_RADIAL, SEED_RADIAL_NODAL, solve_ground, solve_nodal
from .nehari import manifold_residual
from .radial import profile_identities, shoot_ground, shoot_nodal
from .spiral3d import export_vtk, reconstruct3d
from .studies import (
    asymptotics_infinity,
    asymptotics_zero,
    limit_radius_study,
    sweep_lambda,
    transition_bracket,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4
EXIT_IO = 5
CHECK_TOL = 1e-5   # bound of check's Nehari and Euler-Lagrange residuals

# config keys that also have a --key option
_OPTION_KEYS = ("p", "q", "lambda", "sector", "R", "nr", "ntheta", "seed",
                "grad_tol", "lambdas", "nt", "nxy")


@functools.cache
def _build_parser():
    """The argument parser, built once per process and shared by all calls.

    argparse copies the --set list default per parse, so calls share no state.
    """
    top = argparse.ArgumentParser(
        prog="spiralnls",
        description="Spiraling nonlinear Schrodinger solver on polar domains.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out-dir", dest="out_dir", help="output directory "
                       f"(default: ${sio.ENV_OUTDIR} or ./runs)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        for key in _OPTION_KEYS:
            p.add_argument(f"--{key}", dest=f"opt_{key}", default=None)

    for name in _COMMANDS:   # the command table below
        p = sub.add_parser(name)
        common(p)
        if name == "solve-radial":
            p.add_argument("--nodes", type=int, default=0,
                           help="interior sign changes (0 = ground state)")
        if name in ("reconstruct", "check"):
            p.add_argument("solution", help="stored solution CSV")
    return top


def _config_from(args) -> sio.RunConfig:
    text = ""
    if args.config:
        with open(args.config, encoding="ascii") as fh, sio.as_config_error(f"{args.config}: "):
            text = fh.read()
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for key in _OPTION_KEYS:
        val = getattr(args, f"opt_{key}", None)
        if val is not None:
            overrides[key] = val
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    return sio.parse_config(text, overrides)


def _run_solve(cfg: sio.RunConfig, args) -> int:
    params = cfg.model_params()
    grid = cfg.grid()
    scfg = cfg.solve_config()
    out = sio.resolve_out_dir(cfg)
    if args.command == "solve-ground":
        report = solve_ground(grid, params, scfg)
    else:
        if scfg.seed == SEED_RADIAL:   # positive seed cannot start a nodal run
            scfg = dataclasses.replace(scfg, seed=SEED_RADIAL_NODAL)
        report = solve_nodal(grid, params, scfg)
    tag = args.command.replace("solve-", "")
    base = os.path.join(out, f"{tag}_p{params.p:g}_q{int(params.q)}_lam{params.lam:g}")
    sio.write_json(base + ".json", sio.report_dict(report, params))
    sio.save_solution(base + ".csv", report.field, params)
    outputs = [base + ".json", base + ".csv"]
    if report.trace:
        sio.write_csv(base + "_trace.csv", ["iter", "energy", "grad_norm"],
                      report.trace)
        outputs.append(base + "_trace.csv")
    sio.write_manifest(base + "_manifest.json", args.command, cfg, outputs)
    print(f"{args.command}: E={report.energy.total:.8g} converged={report.converged} "
          f"iters={report.iterations} -> {base}.json")
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def _run_radial(cfg: sio.RunConfig, args) -> int:
    nodes = args.nodes
    if nodes < 0:
        raise ConfigError(f"--nodes must be at least 0, got {nodes}")
    p = cfg.model_params().p
    out = sio.resolve_out_dir(cfg)
    profile = shoot_ground(p) if nodes == 0 else shoot_nodal(p, nodes)
    ident = profile_identities(profile)
    base = os.path.join(out, f"radial_p{p:g}_k{nodes}")
    sio.write_csv(base + ".csv", ["r", "u", "du"],
                  list(zip(profile.radii, profile.values, profile.slopes)))
    sio.write_json(base + ".json", {
        "p": p, "nodes": nodes, "amplitude": profile.amplitude,
        "energy": profile.energy, "mass": profile.mass,
        "pohozaev_rel": ident["pohozaev"], "nehari_rel": ident["nehari"],
        "search_shots": profile.search_shots, "search_steps": profile.search_steps,
    })
    sio.write_manifest(base + "_manifest.json", "solve-radial", cfg,
                       [base + ".csv", base + ".json"])
    print(f"solve-radial: p={p:g} k={nodes} E={profile.energy:.8g} "
          f"u(0)={profile.amplitude:.8g} -> {base}.json")
    return EXIT_OK


def _run_sweep(cfg: sio.RunConfig, args) -> int:
    lambdas = cfg.pitches((0.05, 0.5, 5.0, 50.0), increasing=True)
    out = sio.resolve_out_dir(cfg)
    records = sweep_lambda(cfg.model_params(), lambdas, cfg.grid(),
                           cfg.solve_config())
    lo, hi, crossings = transition_bracket(records)
    base = os.path.join(out, "sweep")
    sio.write_csv(base + ".csv",
                  ["lambda", "alpha_hat", "beta_hat", "c_hat", "nonradiality",
                   "winner", "tau", "beta_dipole", "beta_radial"],
                  [(r.lam, r.alpha_hat, r.beta_hat, r.c_hat, r.nonradiality,
                    r.winner, r.tau, r.beta_dipole, r.beta_radial)
                   for r in records])
    sio.write_json(base + ".json", {
        "bracket_low": None if math.isnan(lo) else lo,
        "bracket_high": None if math.isnan(hi) else hi,
        "winner_crossings": crossings,
        "failures": [list(r.failures) for r in records],
    })
    sio.write_manifest(base + "_manifest.json", "sweep", cfg,
                       [base + ".csv", base + ".json"])
    print(f"sweep: bracket=({lo:g}, {hi:g}) crossings={crossings} -> {base}.csv")
    failed = any(r.failures for r in records)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _run_asympt_inf(cfg: sio.RunConfig, args) -> int:
    lambdas = cfg.pitches((5.0, 10.0, 20.0, 40.0))
    grid = cfg.sector_grid()   # both studies live on a sector
    out = sio.resolve_out_dir(cfg)
    records = asymptotics_infinity(cfg.model_params(), lambdas, grid,
                                   cfg.solve_config())
    base = os.path.join(out, "asympt_inf")
    sio.write_csv(base + ".csv",
                  ["lambda", "tau", "tau_over_lambda", "h1_gap_rel", "c_hat"],
                  [(r.lam, r.tau, r.tau_over_lambda, r.h1_gap_rel, r.c_hat)
                   for r in records])
    sio.write_manifest(base + "_manifest.json", "asympt-inf", cfg, [base + ".csv"])
    print(f"asympt-inf: final tau={records[-1].tau:.4g} "
          f"gap={records[-1].h1_gap_rel:.3%} -> {base}.csv")
    return EXIT_OK


def _run_asympt_zero(cfg: sio.RunConfig, args) -> int:
    lambdas = cfg.pitches((1.0, 0.5, 0.25, 0.125))
    grid = cfg.sector_grid()   # both studies live on a sector
    out = sio.resolve_out_dir(cfg)
    records, limit = asymptotics_zero(cfg.model_params(), lambdas, grid,
                                      cfg.solve_config())
    base = os.path.join(out, "asympt_zero")
    sio.write_csv(base + ".csv",
                  ["lambda", "c_lambda", "j_lambda", "j_direct",
                   "identity_rel", "limit_gap"],
                  [(r.lam, r.c_lambda, r.j_lambda, r.j_direct, r.identity_rel,
                    r.limit_gap) for r in records])
    # the limit problem has no known decay rate; report truncation sensitivity
    e1, e2, rel = limit_radius_study(cfg.model_params(), limit, cfg.solve_config())
    sio.write_json(base + ".json", {
        "limit_level": e1, "limit_level_wide_domain": e2,
        "radius_sensitivity_rel": rel,
    })
    sio.write_manifest(base + "_manifest.json", "asympt-zero", cfg,
                       [base + ".csv", base + ".json"])
    print(f"asympt-zero: final gap={records[-1].limit_gap:.3%} "
          f"(R-sensitivity {rel:.1e}) -> {base}.csv")
    return EXIT_OK


def _run_reconstruct(cfg: sio.RunConfig, args) -> int:
    nt, nxy = cfg.volume_samples()
    field, params = sio.load_solution(args.solution)
    try:
        vol = reconstruct3d(field, params, nt=nt, nxy=nxy)
    except MemoryError:
        raise ConfigError(f"a {nxy}x{nxy}x{nt} volume does not fit in memory") from None
    out = sio.resolve_out_dir(cfg)
    base = os.path.join(out, os.path.splitext(os.path.basename(args.solution))[0])
    vtk_path = base + ".vtk"
    export_vtk(vol, vtk_path)
    sio.write_manifest(base + "_reconstruct_manifest.json", "reconstruct", cfg,
                       [vtk_path])
    print(f"reconstruct: {vol.nx}x{vol.ny}x{vol.nt} volume -> {vtk_path}")
    return EXIT_OK


def _run_check(cfg: sio.RunConfig, args) -> int:
    field, params = sio.load_solution(args.solution)
    failures = []

    res = manifold_residual(field, params)
    if abs(res.single) > CHECK_TOL:
        failures.append(f"nehari-residual ({res.single:.2e})")
    if field.grid.sector.is_full and not (math.isnan(res.plus) or math.isnan(res.minus)):
        worst = max(abs(res.plus), abs(res.minus))
        if not worst <= CHECK_TOL:
            failures.append(f"nodal-nehari-residual ({worst:.2e})")
    el = lambda_norm(gradient(field, params)[0], params) / lambda_norm(field, params)
    if not el <= CHECK_TOL:
        failures.append(f"euler-lagrange-residual ({el:.2e})")
    sym = symmetry_report(field, params)
    if not sym.wirtinger_ok:
        failures.append("wirtinger")
    if sym.below_threshold and sym.nonradiality >= RADIAL_TOL:
        failures.append(f"radiality-threshold (nonradiality {sym.nonradiality:.2e})")
    if not field.grid.sector.is_full and field.grid.quad(
            np.abs(field.values)) > 0 and np.all(field.values >= 0):
        if sym.angular_monotone is False:
            failures.append("angular-monotonicity")

    if failures:
        print(f"check: FAIL {args.solution}: " + "; ".join(failures))
        return EXIT_CHECK
    print(f"check: OK {args.solution} (E={energy(field, params).total:.8g}, "
          f"residual={res.single:.2e}, euler-lagrange={el:.2e})")
    return EXIT_OK


# command -> handler(config, parsed arguments) -> exit code, in help-text order
_COMMANDS = {
    "solve-ground": _run_solve,
    "solve-nodal": _run_solve,
    "solve-radial": _run_radial,
    "sweep": _run_sweep,
    "asympt-inf": _run_asympt_inf,
    "asympt-zero": _run_asympt_zero,
    "reconstruct": _run_reconstruct,
    "check": _run_check,
}


def run_cli(argv=None) -> int:
    """Run one command; exit codes follow exception kinds, and any ValueError is bad input."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](_config_from(args), args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SpiralError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
