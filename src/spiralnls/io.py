"""Run configuration, solution persistence, and report serialization.

Config files are flat key-value text (``key = value``, ``#`` comments);
unknown keys are rejected so typos cannot silently fall back to defaults.
A solution file is a typed header block carrying the grid and model
parameters, then one comma-separated line per radial node holding that
node's angular values in order; values print with full round-trip
precision, so save/load is bit-exact.  Reports and manifests are plain
JSON; a manifest also records the Python, numpy and scipy versions and the
BLAS thread settings.  Every artifact is written to a temporary file beside
its target and renamed over it, so a failed write leaves the previous file
in place.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np
import scipy

from .diagnostics import SymmetryReport, symmetry_report
from .energy import h1_norm_sq, lp_integral
from .errors import ConfigError
from .grid import Field, ModelParams, PolarGrid, build_grid, sector_from_label
from .minimize import SolveConfig, SolveReport
from .nehari import manifold_residual

ENV_OUTDIR = "SPIRALNLS_OUTDIR"
ARTIFACT_VERSION = "spiralnls 0.1.0"
SOLUTION_MAGIC = "# spiralnls-solution v2"
_HEADER_KEYS = ("p", "q", "lambda", "sector", "R", "nr", "ntheta")
# BLAS thread settings recorded in manifests: results depend on the thread count
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {text!r}") from None


def _parse_floats(text: str):
    return tuple(float(x) for x in text.replace(",", " ").split())


# key -> (parser, default); None default means "must be set by the command"
_SCHEMA = {
    "p": (float, 4.0),
    "q": (int, 1),
    "lambda": (float, 1.0),
    "sector": (str, "full"),
    "R": (float, 30.0),
    "nr": (int, 512),
    "ntheta": (int, 64),
    "max_iters": (int, 2000),
    "grad_tol": (float, 1e-8),
    "seed": (str, "radial"),
    "keep_trace": (_parse_bool, False),
    "lambdas": (_parse_floats, ()),
    "nt": (int, 32),
    "nxy": (int, 48),
    "out_dir": (str, ""),
}


@contextmanager
def as_config_error(where: str):
    """Turn a ValueError, such as a failed validation, into a ConfigError prefixed by where."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None


@dataclass(frozen=True)
class RunConfig:
    entries: dict

    def __getitem__(self, key):
        return self.entries[key]

    def model_params(self) -> ModelParams:
        return ModelParams(p=self["p"], q=self["q"], lam=self["lambda"])

    def grid(self, sector: str = "") -> PolarGrid:
        """The configured grid, on the given sector label if one is named."""
        return _grid(self["R"], self["nr"], self["ntheta"], sector or self["sector"])

    def sector_grid(self) -> PolarGrid:
        """The configured grid, on the half disk if the configured sector is the full disk."""
        return self.grid("half" if sector_from_label(self["sector"]).is_full else "")

    def volume_samples(self) -> tuple:
        """(nt, nxy) of a reconstructed volume, each at least 2."""
        nt, nxy = self["nt"], self["nxy"]
        if nt < 2 or nxy < 2:
            raise ConfigError(f"nt and nxy must be at least 2, got nt={nt}, nxy={nxy}")
        return nt, nxy

    def pitches(self, default: tuple, increasing: bool = False) -> tuple:
        """The --lambdas list (else default), each entry valid for ModelParams."""
        lambdas = self["lambdas"] or default
        params = self.model_params()
        for lam in lambdas:
            with as_config_error("bad pitch in lambdas: "):
                dataclasses.replace(params, lam=lam)
        if increasing and any(b <= a for a, b in zip(lambdas, lambdas[1:])):
            raise ConfigError(f"lambdas must be strictly increasing, got {lambdas}")
        return lambdas

    def solve_config(self) -> SolveConfig:
        return SolveConfig(
            max_iters=self["max_iters"], grad_tol=self["grad_tol"],
            seed=self["seed"], keep_trace=self["keep_trace"],
        )


def _grid(R: float, nr: int, ntheta: int, sector: str) -> PolarGrid:
    """build_grid, reporting a grid too large to allocate as a ConfigError."""
    try:
        return build_grid(R, nr, ntheta, sector_from_label(sector))
    except MemoryError:
        raise ConfigError(f"a {nr}x{ntheta} grid does not fit in memory") from None


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse config text; overrides (e.g. from CLI flags) win over file values."""
    entries = {key: default for key, (_, default) in _SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        with as_config_error(f"line {lineno}: bad value for {key}: "):
            entries[key] = _SCHEMA[key][0](value)
    for key, value in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        if isinstance(value, str):
            with as_config_error(f"bad value for {key}: "):
                value = _SCHEMA[key][0](value)
        entries[key] = value
    return RunConfig(entries)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(x)) for x in value)
    return str(value)


def resolve_out_dir(cfg: RunConfig) -> str:
    out = cfg["out_dir"] or os.environ.get(ENV_OUTDIR, "") or "runs"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------- solutions

@contextmanager
def replacing(path):
    """Text handle on a temporary file beside path that replaces path on success.

    A writer that fails leaves the previous file intact and no temporary
    file behind.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_solution(path, field: Field, params: ModelParams) -> None:
    grid = field.grid
    sector = grid.sector
    with replacing(path) as fh:
        fh.write(SOLUTION_MAGIC + "\n")
        fh.write(f"# p = {params.p!r}\n")
        fh.write(f"# q = {int(params.q)}\n")
        fh.write(f"# lambda = {params.lam!r}\n")
        fh.write(f"# sector = {sector.label()}\n")
        fh.write(f"# R = {grid.R!r}\n")
        fh.write(f"# nr = {grid.nr}\n")
        fh.write(f"# ntheta = {grid.ntheta}\n")
        # one %-format per radial row, %r of a float being its repr
        values = field.values.astype(float, copy=False)
        row = ",".join(["%r"] * grid.ntheta) + "\n"
        for j in range(grid.nr):
            fh.write(row % tuple(values[j].tolist()))


def load_solution(path):
    """Read a solution file back into (Field, ModelParams); bit-exact.

    A byte that is not ASCII, a magic line of another version, a header key
    that is missing or invalid, a value block that is absent or malformed
    or not nr rows of ntheta values, and a non-finite value are all
    ConfigErrors.
    """
    meta = {}
    with open(path, encoding="ascii") as fh, as_config_error(f"{path}: "):
        if fh.readline().rstrip("\n") != SOLUTION_MAGIC:
            raise ConfigError(f"not a {SOLUTION_MAGIC[2:]} file")
        while True:
            block = fh.tell()
            line = fh.readline()
            if not line:
                raise ConfigError("missing value block")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            elif line.strip():
                break
        missing = [key for key in _HEADER_KEYS if key not in meta]
        if missing:
            raise ConfigError(f"header lacks {', '.join(missing)}")
        grid = _grid(float(meta["R"]), int(meta["nr"]), int(meta["ntheta"]), meta["sector"])
        params = ModelParams(p=float(meta["p"]), q=int(meta["q"]), lam=float(meta["lambda"]))
        fh.seek(block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # empty value block
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.shape != (grid.nr, grid.ntheta):
        raise ConfigError(f"{path}: value block has {values.shape[0]} rows of "
                          f"{values.shape[1]} values, expected {grid.nr} rows of {grid.ntheta}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: non-finite values")
    return Field(grid, values), params


# ------------------------------------------------------------------ reports

def _clean(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def breakdown_dict(b) -> dict:
    return {"dirichlet": b.dirichlet, "angular": b.angular, "mass": b.mass,
            "potential": b.potential, "total": b.total}


def symmetry_dict(rep: SymmetryReport) -> dict:
    return {
        "nonradiality": rep.nonradiality,
        "linf": rep.linf,
        "radiality_threshold": _clean(rep.radiality_threshold
                                      if math.isfinite(rep.radiality_threshold)
                                      else math.nan),
        "below_threshold": rep.below_threshold,
        "angular_monotone": rep.angular_monotone,
        "wirtinger_ok": rep.wirtinger_ok,
    }


def report_dict(report: SolveReport, params: ModelParams) -> dict:
    """The report JSON: the solve's own numbers, plus the manifold residuals,
    norms and the rest of the symmetry diagnostics of its field, computed here."""
    u = report.field
    grid = u.grid
    res = manifold_residual(u, params)
    out = {
        "params": {"p": params.p, "q": int(params.q), "lambda": params.lam},
        "grid": {"R": grid.R, "nr": grid.nr, "ntheta": grid.ntheta,
                 "sector": grid.sector.label()},
        "energy": breakdown_dict(report.energy),
        "nehari": {"single": _clean(res.single), "plus": _clean(res.plus),
                   "minus": _clean(res.minus)},
        "linf": report.linf,
        "h1": math.sqrt(h1_norm_sq(u)),
        "lambda_norm": math.sqrt(report.energy.norm_sq()),
        "lp_norm": lp_integral(u, params.p) ** (1.0 / params.p),
        "iterations": report.iterations,
        "converged": report.converged,
        "nonradiality": report.nonradiality,
        "symmetry": symmetry_dict(symmetry_report(
            u, params, nonradiality=report.nonradiality, linf=report.linf)),
    }
    if report.trace is not None:
        out["trace_tail"] = [list(row) for row in report.trace[-20:]]
    return out


def write_json(path, payload: dict) -> None:
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _environment() -> dict:
    """Versions and BLAS thread settings that results depend on (null when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in _THREAD_VARS},
    }


def write_manifest(path, command: str, cfg: RunConfig, outputs: list) -> None:
    write_json(path, {
        "artifact": ARTIFACT_VERSION,
        "command": command,
        "config": {k: _format_value(v) for k, v in sorted(cfg.entries.items())},
        "environment": _environment(),
        "outputs": sorted(outputs),
    })


def write_csv(path, header: list, rows: list) -> None:
    with replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(x)) if isinstance(x, float) else str(x)
                for x in row) + "\n")
