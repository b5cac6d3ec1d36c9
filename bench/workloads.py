"""The benchmark's workloads: set-up, one pass of work, and output checks.

A workload's set-up is what a fresh process pays before its first operation.
A pass runs the workload once through the program's public entry points and
returns its wall time, the wall time of each operation, and the operations
whose outputs failed a check.  Checks compare against the 1D shooting oracle
(a method apart from the 2D solver) or against properties the method must
have, never against stored output of the program.
"""

from __future__ import annotations

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads)

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np

# submodules by import path: the package attribute spiralnls.energy is the
# function energy, and calls go through the module attribute so that a
# tracer's rebinding applies
cli = import_module("spiralnls.cli")
sio = import_module("spiralnls.io")
grid_mod = import_module("spiralnls.grid")
radial = import_module("spiralnls.radial")

P = 4.0


@dataclass
class PassResult:
    wall_s: float
    op_s: list
    failed: dict = field(default_factory=dict)   # op index -> reason
    known: set = field(default_factory=set)      # ops failing by the known fault


def run_cli(argv):
    """Run the CLI in process; returns (exit code, wall seconds, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run_cli(argv)
    return code, time.perf_counter() - t0, out.getvalue()


def read_rows(path: Path) -> list:
    with open(path, encoding="ascii", newline="") as fh:
        return [{k: (v if k == "winner" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _within(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


# -------------------------------------------------------------------- sweep

class Sweep:
    """The symmetry-breaking study on the 320x64 disk.

    Its operations are the 16 solve_ground/solve_nodal calls of a pass: per
    pitch the disk and half-disk ground states and the nodal problem from a
    dipole and from a radial-nodal seed.
    """

    name = "sweep"
    lambdas = (0.05, 0.5, 5.0, 50.0)
    argv = ["--p", "4", "--q", "1", "--R", "24", "--nr", "320", "--ntheta", "64",
            "--lambdas", "0.05,0.5,5,50"]
    solves_per_pitch = 4
    ops_per_pass = len(lambdas) * solves_per_pitch

    def setup(self, inputs):
        # the grids a sweep builds, then the oracle its checks and seeds use
        full = grid_mod.SectorKind.full_disk()
        half = grid_mod.SectorKind.half_disk()
        grid_mod.build_grid(24.0, 320, 64, full)
        grid_mod.build_grid(24.0, 320, 64, half)
        return {"levels": radial.limit_levels(P)}

    def run_pass(self, state, work: Path, rng, tracer) -> PassResult:
        first = len(tracer.solve_s)
        code, wall, _ = run_cli(["sweep", *self.argv, "--out-dir", str(work)])
        res = PassResult(wall, tracer.solve_s[first:])
        bad = {}
        if code != 0 or not (work / "sweep.csv").is_file():
            bad = {i: f"exit code {code}" for i in range(len(self.lambdas))}
        else:
            rows = read_rows(work / "sweep.csv")
            if [r["lambda"] for r in rows] != list(self.lambdas):
                bad = {i: "pitch list differs" for i in range(len(self.lambdas))}
            else:
                self.check(state, work, rows, bad)
        for pitch, why in bad.items():
            for k in range(self.solves_per_pitch):
                res.failed[pitch * self.solves_per_pitch + k] = why
        return res

    def check(self, state, work, rows, bad):
        """Fill bad (pitch index -> reason) from the sweep's outputs."""
        c_inf, nodal, _ = state["levels"]
        failures = json.loads((work / "sweep.json").read_text())["failures"]
        for i, row in enumerate(rows):
            if failures[i]:
                bad.setdefault(i, "solver failure: " + "; ".join(failures[i]))
            if not row["beta_hat"] >= 2 * row["alpha_hat"] - 1e-6:
                bad.setdefault(i, "beta_hat < 2 alpha_hat")
            if not _within(row["alpha_hat"], c_inf, 0.005):
                bad.setdefault(i, "alpha_hat not within 0.5% of c_inf")
            if i and not row["c_hat"] <= rows[i - 1]["c_hat"]:
                bad.setdefault(i, "c_hat increased with lambda")
        if rows[0]["winner"] != "RadialNodal":
            bad.setdefault(0, f"winner {rows[0]['winner']} at lambda 0.05")
        if rows[-1]["winner"] != "Dipole":
            bad.setdefault(len(rows) - 1, f"winner {rows[-1]['winner']} at lambda 50")
        if not _within(rows[0]["beta_hat"], nodal, 0.01):
            bad.setdefault(0, "beta_hat(0.05) not within 1% of the nodal level")
        if not _within(rows[-1]["beta_hat"], 2 * c_inf, 0.05):
            bad.setdefault(len(rows) - 1, "beta_hat(50) not within 5% of 2 c_inf")


# -------------------------------------------------------------- postprocess

SOLUTIONS = ("nodal_p4_q1_lam50", "ground_p4_q1_lam10")
NON_SOLUTION = "random_nehari"
VTK_DIMS = (48, 48, 32)          # the CLI's default nxy, nxy, nt


def read_vtk_volume(path: Path):
    """Parse a legacy ASCII structured-points file: (declared dims, values).

    values is indexed (x, y, t); the file stores x fastest.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    dims = count = start = None
    for i, line in enumerate(lines[:16]):
        words = line.split()
        if words[:1] == ["DIMENSIONS"]:
            dims = tuple(int(w) for w in words[1:4])
        elif words[:1] == ["POINT_DATA"]:
            count = int(words[1])
        elif words[:1] == ["LOOKUP_TABLE"]:
            start = i + 1
    if dims is None or count is None or start is None:
        raise ValueError(f"{path}: incomplete header")
    data = np.array([x for x in lines[start:] if x.strip()], dtype=float)
    if data.size != count or count != math.prod(dims):
        raise ValueError(f"{path}: {data.size} values for {dims}")
    return dims, data.reshape(dims[2], dims[1], dims[0]).transpose(2, 1, 0)


def screw_defect(values) -> float:
    """max |v(., T/4) - rot90 v(., 0)| over the 12-digit tolerance of the file.

    v(x, t) = u(R(-t/lambda) x), so at a quarter period each slice is the
    t = 0 slice turned by a right angle; on the square grid symmetric about 0
    that is rot90 exactly.  Below 1 means invariant to the file's digits.
    """
    nt = values.shape[2]
    a = values[:, :, nt // 4]
    b = np.rot90(values[:, :, 0])
    tol = 1e-11 * np.maximum(np.abs(a), np.abs(b)) + 1e-12 * np.max(np.abs(b))
    return float(np.max(np.abs(a - b) / tol))


class Postprocess:
    """The artifact path on stored converged solutions, one known fault."""

    name = "postprocess"
    # (kind, input): three operations per stored solution, then the check of
    # a field that solves nothing, which exits 0 today (check never tests
    # the Euler-Lagrange residual)
    ops = [(kind, sol) for sol in SOLUTIONS
           for kind in ("roundtrip", "check", "reconstruct")] \
        + [("check-nonsolution", NON_SOLUTION)]
    ops_per_pass = len(ops)

    def setup(self, inputs):
        return {"inputs": Path(inputs),
                "loaded": {sol: sio.load_solution(Path(inputs) / f"{sol}.csv")
                           for sol in SOLUTIONS}}

    def _op(self, state, work, kind, sol):
        path = str(state["inputs"] / f"{sol}.csv")
        if kind == "roundtrip":
            field_, params = state["loaded"][sol]
            target = work / f"roundtrip_{sol}.csv"
            sio.save_solution(target, field_, params)
            return sio.load_solution(target)
        if kind == "reconstruct":
            return run_cli(["reconstruct", path, "--out-dir", str(work)])
        return run_cli(["check", path, "--out-dir", str(work)])

    def run_pass(self, state, work: Path, rng, tracer) -> PassResult:
        order = list(range(len(self.ops)))
        rng.shuffle(order)
        op_s = [0.0] * len(self.ops)
        results = [None] * len(self.ops)
        t_pass = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            results[i] = self._op(state, work, *self.ops[i])
            op_s[i] = time.perf_counter() - t0
        res = PassResult(time.perf_counter() - t_pass, op_s)
        for i, ((kind, sol), out) in enumerate(zip(self.ops, results)):
            why = self._check(state, work, kind, sol, out)
            if why:
                res.failed[i] = why
                if kind == "check-nonsolution" and out[0] == 0:
                    res.known.add(i)
        return res

    def _check(self, state, work, kind, sol, out):
        if kind == "roundtrip":
            (f0, p0), (f1, p1) = state["loaded"][sol], out
            g0, g1 = f0.grid, f1.grid
            same_grid = (g0.R, g0.nr, g0.ntheta, g0.sector.label()) == \
                (g1.R, g1.nr, g1.ntheta, g1.sector.label())
            if not (same_grid and p0 == p1 and f1.values.dtype == f0.values.dtype
                    and f1.values.tobytes() == f0.values.tobytes()):
                return "save/load round trip is not bit-identical"
            return None
        code, _, text = out
        if kind == "check-nonsolution":
            if code == 4:
                return None
            return f"check exits {code} on a non-solution: {text.strip()}"
        if code != 0:
            return f"{kind} exits {code}: {text.strip()}"
        if kind == "check":
            return None
        try:
            dims, values = read_vtk_volume(work / f"{sol}.vtk")
        except (OSError, ValueError) as exc:
            return f"unreadable VTK: {exc}"
        if dims != VTK_DIMS:
            return f"VTK dimensions {dims}, expected {VTK_DIMS}"
        defect = screw_defect(values)
        if not defect <= 1.0:
            return f"screw invariance broken ({defect:.3g} x tolerance)"
        return None


WORKLOADS = {w.name: w for w in (Sweep(), Postprocess())}
