"""Make the postprocess workload's inputs anew with the program.

usage: python3 bench/make_inputs.py OUT_DIR

Writes into OUT_DIR:
  nodal_p4_q1_lam50.csv   dipole nodal solution, lambda = 50, 320x64 disk, R = 24
  ground_p4_q1_lam10.csv  ground state, lambda = 10, 480x96 half disk, R = 30
  random_nehari.csv       a random positive field on the 320x64 disk, scaled
                          onto the Nehari set: it solves nothing, so check
                          must reject it

The random field uses a fixed seed, not the benchmark's --seed: the check of
it fails today by a fault of the program, and a failure that is kept must
fail on every run.
"""

from __future__ import annotations

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads)

import sys
from importlib import import_module
from pathlib import Path

import numpy as np

from workloads import cli, grid_mod, run_cli, sio

nehari = import_module("spiralnls.nehari")

NON_SOLUTION_SEED = 20200909

COMMANDS = [
    ["solve-nodal", "--p", "4", "--q", "1", "--lambda", "50", "--seed", "dipole",
     "--R", "24", "--nr", "320", "--ntheta", "64"],
    ["solve-ground", "--p", "4", "--q", "1", "--lambda", "10", "--sector", "half",
     "--R", "30", "--nr", "480", "--ntheta", "96"],
]


def make_inputs(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for argv in COMMANDS:
        code, wall, text = run_cli([*argv, "--out-dir", str(out)])
        print(f"{text.strip()} ({wall:.2f} s)", file=sys.stderr)
        if code != cli.EXIT_OK:
            return code
    grid = grid_mod.build_grid(24.0, 320, 64, grid_mod.SectorKind.full_disk())
    params = grid_mod.ModelParams(p=4.0, q=1, lam=50.0)
    rng = np.random.default_rng(NON_SOLUTION_SEED)
    field = grid_mod.Field(grid, 1.0 - rng.random((grid.nr, grid.ntheta)))
    field = grid_mod.Field(grid, nehari.nehari_scale(field, params) * field.values)
    sio.save_solution(out / "random_nehari.csv", field, params)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(make_inputs(Path(sys.argv[1])))
