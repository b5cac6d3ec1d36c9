"""Spans around the program's public functions, recorded from outside.

The program's modules import functions by name (``from .energy import
gradient``), so wrapping a function means rebinding it in every spiralnls
module that holds it, the defining module included, and restoring each
binding afterwards.  Modules come from ``sys.modules``: the package attribute
``spiralnls.energy`` is the function ``energy``, not the module.

A span's self time is its duration minus the durations of the spans it
encloses.  Spans nest on one stack, so the program must run on one thread
while a tracer is installed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from scipy.sparse.linalg import LinearOperator

# span name -> (defining module, attribute path); "A.b" is method b of class A
LAYERS = {
    "grid.to_modes": ("spiralnls.grid", "PolarGrid.to_modes"),
    "grid.from_modes": ("spiralnls.grid", "PolarGrid.from_modes"),
    "grid.solve_operator": ("spiralnls.grid", "solve_operator"),
    "energy.gradient": ("spiralnls.energy", "gradient"),
    "energy.lambda_inner": ("spiralnls.energy", "lambda_inner"),
    "energy.energy": ("spiralnls.energy", "energy"),
    "energy.lp_integral": ("spiralnls.energy", "lp_integral"),
    "nehari.nehari_scale": ("spiralnls.nehari", "nehari_scale"),
    "nehari.project_nodal": ("spiralnls.nehari", "project_nodal"),
    "minimize.gmres": ("spiralnls.minimize", "gmres"),
    "minimize.solve_ground": ("spiralnls.minimize", "solve_ground"),
    "minimize.solve_nodal": ("spiralnls.minimize", "solve_nodal"),
    "radial.shoot_ground": ("spiralnls.radial", "shoot_ground"),
    "radial.shoot_nodal": ("spiralnls.radial", "shoot_nodal"),
    "io.save_solution": ("spiralnls.io", "save_solution"),
    "io.load_solution": ("spiralnls.io", "load_solution"),
    "diagnostics.symmetry_report": ("spiralnls.diagnostics", "symmetry_report"),
    "spiral3d.reconstruct3d": ("spiralnls.spiral3d", "reconstruct3d"),
    "spiral3d.export_vtk": ("spiralnls.spiral3d", "export_vtk"),
    "cli.run_cli": ("spiralnls.cli", "run_cli"),
}

# the solver calls whose durations make up op_s_p50 on the sweep
SOLVES = ("minimize.solve_ground", "minimize.solve_nodal")

# counters kept next to the spans
COUNTERS = ("minimize.gmres.matvecs", "minimize.iterations")


class Tracer:
    """Installs timing wrappers for a set of span names; use as a context."""

    def __init__(self, names):
        self.names = tuple(names)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.solve_s = []         # duration of each solver call
        self._stack = []          # child time accumulated per open span
        self._restore = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return self._call(name, fn, args, kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                self.calls[name] += 1
                self.self_s[name] += span - child
                if name in SOLVES:
                    self.solve_s.append(span)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        if name == "minimize.gmres":
            args = (self._counting(args[0]),) + args[1:]
        out = fn(*args, **kwargs)
        if name in SOLVES:
            self.counters["minimize.iterations"] += out.iterations
        return out

    def _counting(self, op):
        inner = op.matvec

        def matvec(x):
            self.counters["minimize.gmres.matvecs"] += 1
            return inner(x)

        return LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)

    # -- installing ------------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "spiralnls"
                                         or key.startswith("spiralnls."))]
        for name in self.names:
            mod_name, attr = LAYERS[name]
            if "." in attr:
                owner_name, attr = attr.split(".")
                owner = getattr(sys.modules[mod_name], owner_name)
                self._rebind(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        return self

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    def snapshot(self):
        """Counts and self times so far, keyed by metric name."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out
