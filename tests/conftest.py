import numpy as np
import pytest

from spiralnls import minimize
from spiralnls.grid import ModelParams, SectorKind, build_grid


@pytest.fixture(scope="session")
def small_disk():
    return build_grid(3.0, 24, 16, SectorKind.full_disk())


@pytest.fixture(scope="session")
def small_half():
    return build_grid(3.0, 24, 16, SectorKind.half_disk())


@pytest.fixture(scope="session")
def small_cone():
    return build_grid(3.0, 24, 16, SectorKind.cone(np.pi / 4))


@pytest.fixture(scope="session")
def params_q1():
    return ModelParams(p=4.0, q=1, lam=0.7)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def solve_budget(monkeypatch):
    """cap(steps, solves=0) bounds a solve's descent steps and Newton solves in one test."""
    def cap(steps, solves=0):
        monkeypatch.setattr(minimize, "_DESCENT_STEPS", steps)
        monkeypatch.setattr(minimize, "_NEWTON_SOLVES", solves)
    return cap
