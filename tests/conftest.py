import time

import numpy as np
import pytest

from annulab.geometry import AnnularDomain
from annulab.fem import ProblemKind
from annulab.mesh import Resolution
from annulab.spectral import discretize, solve_eigenproblem
from annulab.torsion import solve_torsion

# acceptance results registry: (criterion id, description, passed, seconds)
ACCEPTANCE_RESULTS = []


def record_acceptance(cid, description, passed, seconds=None):
    ACCEPTANCE_RESULTS.append((cid, description, passed, seconds))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, desc, passed, seconds in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{seconds:.1f}s]" if seconds is not None else ""
        terminalreporter.write_line(f"[{status}] criterion {cid}: {desc}{suffix}")


def vertex_mirror(mesh):
    """The vertex permutation of x2 -> -x2: lattice row i mirrors to row
    n_theta - i, layer by layer."""
    mirror = np.empty(mesh.num_vertices, dtype=int)
    mirror[mesh.lattice] = mesh.lattice[-np.arange(mesh.res.n_theta)]
    return mirror


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


@pytest.fixture(scope="session")
def nd_s2_128():
    """ND eigenpair on the workhorse domain at a quick resolution."""
    d = AnnularDomain(1.0, 5.0, 2.0)
    return solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.ND)


@pytest.fixture(scope="session")
def nd_s2_256():
    """ND eigenpair on the workhorse domain at the baseline resolution."""
    d = AnnularDomain(1.0, 5.0, 2.0)
    return solve_eigenproblem(discretize(d, Resolution(256, 64, 1.5)), ProblemKind.ND)


@pytest.fixture(scope="session")
def torsion_s2_128():
    d = AnnularDomain(1.0, 5.0, 2.0)
    return solve_torsion(discretize(d, Resolution(128, 32, 1.5)))
