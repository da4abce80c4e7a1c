import numpy as np
import pytest

from annulab.fem import Discretization, ProblemKind
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution
from annulab.radial_oracle import concentric_eigenvalue
from annulab.spectral import discretize, solve_eigenproblem, write_field_csv, write_field_vtk


@pytest.fixture(scope="module", params=[k.value for k in ProblemKind])
def concentric_solution(request):
    kind = ProblemKind.parse(request.param)
    d = AnnularDomain(1.0, 2.0, 0.0)
    sol = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.0)), kind, tol=1e-10)
    return kind, sol


def test_concentric_matches_oracle(concentric_solution):
    kind, sol = concentric_solution
    oracle = concentric_eigenvalue(kind, 1.0, 2.0)
    assert sol.value == pytest.approx(oracle, rel=2e-3)


def test_positivity_and_normalization(concentric_solution):
    _, sol = concentric_solution
    assert sol.u.values.min() >= -1e-10
    u = sol.u.values
    M = Discretization(sol.mesh).M
    assert float(u @ (M @ u)) == pytest.approx(1.0, rel=1e-12)


def test_value_is_rayleigh_quotient(concentric_solution):
    _, sol = concentric_solution
    u = sol.u.values
    K = Discretization(sol.mesh).K
    assert sol.value == pytest.approx(float(u @ (K @ u)), rel=1e-10)


def test_exact_lattice_mirror_symmetry():
    d = AnnularDomain(1.0, 5.0, 2.0)
    sol = solve_eigenproblem(discretize(d, Resolution(64, 16, 1.5)), ProblemKind.ND)
    u = sol.u.values
    lat = sol.mesh.lattice
    n = sol.mesh.res.n_theta
    for i in range(n):
        assert np.array_equal(u[lat[i]], u[lat[(n - i) % n]])


def test_peak_location_eccentric():
    d = AnnularDomain(1.0, 5.0, 3.0)
    sol = solve_eigenproblem(discretize(d, Resolution(96, 24, 1.5)), ProblemKind.ND)
    peak = sol.mesh.vertices[np.argmax(sol.u.values)]
    assert np.hypot(peak[0] + 5.0, peak[1]) < 0.4


def test_mixed_below_dirichlet_same_mesh():
    d = AnnularDomain(1.0, 5.0, 1.0)
    disc = discretize(d, Resolution(64, 16, 1.0))
    nd = solve_eigenproblem(disc, ProblemKind.ND)
    dd = solve_eigenproblem(disc, ProblemKind.DD)
    assert nd.value < dd.value


def test_dirichlet_values_pinned():
    d = AnnularDomain(1.0, 5.0, 2.0)
    sol = solve_eigenproblem(discretize(d, Resolution(64, 16, 1.0)), ProblemKind.DD)
    inner = sol.u.values[sol.mesh.lattice[:, 0]]
    outer = sol.u.values[sol.mesh.lattice[:, sol.mesh.res.n_rad]]
    assert np.all(inner == 0.0)
    assert np.all(outer == 0.0)


def test_field_exports(tmp_path):
    d = AnnularDomain(1.0, 2.0, 0.5)
    sol = solve_eigenproblem(discretize(d, Resolution(32, 6, 1.0)), ProblemKind.ND)
    csv = tmp_path / "f.csv"
    vtk = tmp_path / "f.vtk"
    write_field_csv(sol.u, csv)
    write_field_vtk(sol.u, vtk)
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == sol.mesh.num_vertices + 1
    x, y, u = (float(t) for t in lines[1].split(","))
    assert [x, y] == list(sol.mesh.vertices[0])
    assert u == sol.u.values[0]
    assert "SCALARS u double 1" in vtk.read_text()


def test_repeat_solve_bit_identical():
    d = AnnularDomain(1.0, 5.0, 1.5)
    a = solve_eigenproblem(discretize(d, Resolution(48, 8, 1.0)), ProblemKind.ND)
    b = solve_eigenproblem(discretize(d, Resolution(48, 8, 1.0)), ProblemKind.ND)
    assert a.value == b.value
    assert np.array_equal(a.u.values, b.u.values)
