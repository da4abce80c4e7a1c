from types import SimpleNamespace

import numpy as np
import pytest

from annulab.export import CELLS_BLOCK, write_field
from annulab.fem import Field, ProblemKind, p1_gradient
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh
from annulab.radial_oracle import concentric_eigenvalue
from annulab.spectral import discretize, solve_eigenproblem
from annulab.torsion import solve_torsion


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
    # u^T M u, summed over the local mass blocks area/12 (I + ones)
    uv = sol.u.values[sol.mesh.triangles]
    norm = np.sum(sol.mesh.areas * ((uv**2).sum(axis=1) + uv.sum(axis=1) ** 2)) / 12.0
    assert norm == pytest.approx(1.0, rel=1e-12)


def test_value_is_rayleigh_quotient(concentric_solution):
    _, sol = concentric_solution
    # u^T K u, the Dirichlet energy of the P1 field
    gx, gy, area = p1_gradient(sol.u)
    assert sol.value == pytest.approx(float(np.sum(area * (gx**2 + gy**2))), rel=1e-10)


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
    write_field(sol.u, tmp_path / "f", vtk=True)
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == sol.mesh.num_vertices + 1
    x, y, u = (float(t) for t in lines[1].split(","))
    assert [x, y] == list(sol.mesh.vertices[0])
    assert u == sol.u.values[0]
    assert "SCALARS u double 1" in vtk.read_text()


def read_vtk(path):
    """Sections of a legacy ASCII VTK file as written by ``write_field``."""
    lines = path.read_text().splitlines()
    assert lines[:4] == [
        "# vtk DataFile Version 2.0", "annulab mesh", "ASCII", "DATASET UNSTRUCTURED_GRID"
    ]
    at = 4

    def section(head, count):
        nonlocal at
        assert lines[at] == head
        rows = [r.split() for r in lines[at + 1:at + 1 + count]]
        at += 1 + count
        return rows

    n = int(lines[at].split()[1])
    points = section(f"POINTS {n} double", n)
    nt = int(lines[at].split()[1])
    cells = section(f"CELLS {nt} {4 * nt}", nt)
    types = section(f"CELL_TYPES {nt}", nt)
    assert lines[at] == f"POINT_DATA {n}"
    name = lines[at + 1].split()[1]
    assert lines[at + 1] == f"SCALARS {name} double 1"
    at += 2
    scalars = section("LOOKUP_TABLE default", n)
    assert at == len(lines)
    return {
        "points": np.array([[float(t) for t in r] for r in points]),
        "cells": np.array([[int(t) for t in r] for r in cells]),
        "types": types,
        "name": name,
        "scalars": np.array([float(r[0]) for r in scalars]),
    }


def assert_bitwise(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def check_round_trip(field, base, name):
    mesh = field.mesh
    vtk = read_vtk(base.with_suffix(".vtk"))
    assert_bitwise(vtk["points"][:, :2], mesh.vertices)
    assert np.all(vtk["points"][:, 2] == 0.0)
    assert np.array_equal(vtk["cells"][:, 0], np.full(mesh.num_triangles, 3))
    assert np.array_equal(vtk["cells"][:, 1:], mesh.triangles)
    assert vtk["types"] == [["5"]] * mesh.num_triangles
    assert vtk["name"] == name
    assert_bitwise(vtk["scalars"], field.values)
    lines = base.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == f"x,y,{name}"
    rows = np.array([[float(t) for t in r.split(",")] for r in lines[1:]])
    assert_bitwise(rows[:, :2], mesh.vertices)
    assert_bitwise(rows[:, 2], field.values)


def test_field_export_round_trips_eigen_and_torsion(tmp_path):
    disc = discretize(AnnularDomain(1.0, 3.0, 1.2), Resolution(32, 6, 1.5))
    u = solve_eigenproblem(disc, ProblemKind.ND).u
    v = solve_torsion(disc).v
    write_field(u, tmp_path / "eig", vtk=True)
    write_field(v, tmp_path / "torsion", name="v", vtk=True)
    check_round_trip(u, tmp_path / "eig", "u")
    check_round_trip(v, tmp_path / "torsion", "v")


def test_field_export_cells_cross_a_block_boundary(tmp_path):
    mesh = build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(130, 64, 1.5))
    assert mesh.num_triangles > CELLS_BLOCK
    assert mesh.num_triangles % CELLS_BLOCK != 0
    field = Field(np.hypot(*mesh.vertices.T), mesh)
    write_field(field, tmp_path / "big", vtk=True)
    check_round_trip(field, tmp_path / "big", "u")


def test_field_export_text_is_the_repr_of_every_value(tmp_path):
    # each distinct magnitude is formatted once and the signs are put back;
    # the field is not mirror symmetric and holds signed zeros, repeats,
    # infinities and a NaN with its sign bit set
    mesh = build_mesh(AnnularDomain(1.0, 3.0, 1.2), Resolution(32, 6, 1.5))
    x, y = mesh.vertices.T
    values = np.sin(3.0 * x + y)
    values[0:40:4] = 0.0
    values[1:40:4] = -0.0
    values[2:40:4] = 0.25
    values[3:40:4] = -0.25
    values[40:44] = [np.inf, -np.inf, np.nan, -np.nan]
    values[50:60] = -values[60:70]
    assert np.signbit(values[43]) and np.any(values < -0.3)
    # a Field refuses non-finite values; write_field reads only these two
    write_field(SimpleNamespace(mesh=mesh, values=values), tmp_path / "f", name="w",
                vtk=True)
    x, y, w = (a.tolist() for a in (x, y, values))
    rows = [f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(x, y, w)]
    assert (tmp_path / "f.csv").read_text() == "x,y,w\n" + "".join(rows)
    lines = (tmp_path / "f.vtk").read_text().splitlines()
    n = mesh.num_vertices
    at = lines.index(f"POINTS {n} double") + 1
    assert lines[at:at + n] == [f"{a!r} {b!r} 0.0" for a, b in zip(x, y)]
    assert lines[-n:] == [repr(c) for c in w]


def test_repeat_solve_bit_identical():
    d = AnnularDomain(1.0, 5.0, 1.5)
    a = solve_eigenproblem(discretize(d, Resolution(48, 8, 1.0)), ProblemKind.ND)
    b = solve_eigenproblem(discretize(d, Resolution(48, 8, 1.0)), ProblemKind.ND)
    assert a.value == b.value
    assert np.array_equal(a.u.values, b.u.values)
