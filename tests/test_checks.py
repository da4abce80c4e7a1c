import numpy as np
import pytest

from annulab.checks import (
    _frame,
    geometry_report,
    geometry_reports,
    outer_axial_derivative,
    recover_gradient,
)
from annulab.export import write_json
from annulab.fem import Field, ProblemKind
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh
from annulab.spectral import discretize, solve_eigenproblem
from annulab.torsion import solve_torsion


@pytest.fixture(scope="module")
def mesh32():
    return build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(32, 8, 1.0))


def test_gradient_linear_exact(mesh32):
    u = Field(mesh32.vertices[:, 0], mesh32)
    g = recover_gradient(u)
    assert g.shape == (mesh32.num_vertices, 2)
    assert np.allclose(g[:, 0], 1.0, atol=1e-12)
    assert np.allclose(g[:, 1], 0.0, atol=1e-12)
    c = Field(np.full(mesh32.num_vertices, 3.0), mesh32)
    assert np.allclose(recover_gradient(c), 0.0, atol=1e-12)


def test_gradient_quadratic_interior_accuracy():
    mesh = build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(128, 32, 1.0))
    u = Field(mesh.vertices[:, 0] ** 2, mesh)
    g = recover_gradient(u)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.lattice[:, 0]] = False
    interior[mesh.lattice[:, mesh.res.n_rad]] = False
    err = np.abs(g[interior, 0] - 2.0 * mesh.vertices[interior, 0])
    # O(h) recovery; h ~ 0.25 on this mesh
    assert err.max() < 0.2
    assert np.abs(g[interior, 1]).max() < 0.2


def test_report_passes_for_eigenfunction(nd_s2_128):
    rep = geometry_report(nd_s2_128.u)
    assert rep.all_passed, {n: c for n, c in rep.checks.items() if not c.passed}
    assert set(rep.checks) == {
        "affine_radial", "axial_cap", "outer_axial", "tangential_sign",
        "gradient_nonzero", "reflection_ordering", "peak_location",
    }


def test_report_linear_counterexample(nd_s2_128):
    mesh = nd_s2_128.mesh
    fake = Field(mesh.vertices[:, 0] - mesh.vertices[:, 0].min(), mesh)
    rep = geometry_report(fake)
    assert not rep.checks["affine_radial"].passed
    assert not rep.checks["peak_location"].passed


def test_report_concentric_degenerate():
    d = AnnularDomain(1.0, 5.0, 0.0)
    sol = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.ND)
    rep = geometry_report(sol.u)
    assert rep.all_passed, {n: c.detail for n, c in rep.checks.items() if not c.passed}
    assert "concentric" in rep.checks["outer_axial"].detail


def test_outer_axial_derivative_on_radial_profile():
    # a field constant on every ray layer has zero tangential derivative on
    # the outer circle of a concentric mesh
    mesh = build_mesh(AnnularDomain(1.0, 5.0, 0.0), Resolution(64, 8, 1.0))
    r = np.hypot(*mesh.vertices.T)
    u = Field(r - 1.0, mesh)
    d1 = outer_axial_derivative(u)
    assert np.abs(d1).max() < 1e-12


def test_violation_counts_nonincreasing_under_refinement():
    d = AnnularDomain(1.0, 5.0, 2.0)
    coarse = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.ND)
    fine = solve_eigenproblem(discretize(d, Resolution(256, 64, 1.5)), ProblemKind.ND)
    rc = geometry_report(coarse.u)
    rf = geometry_report(fine.u)
    for name, check in rc.checks.items():
        assert rf.checks[name].violations <= check.violations


@pytest.mark.parametrize("s", [0.0, 2.0])
def test_locations_lie_outside_the_exclusion_discs(s):
    # the worst point of a check is one of its tested points; at s = 0 the
    # outer-ring values of dd and dn all vanish, and a tie must not fall back
    # on the excluded pole (R1, 0)
    disc = discretize(AnnularDomain(1.0, 5.0, s), Resolution(128, 32, 1.5))
    fields = {kind.value: solve_eigenproblem(disc, kind).u for kind in ProblemKind}
    fields["torsion"] = solve_torsion(disc).v
    for label, rep in zip(fields, geometry_reports(list(fields.values()))):
        for name, check in rep.checks.items():
            if name == "peak_location" or check.worst is None:
                continue
            x, y = check.location
            for pole in (5.0, -5.0):
                assert (x - pole) ** 2 + y**2 > rep.exclusion**2, (label, name)


def test_report_json(tmp_path, nd_s2_128):
    rep = geometry_report(nd_s2_128.u)
    path = tmp_path / "report.json"
    write_json(path, rep.to_payload())
    import json

    payload = json.loads(path.read_text())
    assert payload["all_passed"] is True
    assert set(payload["checks"]) == set(rep.checks)
    entry = payload["checks"]["affine_radial"]
    assert set(entry) == {"worst", "location", "pass", "detail"}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_rejects_non_finite_floats(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(path, {"worst": value})
    assert not path.exists()


def test_exclusion_parameter(nd_s2_128):
    rep = geometry_report(nd_s2_128.u, exclusion=0.5)
    assert rep.exclusion == 0.5
    assert rep.all_passed


# (x, y) of the worst reflection margin of the nd field at 64x16, up to the
# sign of y: the point or its mirror twin, as round-off picks
REFLECTION_WORST_AT = {
    1.0: (2.7972843788979795, 0.5452002558379843),
    2.0: (-1.938918502902931, -0.3879496110604101),
    3.0: (4.259283615075016, 0.8414264106749145),
}


@pytest.mark.parametrize("s", sorted(REFLECTION_WORST_AT))
def test_reflection_ordering_location_is_in_the_upper_half(s):
    u = solve_eigenproblem(discretize(AnnularDomain(1.0, 5.0, s), Resolution(64, 16)),
                           ProblemKind.ND).u
    x, y = geometry_report(u).checks["reflection_ordering"].location
    want_x, want_y = REFLECTION_WORST_AT[s]
    assert y >= 0.0
    assert (x, y) == (want_x, abs(want_y))


@pytest.mark.parametrize("s", [0.0, 2.0, 3.6])
def test_every_location_is_in_the_upper_half(s, nd_s2_128):
    # at 128x32 and s = 2 the worst tangential margin falls on the lower
    # mirror twin, by round-off of the field
    u = nd_s2_128.u if s == 2.0 else solve_eigenproblem(
        discretize(AnnularDomain(1.0, 5.0, s), Resolution(128, 32, 1.5)), ProblemKind.ND).u
    for name, check in geometry_report(u).checks.items():
        assert check.location[1] >= 0.0, name


def payload_bytes(report):
    # repr gives every float's shortest round-trip digits, as json does
    return repr(report.to_payload()).encode()


@pytest.mark.parametrize("n_theta", [128, 130])  # 130 = 2 mod 4
@pytest.mark.parametrize("s", [0.0, 2.0, 3.6, 0.99 * 4.0])
def test_shared_reports_match_one_field_reports(s, n_theta):
    disc = discretize(AnnularDomain(1.0, 5.0, s), Resolution(n_theta, 32, 1.5))
    fields = [solve_eigenproblem(disc, ProblemKind.ND).u,
              solve_eigenproblem(disc, ProblemKind.DD).u,
              solve_torsion(disc).v]
    for exclusion in (None, 0.4):
        shared = geometry_reports(fields, exclusion)
        for u, rep in zip(fields, shared):
            alone = geometry_report(u, exclusion=exclusion)
            assert payload_bytes(rep) == payload_bytes(alone)
            assert [c.violations for c in rep.checks.values()] == [
                c.violations for c in alone.checks.values()]


def test_shared_reports_need_one_mesh(nd_s2_128):
    u = nd_s2_128.u
    other = discretize(AnnularDomain(1.0, 5.0, 2.0), Resolution(128, 32, 1.5))
    v = solve_eigenproblem(other, ProblemKind.ND).u
    with pytest.raises(ValueError, match="different meshes"):
        geometry_reports([u, v])


@pytest.mark.parametrize("n_theta", [128, 130])
@pytest.mark.parametrize("s", [1.0, 2.0, 3.96])
def test_peak_cell_size_matches_a_scan_of_all_triangles(s, n_theta):
    mesh = build_mesh(AnnularDomain(1.0, 5.0, s), Resolution(n_theta, 32, 1.5))
    ref_vertex = mesh.vertex_index(n_theta // 2, 32)
    adj = np.nonzero(np.any(mesh.triangles == ref_vertex, axis=1))[0]
    pts = mesh.vertices[mesh.triangles[adj]]
    want = float(max(np.linalg.norm(pts[:, a] - pts[:, b], axis=1).max()
                     for a, b in ((0, 1), (1, 2), (2, 0))))
    assert _frame(mesh, 0.25).cell_size == want
