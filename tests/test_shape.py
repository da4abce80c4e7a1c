import numpy as np
import pytest

from annulab.fem import Field, ProblemKind
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh
from annulab.shape import (
    dilation_field,
    dirichlet_normal_derivative,
    eulerian_derivative,
    finite_difference_tau_prime,
    hadamard_tau_prime,
    half_boundary_tau_prime,
    reflected_neumann_margin,
    translation_field,
)
from annulab.spectral import discretize, solve_eigenproblem

QUICK = Resolution(128, 32, 1.5)


def test_trace_unit_ramp():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, Resolution(128, 32, 1.5))
    ramp = np.hypot(mesh.vertices[:, 0] - d.s, mesh.vertices[:, 1]) - d.R0
    trace = dirichlet_normal_derivative(Field(ramp, mesh), ProblemKind.ND)
    # outward normal points toward the inner center, the ramp grows away
    assert np.allclose(trace.dudn, -1.0, atol=2e-2)
    assert np.allclose(np.hypot(*trace.normals.T), 1.0, atol=1e-14)
    want = (d.inner_center - trace.midpoints)
    want /= np.hypot(*want.T)[:, None]
    assert np.allclose(trace.normals, want, atol=1e-14)


def test_trace_requires_vanishing_values():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, Resolution(32, 8, 1.0))
    with pytest.raises(ValueError):
        dirichlet_normal_derivative(Field(np.ones(mesh.num_vertices), mesh), ProblemKind.ND)
    with pytest.raises(ValueError):
        dirichlet_normal_derivative(Field(np.zeros(mesh.num_vertices), mesh), ProblemKind.DN)


def test_trace_concentric_constant_and_negative():
    d = AnnularDomain(1.0, 2.0, 0.0)
    sol = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.ND)
    trace = dirichlet_normal_derivative(sol.u, ProblemKind.ND)
    assert np.all(trace.dudn < 0.0)
    spread = trace.dudn.max() - trace.dudn.min()
    assert spread <= 5e-3 * np.abs(trace.dudn).max()


def test_trace_negative_eccentric(nd_s2_128):
    trace = dirichlet_normal_derivative(nd_s2_128.u, ProblemKind.ND)
    assert np.all(trace.dudn < 0.0)


def test_half_boundary_equals_full(nd_s2_128):
    d = nd_s2_128.mesh.domain
    trace = dirichlet_normal_derivative(nd_s2_128.u, ProblemKind.ND)
    had = hadamard_tau_prime(trace)
    half = half_boundary_tau_prime(trace, d)
    scale = float(np.sum(trace.dudn**2 * np.abs(trace.normals[:, 0]) * trace.lengths))
    assert abs(had - half) <= 1e-10 * max(abs(had), scale)


def test_paired_trace_ordering(nd_s2_128):
    # the mirror partner left of the line x1 = s carries the larger slope
    d = nd_s2_128.mesh.domain
    trace = dirichlet_normal_derivative(nd_s2_128.u, ProblemKind.ND)
    n = nd_s2_128.mesh.res.n_theta
    mirror = (n // 2 - 1 - np.arange(n)) % n
    right = trace.midpoints[:, 0] > d.s
    assert np.all(
        np.abs(trace.dudn[mirror[right]]) > np.abs(trace.dudn[right])
    )


def test_derivative_negative_and_fd_agreement(nd_s2_128):
    d = nd_s2_128.mesh.domain
    trace = dirichlet_normal_derivative(nd_s2_128.u, ProblemKind.ND)
    had = hadamard_tau_prime(trace)
    assert had < 0.0
    fd = finite_difference_tau_prime(d, 0.05, QUICK)
    assert had == pytest.approx(fd, rel=0.05)


def test_eulerian_zero_field(nd_s2_128):
    mesh = nd_s2_128.mesh
    V = translation_field(mesh)
    V.vertex_values[:] = 0.0
    V.inner_vn = np.zeros(mesh.res.n_theta)
    V.outer_vn = np.zeros(mesh.res.n_theta)
    assert eulerian_derivative(nd_s2_128.u, nd_s2_128.value, V) == 0.0


def test_eulerian_translation_matches_boundary_integral(nd_s2_128):
    mesh = nd_s2_128.mesh
    trace = dirichlet_normal_derivative(nd_s2_128.u, ProblemKind.ND)
    had = hadamard_tau_prime(trace)
    V = translation_field(mesh)
    eul = eulerian_derivative(nd_s2_128.u, nd_s2_128.value, V)
    assert abs(eul - had) <= 1e-12 * abs(had)
    # translation field geometry: plateau 1 near the hole, 0 at the outer circle
    ring_in = mesh.lattice[:, 0]
    ring_out = mesh.lattice[:, mesh.res.n_rad]
    assert np.allclose(V.vertex_values[ring_in, 0], 1.0, atol=1e-14)
    assert np.allclose(V.vertex_values[ring_out], 0.0, atol=1e-14)
    assert np.array_equal(V.outer_vn, np.zeros(mesh.res.n_theta))


def test_eulerian_dilation_scaling():
    d = AnnularDomain(1.0, 5.0, 0.0)
    sol = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.ND)
    V = dilation_field(sol.mesh)
    eul = eulerian_derivative(sol.u, sol.value, V)
    # scaling law: the eigenvalue of the dilated annulus is value / t^2
    assert eul == pytest.approx(-2.0 * sol.value, rel=0.05)
    # explicit re-solve at radii scaled by (1 +- h)
    h = 0.01
    up = solve_eigenproblem(
        discretize(AnnularDomain(1.0 * (1 + h), 5.0 * (1 + h), 0.0), QUICK),
        ProblemKind.ND,
    )
    dn = solve_eigenproblem(
        discretize(AnnularDomain(1.0 * (1 - h), 5.0 * (1 - h), 0.0), QUICK),
        ProblemKind.ND,
    )
    fd = (up.value - dn.value) / (2 * h)
    assert eul == pytest.approx(fd, rel=0.05)


def test_fd_step_validation():
    d = AnnularDomain(1.0, 5.0, 0.1)
    with pytest.raises(ValueError):
        finite_difference_tau_prime(d, 0.05, QUICK)  # central needs h <= s/4
    with pytest.raises(ValueError):
        finite_difference_tau_prime(AnnularDomain(1.0, 5.0, 0.0), 0.6, QUICK)
    with pytest.raises(ValueError):
        finite_difference_tau_prime(d, -0.1, QUICK)


def test_reflected_neumann_margin_positive(nd_s2_128):
    margin, ntested = reflected_neumann_margin(nd_s2_128.u)
    assert ntested > 30
    assert margin > 0.0


def test_fd_richardson_order():
    # central differences of the eigenvalue in s extrapolate at order ~2;
    # tested where the third derivative is large enough to dominate
    d = AnnularDomain(1.0, 5.0, 0.8)
    fds = [
        finite_difference_tau_prime(d, h, QUICK)
        for h in (0.2, 0.1, 0.05)
    ]
    ratio = (fds[0] - fds[1]) / (fds[1] - fds[2])
    assert ratio == pytest.approx(4.0, rel=0.25)
