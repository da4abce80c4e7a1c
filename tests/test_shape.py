import numpy as np
import pytest

from annulab.fem import Field, ProblemKind, p1_gradient
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh
from annulab.shape import (
    dirichlet_normal_derivative,
    finite_difference_tau_prime,
    hadamard_tau_prime,
    half_boundary_tau_prime,
    reflected_neumann_margin,
)
from annulab.spectral import discretize, solve_eigenproblem

QUICK = Resolution(128, 32, 1.5)


def test_trace_unit_ramp():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, Resolution(128, 32, 1.5))
    ramp = np.hypot(mesh.vertices[:, 0] - d.s, mesh.vertices[:, 1]) - d.R0
    trace = dirichlet_normal_derivative(Field(ramp, mesh))
    # outward normal points toward the inner center, the ramp grows away
    assert np.allclose(trace.dudn, -1.0, atol=2e-2)
    assert np.allclose(np.hypot(*trace.normals.T), 1.0, atol=1e-14)
    want = (d.inner_center - trace.midpoints)
    want /= np.hypot(*want.T)[:, None]
    assert np.allclose(trace.normals, want, atol=1e-14)


def tangential_ratio(u):
    """Largest tangential component of the trace triangles' gradients,
    relative to the largest normal derivative."""
    trace = dirichlet_normal_derivative(u)
    gx, gy, _ = p1_gradient(u, u.mesh.inner_triangles)
    nx, ny = trace.normals.T
    return np.abs(gy * nx - gx * ny).max() / np.abs(trace.dudn).max()


@pytest.mark.parametrize("s, res", [
    (0.0, Resolution(64, 16, 1.5)),
    (2.0, Resolution(66, 16, 1.5)),
    (3.999, Resolution(130, 8, 0.5)),
])
def test_trace_gradient_is_normal_to_the_circle(s, res):
    # a field that vanishes on the inner circle has a P1 gradient normal to
    # each inner edge in the edge's triangle, to rounding
    d = AnnularDomain(0.5, 5.0, s)
    mesh = build_mesh(d, res)
    x, y = mesh.vertices.T
    vals = (np.hypot(x - d.s, y) - d.R0) * (2.0 + np.sin(3.0 * x + y))
    vals[mesh.lattice[:, 0]] = 0.0
    assert tangential_ratio(Field(vals, mesh)) <= 1e-10


def test_trace_requires_vanishing_values():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, Resolution(32, 8, 1.0))
    with pytest.raises(ValueError):
        dirichlet_normal_derivative(Field(np.ones(mesh.num_vertices), mesh))
    # a dn eigenfunction is pinned on the outer circle, not the inner one
    dn = solve_eigenproblem(discretize(d, Resolution(64, 16, 1.5)), ProblemKind.DN)
    with pytest.raises(ValueError, match="does not vanish on the inner circle"):
        dirichlet_normal_derivative(dn.u)


def test_trace_concentric_constant_and_negative():
    d = AnnularDomain(1.0, 2.0, 0.0)
    sol = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.ND)
    trace = dirichlet_normal_derivative(sol.u)
    assert np.all(trace.dudn < 0.0)
    spread = trace.dudn.max() - trace.dudn.min()
    assert spread <= 5e-3 * np.abs(trace.dudn).max()


def test_trace_negative_eccentric(nd_s2_128):
    trace = dirichlet_normal_derivative(nd_s2_128.u)
    assert np.all(trace.dudn < 0.0)
    assert tangential_ratio(nd_s2_128.u) <= 1e-10


@pytest.mark.parametrize("s", [2.0, 3.9])
@pytest.mark.parametrize("n_theta, n_rad", [(128, 32), (66, 16), (130, 32)])
def test_half_boundary_equals_full(n_theta, n_rad, s):
    # for n_theta = 2 mod 4 two inner edges cross x1 = s and pair with themselves
    d = AnnularDomain(1.0, 5.0, s)
    sol = solve_eigenproblem(discretize(d, Resolution(n_theta, n_rad, 1.5)), ProblemKind.ND)
    trace = dirichlet_normal_derivative(sol.u)
    had = hadamard_tau_prime(trace)
    half = half_boundary_tau_prime(trace, d)
    scale = float(np.sum(trace.dudn**2 * np.abs(trace.normals[:, 0]) * trace.lengths))
    assert abs(had - half) <= 1e-10 * max(abs(had), scale)


def test_paired_trace_ordering(nd_s2_128):
    # the mirror partner left of the line x1 = s carries the larger slope
    d = nd_s2_128.mesh.domain
    trace = dirichlet_normal_derivative(nd_s2_128.u)
    n = nd_s2_128.mesh.res.n_theta
    mirror = (n // 2 - 1 - np.arange(n)) % n
    right = trace.midpoints[:, 0] > d.s
    assert np.all(
        np.abs(trace.dudn[mirror[right]]) > np.abs(trace.dudn[right])
    )


def test_derivative_negative_and_fd_agreement(nd_s2_128):
    d = nd_s2_128.mesh.domain
    trace = dirichlet_normal_derivative(nd_s2_128.u)
    had = hadamard_tau_prime(trace)
    assert had < 0.0
    fd = finite_difference_tau_prime(d, 0.05, QUICK)
    assert had == pytest.approx(fd, rel=0.05)


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_eigenvalue_scaling_law(kind):
    # tau(c Omega) = tau(Omega) / c^2; scaling by 2 scales every vertex
    # exactly, by 3 only up to round-off.  At s = 0, where the two quad
    # diagonals tie, the split is fixed and round-off picks neither.  The
    # stopping test is relative to the eigenvalue, so it holds for small
    # and large c alike.
    def tau(c, s):
        d = AnnularDomain(1.0 * c, 5.0 * c, s * c)
        return solve_eigenproblem(discretize(d, QUICK), kind).value

    base = {s: tau(1.0, s) for s in (0.0, 2.0)}
    for c, s in ((2.0, 0.0), (3.0, 0.0), (2.0, 2.0), (3.0, 2.0),
                 (1e-3, 0.0), (1e-3, 2.0), (1e3, 2.0), (2.0**-20, 2.0)):
        assert abs(tau(c, s) * c * c - base[s]) <= 1e-13 * base[s], (c, s)


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


@pytest.mark.parametrize("exclusion", [-1.0, float("nan"), float("inf")])
def test_reflected_neumann_margin_rejects_bad_exclusion(nd_s2_128, exclusion):
    with pytest.raises(ValueError, match="exclusion must be finite and >= 0"):
        reflected_neumann_margin(nd_s2_128.u, exclusion=exclusion)


def test_reflected_neumann_margin_without_test_points(nd_s2_128):
    # every outer vertex lies within 20 of the two corners
    assert reflected_neumann_margin(nd_s2_128.u, exclusion=20.0) == (None, 0)


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
