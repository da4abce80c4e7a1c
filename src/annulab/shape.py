"""Derivative of the first eigenvalue under translations of the inner hole.

Three evaluations are provided and cross-checked:

* a boundary integral of the squared normal derivative over the inner circle,
  weighted by the first normal component;
* the same integral regrouped over the half circle right of ``x1 = s`` by
  pairing each edge with its mirror image: an exact discrete rearrangement;
* central finite differences of the eigenvalue in the offset.

The outward normal of the annulus is used everywhere; on the inner circle it
points into the hole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import exclusion_radius, recover_gradient
from .eigensolver import TOL
from .fem import Field, ProblemKind, p1_gradient
from .geometry import AnnularDomain
from .mesh import Mesh, Resolution
from .spectral import discretize, solve_eigenproblem

# the default offset step of the finite-difference derivative is the
# annulus width over FD_STEPS, where the room at the offset allows it
FD_STEPS = 80


@dataclass
class BoundaryTrace:
    """Per-edge normal derivative data on the inner (Dirichlet) circle.

    ``normals`` are outward unit normals of the annulus evaluated at edge
    midpoints, i.e. they point toward the inner center.
    """

    midpoints: np.ndarray  # (E, 2)
    normals: np.ndarray  # (E, 2)
    lengths: np.ndarray  # (E,)
    dudn: np.ndarray  # (E,)
    mesh: Mesh


def dirichlet_normal_derivative(u: Field) -> BoundaryTrace:
    """One-sided normal derivative of ``u`` on the inner circle.

    Each inner boundary edge has a unique adjacent triangle,
    ``mesh.inner_triangles``, whose constant P1 gradient is already normal
    to the edge (``u`` must vanish on the circle), so dotting with the
    outward normal loses nothing.
    """
    mesh = u.mesh
    d = mesh.domain
    vals = u.values
    pinned = vals[mesh.lattice[:, 0]]
    if np.abs(pinned).max() > 1e-12 * max(np.abs(vals).max(), 1.0):
        raise ValueError("field does not vanish on the inner circle")

    edges = mesh.inner_edges  # (n_theta, 2), ccw
    gx, gy, _ = p1_gradient(u, mesh.inner_triangles)

    v0 = mesh.vertices[edges[:, 0]]
    v1 = mesh.vertices[edges[:, 1]]
    mid = 0.5 * (v0 + v1)
    lengths = np.hypot(*(v1 - v0).T)
    normals = d.inner_center - mid
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    dudn = gx * normals[:, 0] + gy * normals[:, 1]

    return BoundaryTrace(
        midpoints=mid, normals=normals, lengths=lengths, dudn=dudn, mesh=mesh
    )


def hadamard_tau_prime(trace: BoundaryTrace) -> float:
    """Eigenvalue derivative: minus the n1-weighted square of the trace."""
    return -float(np.sum(trace.dudn**2 * trace.normals[:, 0] * trace.lengths))


def half_boundary_tau_prime(trace: BoundaryTrace, domain: AnnularDomain) -> float:
    """Same derivative regrouped over the half circle right of x1 = s.

    Each edge with midpoint ``x1 > s`` contributes
    ``(dudn(mirror)^2 - dudn^2) n1 length``; this is an exact rearrangement
    of the full sum because the inner circle is built mirror symmetric.
    """
    n = trace.mesh.res.n_theta
    # index of the x1 = s mirror image of each inner edge
    mirror = (n // 2 - 1 - np.arange(n)) % n
    mid_x = trace.midpoints[:, 0]
    right = mid_x > domain.s
    m = mirror[right]
    diff = trace.dudn[m] ** 2 - trace.dudn[right] ** 2
    return float(np.sum(diff * trace.normals[right, 0] * trace.lengths[right]))


def max_fd_step(domain: AnnularDomain) -> float:
    """Largest offset step of :func:`offset_difference` at ``domain``.

    ``min(s, R1 - R0 - s)/4``, or ``(R1 - R0)/8`` at s = 0, where the
    second-order one-sided stencil needs 2h of room.
    """
    room = domain.R1 - domain.R0 - domain.s
    return room / 8.0 if domain.s == 0.0 else min(domain.s, room) / 4.0


def default_fd_step(domain: AnnularDomain) -> float:
    """``min((R1 - R0)/FD_STEPS, max_fd_step(domain))``: a step that scales
    with the annulus."""
    return min((domain.R1 - domain.R0) / FD_STEPS, max_fd_step(domain))


def check_fd_step(domain: AnnularDomain, h: float) -> None:
    """``ValueError`` unless ``0 < h <= max_fd_step(domain)``."""
    if not h > 0.0:
        raise ValueError("step must be positive")
    limit = max_fd_step(domain)
    if h > limit:
        raise ValueError(f"step {h} too large; must be <= {limit}")


def offset_points(domain: AnnularDomain, h: float) -> tuple[float, float]:
    """The offsets whose values :func:`offset_difference` takes, beside
    ``f(0)`` at s = 0: ``(s - h, s + h)``, or ``(h, 2h)`` at s = 0."""
    check_fd_step(domain, h)
    if domain.s == 0.0:
        return h, 2.0 * h
    return domain.s - h, domain.s + h


def offset_difference(
    f, domain: AnnularDomain, h: float, center: float | None = None
) -> float:
    """Difference quotient of ``f(s)`` at ``domain.s``: central, one-sided at s = 0.

    The s = 0 stencil is the second-order one-sided one; the plain forward
    difference would pick up the O(h) curvature term of a function even in
    the offset, as the eigenvalue and the rigidity are.  It takes ``f(0)``
    from ``center`` when the caller already holds it.  ``f`` is called at
    :func:`offset_points` only, so it may look up values solved before.
    """
    lo, hi = offset_points(domain, h)
    if domain.s == 0.0:
        f0 = f(0.0) if center is None else center
        return (-3.0 * f0 + 4.0 * f(lo) - f(hi)) / (2.0 * h)
    return (f(hi) - f(lo)) / (2.0 * h)


def offset_eigenvalue(
    domain: AnnularDomain,
    s: float,
    res: Resolution,
    kind: ProblemKind = ProblemKind.ND,
    tol: float = TOL,
) -> float:
    """First eigenvalue of ``kind`` with the radii of ``domain`` at offset
    ``s``: one re-solve of :func:`finite_difference_tau_prime`."""
    disc = discretize(AnnularDomain(domain.R0, domain.R1, s), res)
    return solve_eigenproblem(disc, kind, tol).value


def finite_difference_tau_prime(
    domain: AnnularDomain,
    h: float,
    res: Resolution,
    kind: ProblemKind = ProblemKind.ND,
    tol: float = TOL,
    center: float | None = None,
) -> float:
    """:func:`offset_difference` of the eigenvalue in the offset.

    All re-solves use the identical resolution so the discretization bias
    cancels in the difference.  ``center`` is the eigenvalue at ``domain``
    with this ``res``, ``kind`` and ``tol``, when the caller has solved it.
    """
    return offset_difference(
        lambda s: offset_eigenvalue(domain, s, res, kind, tol), domain, h, center
    )


def reflected_neumann_margin(u: Field, exclusion: float | None = None):
    """Worst value of the reflected normal-derivative proxy on the outer circle.

    For an outer vertex ``x`` with ``x1 > s`` the composition of ``u`` with
    the reflection across ``x1 = s`` has outward normal derivative
    ``grad u(sigma x) . ((-x1, x2)/R1)``; it is positive away from the two
    points where the outer circle meets the reflection line, which are
    skipped within ``exclusion`` (default ``EXCLUSION R1``, validated by
    :func:`~annulab.checks.exclusion_radius`).  Returns ``(min proxy, number
    of tested vertices)``, or ``(None, 0)`` when no vertex is tested.
    """
    mesh = u.mesh
    d = mesh.domain
    exclusion = exclusion_radius(exclusion, d.R1)
    corners_y = np.sqrt(max(d.R1**2 - d.s**2, 0.0))
    outer = mesh.vertices[mesh.lattice[:, mesh.res.n_rad]]
    sel = outer[:, 0] > d.s
    for cy in (corners_y, -corners_y):
        sel &= np.hypot(outer[:, 0] - d.s, outer[:, 1] - cy) > exclusion
    pts = outer[sel]
    if not len(pts):
        return None, 0
    st = mesh.stencil(np.stack([2.0 * d.s - pts[:, 0], pts[:, 1]], axis=1))
    g = recover_gradient(u)
    proxy = (st.apply(g[:, 0]) * (-pts[:, 0]) + st.apply(g[:, 1]) * pts[:, 1]) / d.R1
    return float(proxy.min()), len(pts)
