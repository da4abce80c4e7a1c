"""Torsion function, torsional rigidity and its derivative in the offset.

The torsion function solves ``-Laplace v = 1`` with the inner circle pinned
and the outer one free; the rigidity is its Dirichlet energy, which at the
discrete solution coincides with the load functional (Galerkin).  Moving the
hole outward *increases* the rigidity, so the boundary-integral derivative
carries the opposite sign of the eigenvalue one.

The solve is one sparse LU of the mirror-folded stiffness of
:func:`annulab.fem.reduce_system`, so the torsion function is exactly mirror
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import factorize
from .fem import Field, ProblemKind, assemble_load, assemble_mass, assemble_stiffness, reduce_system
from .geometry import AnnularDomain
from .mesh import Mesh, build_mesh
from .shape import BoundaryTrace, dirichlet_normal_derivative


@dataclass
class TorsionSolution:
    v: Field
    mesh: Mesh


def solve_torsion(
    domain: AnnularDomain,
    n_theta: int = 256,
    n_rad: int = 64,
    grading: float = 1.5,
    mesh: Mesh | None = None,
) -> TorsionSolution:
    """Torsion function of ``domain``: positive inside, zero on the inner circle."""
    if mesh is None:
        mesh = build_mesh(domain, n_theta, n_rad, grading)
    elif mesh.domain != domain:
        raise ValueError("prebuilt mesh belongs to a different domain")
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    b = assemble_load(mesh)
    Khat, _, bhat, red = reduce_system(K, M, b, mesh, ProblemKind.ND)
    x = factorize(Khat).solve(bhat)
    return TorsionSolution(v=Field(red.expand(x), mesh), mesh=mesh)


def torsional_rigidity(v: Field) -> tuple[float, float]:
    """Rigidity both ways: Dirichlet energy and integral of the function.

    The two agree to solver accuracy at the discrete solution; both are
    returned so the identity can be asserted.
    """
    mesh = v.mesh
    K = assemble_stiffness(mesh)
    b = assemble_load(mesh)
    t_energy = K.quadratic_form(v.values)
    t_integral = float(b @ v.values)
    return t_energy, t_integral


def rigidity_derivative(trace: BoundaryTrace) -> float:
    """Derivative of the rigidity in the offset: plus the n1-weighted square."""
    return float(np.sum(trace.dudn**2 * trace.normals[:, 0] * trace.lengths))


def torsion_trace(v: Field) -> BoundaryTrace:
    return dirichlet_normal_derivative(v, ProblemKind.ND)


def finite_difference_rigidity_prime(
    domain: AnnularDomain,
    h: float = 0.05,
    n_theta: int = 256,
    n_rad: int = 64,
    grading: float = 1.5,
) -> float:
    """Central difference of the rigidity in the offset, one-sided at s = 0.

    The s = 0 stencil is the second-order one-sided one, for the same reason
    as the eigenvalue difference: the rigidity is even in the offset.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    room = domain.R1 - domain.R0 - domain.s
    limit = room / 8.0 if domain.s == 0.0 else min(domain.s, room) / 4.0
    if h > limit:
        raise ValueError(f"step {h} too large; must be <= {limit}")

    def t_at(s):
        dd = AnnularDomain(domain.R0, domain.R1, s)
        sol = solve_torsion(dd, n_theta, n_rad, grading)
        return torsional_rigidity(sol.v)[1]

    if domain.s == 0.0:
        return (-3.0 * t_at(0.0) + 4.0 * t_at(h) - t_at(2.0 * h)) / (2.0 * h)
    return (t_at(domain.s + h) - t_at(domain.s - h)) / (2.0 * h)
