"""Torsion function, torsional rigidity and its derivative in the offset.

The torsion function solves ``-Laplace v = 1`` with the inner circle pinned
and the outer one free; the rigidity is its Dirichlet energy, which at the
discrete solution coincides with the load functional (Galerkin).  Moving the
hole outward *increases* the rigidity, so the boundary-integral derivative
carries the opposite sign of the eigenvalue one.

The solve uses the ``nd`` system of a :class:`annulab.fem.Discretization`,
whose band Cholesky factor an ``nd`` eigen-solve on the same discretization
shares; its mirror fold makes the torsion function exactly mirror symmetric
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import dot
from .fem import Discretization, Field, ProblemKind, p1_gradient
from .geometry import AnnularDomain
from .mesh import Mesh, Resolution
from .shape import BoundaryTrace, hadamard_tau_prime, offset_difference
from .spectral import discretize


@dataclass
class TorsionSolution:
    """Torsion function and its rigidity ``T = b . v`` with the assembled load,
    summed by :func:`annulab.eigensolver.dot`."""

    v: Field
    mesh: Mesh
    T: float


def solve_torsion(disc: Discretization) -> TorsionSolution:
    """Torsion function on ``disc``: positive inside, zero on the inner circle.

    The solve shares the ``nd`` factorization with ``nd`` eigen-solves on
    ``disc``.
    """
    system = disc.system(ProblemKind.ND)
    v = Field(system.expand(system.factor.solve(system.b)), disc.mesh)
    return TorsionSolution(v=v, mesh=disc.mesh, T=dot(disc.b, v.values))


def torsional_rigidity(v: Field) -> tuple[float, float]:
    """Rigidity both ways: Dirichlet energy and integral of the function.

    Both are sums over triangles of the P1 gradient and the vertex mean, so
    nothing is assembled.  They agree to solver accuracy at the discrete
    solution; both are returned so the identity can be asserted.
    """
    gx, gy, area = p1_gradient(v)
    t_energy = float(np.sum(area * (gx**2 + gy**2)))
    t_integral = float(np.sum(area * v.values[v.mesh.triangles].sum(axis=1)) / 3.0)
    return t_energy, t_integral


def rigidity_derivative(trace: BoundaryTrace) -> float:
    """Derivative of the rigidity in the offset: the eigenvalue's boundary
    form with the opposite sign, plus the n1-weighted square."""
    return -hadamard_tau_prime(trace)


def finite_difference_rigidity_prime(
    domain: AnnularDomain, h: float, res: Resolution
) -> float:
    """:func:`annulab.shape.offset_difference` of the rigidity in the offset."""

    def t_at(s):
        return solve_torsion(discretize(AnnularDomain(domain.R0, domain.R1, s), res)).T

    return offset_difference(t_at, domain, h)
