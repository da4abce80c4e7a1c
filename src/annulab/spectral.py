"""Problem-level facade: first eigenpair of a boundary configuration.

Normalization is the discrete L2 inner product (``u^T M u = 1``) and the sign
is fixed globally so the first eigenfunction is nonnegative.  The eigenpair
is computed on the mirror-folded band matrices of a
:class:`annulab.fem.Discretization`, so the returned field is exactly mirror
symmetric across the x-axis by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigensolver import TOL, EigenPair, smallest_eigenpair
from .fem import Discretization, Field, ProblemKind
from .geometry import AnnularDomain
from .mesh import Mesh, Resolution, build_mesh


@dataclass
class EigenSolution:
    value: float
    u: Field
    mesh: Mesh
    kind: ProblemKind
    pair: EigenPair


def discretize(domain: AnnularDomain, res: Resolution) -> Discretization:
    """The discretization of ``domain`` at resolution ``res``.

    Related solves on one mesh pass one discretization so that they share
    its operators and factorizations.
    """
    return Discretization(build_mesh(domain, res))


def solve_eigenproblem(
    disc: Discretization, kind: ProblemKind = ProblemKind.ND, tol: float = TOL
) -> EigenSolution:
    """First eigenpair of the Laplacian on ``disc`` for the given kind."""
    system = disc.system(kind)
    # take the mass before the factor exists, so that the assembly
    # temporaries are freed before the band is allocated and do not raise the
    # peak memory of a large solve
    m = disc.reduced_mass(kind)
    pair = smallest_eigenpair(system.K, m, system.factor, tol=tol)
    u = Field(system.expand(pair.vector), disc.mesh)
    return EigenSolution(value=pair.value, u=u, mesh=disc.mesh, kind=kind, pair=pair)

