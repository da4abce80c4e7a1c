"""Problem-level facade: first eigenpair of a boundary configuration.

Normalization is the discrete L2 inner product (``u^T M u = 1``) and the sign
is fixed globally so the first eigenfunction is nonnegative.  The eigenpair
is computed on the mirror-folded system of :func:`annulab.fem.reduce_system`,
so the returned field is exactly mirror symmetric across the x-axis by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import EigenPair, smallest_eigenpair
from .export import write_csv
from .fem import Field, ProblemKind, assemble_load, assemble_mass, assemble_stiffness, reduce_system
from .geometry import AnnularDomain
from .mesh import Mesh, build_mesh


@dataclass
class EigenSolution:
    value: float
    u: Field
    mesh: Mesh
    kind: ProblemKind
    pair: EigenPair


def solve_eigenproblem(
    domain: AnnularDomain,
    n_theta: int = 256,
    n_rad: int = 64,
    grading: float = 1.5,
    kind: ProblemKind = ProblemKind.ND,
    tol: float = 1e-9,
    mesh: Mesh | None = None,
) -> EigenSolution:
    """First eigenpair of the Laplacian on ``domain`` for the given kind.

    A prebuilt ``mesh`` may be passed to share discretizations between
    related solves (finite differencing in particular); it must match
    ``domain``.
    """
    if mesh is None:
        mesh = build_mesh(domain, n_theta, n_rad, grading)
    elif mesh.domain != domain:
        raise ValueError("prebuilt mesh belongs to a different domain")
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    b = assemble_load(mesh)
    Khat, Mhat, _, red = reduce_system(K, M, b, mesh, kind)
    pair = smallest_eigenpair(Khat, Mhat, tol=tol)
    u = Field(red.expand(pair.vector), mesh)
    return EigenSolution(value=pair.value, u=u, mesh=mesh, kind=kind, pair=pair)


def write_field_csv(field: Field, path):
    rows = (
        (float(x), float(y), float(v))
        for (x, y), v in zip(field.mesh.vertices, field.values)
    )
    write_csv(path, ("x", "y", "u"), rows)


def write_field_vtk(field: Field, path, name: str = "u"):
    field.mesh.write_vtk(path, point_data={name: field.values})
