"""P1 assembly of stiffness, mass and load, and the reduced systems.

The three boundary configurations share one code path: ``ND`` pins the inner
circle, ``DN`` the outer one, ``DD`` both.  Dirichlet conditions are imposed
by eliminating the pinned rows/columns, never by penalties, so the reduced
stiffness stays well conditioned.  Neumann conditions are natural and add no
terms.

Assembled operators are made *exactly* symmetric and *exactly* invariant
under the mesh mirror permutation by averaging with their transpose/mirrored
images; both averages are exact in floating point because addition is
commutative and halving is lossless.

The reduction also folds the x2-mirror: a free vertex and its mirror image
share one unknown.  The first eigenfunctions and the torsion function of a
domain symmetric about the x1-axis are symmetric (each is the positive
ground state of a simple eigenvalue, or the unique solution), so the folded
systems have the same solutions with about half the unknowns, and expanded
fields are mirror symmetric by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

# explicit stored values smaller than this are pruned after assembly
ZERO_PRUNE = 1e-300


class ProblemKind(enum.Enum):
    """Boundary configuration: Dirichlet/Neumann split of the two circles."""

    ND = "nd"  # Dirichlet inner, Neumann outer
    DN = "dn"  # Neumann inner, Dirichlet outer
    DD = "dd"  # Dirichlet on the whole boundary

    @classmethod
    def parse(cls, name: str) -> "ProblemKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown problem kind {name!r}; expected nd, dn or dd")


@dataclass
class SparseSymMatrix:
    """Symmetric sparse matrix backed by CSR storage."""

    csr: sp.csr_matrix

    def __post_init__(self):
        a = self.csr.tocsr()
        if a.nnz:
            a.data[np.abs(a.data) < ZERO_PRUNE] = 0.0
            a.eliminate_zeros()
        diff = a - a.T
        if diff.nnz and np.abs(diff.data).max() > 0.0:
            raise ValueError("matrix is not symmetric")
        self.csr = a

    @property
    def dimension(self) -> int:
        return self.csr.shape[0]

    def __matmul__(self, x):
        return self.csr @ x

    def quadratic_form(self, x) -> float:
        return float(x @ (self.csr @ x))

    def toarray(self):
        return self.csr.toarray()


@dataclass
class Field:
    """Per-vertex scalar values of a finite element function."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_vertices,):
            raise ValueError(
                f"field length {self.values.shape} does not match "
                f"{self.mesh.num_vertices} mesh vertices"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def at(self, pts, outside: str = "error"):
        return self.mesh.interpolate(self.values, pts, outside=outside)


def _p1_geometry(coords: np.ndarray):
    """Shape-function data for (nt, 3, 2) triangle coordinates."""
    x = coords[..., 0]
    y = coords[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    return b, c, 0.5 * area2


MASS_BLOCK = (np.ones((3, 3)) + np.eye(3)) / 12.0


def p1_local_matrices(coords: np.ndarray):
    """Per-triangle stiffness and mass blocks for (nt, 3, 2) coordinates."""
    coords = np.asarray(coords, dtype=float)
    single = coords.ndim == 2
    if single:
        coords = coords[None]
    b, c, area = _p1_geometry(coords)
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    me = area[:, None, None] * MASS_BLOCK[None, :, :]
    if single:
        return ke[0], me[0]
    return ke, me


def _scatter(mesh: Mesh, local):
    """Sum (nt, 3, 3) local matrices into a global CSR matrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.num_vertices
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    return a


def _transpose_average(a) -> sp.csr_matrix:
    # an exact projection: fl(x + y) = fl(y + x) and the halving is a power
    # of two
    return (0.5 * (a + a.T)).tocsr()


def _symmetrize(a: sp.csr_matrix, mirror: np.ndarray) -> sp.csr_matrix:
    # the mirror average is exact for the same reason
    a = _transpose_average(a)
    a = (0.5 * (a + a[mirror][:, mirror])).tocsr()
    a.sort_indices()
    return a


def assemble_stiffness(mesh: Mesh) -> SparseSymMatrix:
    """Stiffness matrix of the Laplacian: K_ij = integral grad phi_i . grad phi_j."""
    ke, _ = p1_local_matrices(mesh.vertices[mesh.triangles])
    return SparseSymMatrix(_symmetrize(_scatter(mesh, ke), mesh.mirror))


def assemble_mass(mesh: Mesh) -> SparseSymMatrix:
    """Consistent P1 mass matrix: local block area/12 * [[2,1,1],[1,2,1],[1,1,2]]."""
    _, me = p1_local_matrices(mesh.vertices[mesh.triangles])
    return SparseSymMatrix(_symmetrize(_scatter(mesh, me), mesh.mirror))


def assemble_load(mesh: Mesh) -> np.ndarray:
    """Load vector of the unit source: b_i = integral phi_i = adjacent area / 3."""
    _, _, area = _p1_geometry(mesh.vertices[mesh.triangles])
    b = np.zeros(mesh.num_vertices)
    np.add.at(b, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return 0.5 * (b + b[mesh.mirror])


def dirichlet_vertices(mesh: Mesh, kind: ProblemKind) -> np.ndarray:
    """Sorted indices of vertices pinned to zero for the given configuration."""
    parts = []
    if kind in (ProblemKind.ND, ProblemKind.DD):
        parts.append(mesh.lattice[:, 0])
    if kind in (ProblemKind.DN, ProblemKind.DD):
        parts.append(mesh.lattice[:, mesh.n_rad])
    return np.sort(np.concatenate(parts))


@dataclass
class Reduction:
    """Index map between full vertex vectors and the reduced unknowns.

    The unknowns are the mirror orbits of the free (unpinned) vertices:
    ``orbit[k]`` is the unknown of vertex ``free[k]``, shared with its mirror
    image.  Reduced vectors are the mirror-symmetric functions that vanish on
    the Dirichlet set.
    """

    free: np.ndarray
    orbit: np.ndarray
    full_size: int

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Full vertex vector: each orbit value copied to its vertices."""
        out = np.zeros(self.full_size)
        out[self.free] = np.asarray(x)[self.orbit]
        return out


def reduce_system(
    K: SparseSymMatrix,
    M: SparseSymMatrix,
    b: np.ndarray,
    mesh: Mesh,
    kind: ProblemKind,
):
    """Eliminate Dirichlet rows/columns and fold the mirror.

    Returns ``(Khat, Mhat, bhat, reduction)`` with ``Khat = P^T K P``,
    ``Mhat = P^T M P`` and ``bhat = P^T b``, where ``P`` is the 0/1 matrix of
    :meth:`Reduction.expand`.  Quadratic forms are preserved:
    ``x^T Khat x = (P x)^T K (P x)``.
    """
    pinned = dirichlet_vertices(mesh, kind)
    if pinned.size == 0:
        raise ValueError("empty Dirichlet set: the pure Neumann problem is singular")
    n = mesh.num_vertices
    free = np.setdiff1d(np.arange(n), pinned, assume_unique=False)
    pos = np.full(n, -1)
    pos[free] = np.arange(free.size)
    image = pos[mesh.mirror[free]]
    if np.any(image < 0):
        raise ValueError("mirror does not preserve the free vertex set")
    # an orbit is named by its smaller free position
    _, orbit = np.unique(np.minimum(np.arange(free.size), image), return_inverse=True)
    P = sp.csr_matrix(
        (np.ones(free.size), (free, orbit)), shape=(n, int(orbit.max()) + 1)
    )
    Pt = P.T.tocsr()

    def fold(A: SparseSymMatrix) -> SparseSymMatrix:
        return SparseSymMatrix(_transpose_average(Pt @ A.csr @ P))

    red = Reduction(free=free, orbit=orbit, full_size=n)
    return fold(K), fold(M), Pt @ np.asarray(b), red
