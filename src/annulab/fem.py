"""P1 discretization: one :class:`Discretization` per mesh.

A discretization assembles the stiffness, mass and load of its mesh once and
builds, per boundary configuration, the reduced system and its one sparse LU.

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
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .eigensolver import factorize
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


def p1_gradient(u: Field, tids=slice(None)):
    """Constant P1 gradient of ``u`` on the triangles ``tids``.

    Returns ``(gx, gy, area)``; the gradient is ``sum_k u_k (b_k, c_k) /
    (2 area)`` with the shape-function coefficients of the assembly, and
    ``area`` equals ``mesh.areas`` bit for bit.
    """
    mesh = u.mesh
    tri = mesh.triangles[tids]
    b, c, area = _p1_geometry(mesh.vertices[tri])
    uv = u.values[tri]
    gx = np.einsum("ij,ij->i", uv, b) / (2.0 * area)
    gy = np.einsum("ij,ij->i", uv, c) / (2.0 * area)
    return gx, gy, area


MASS_BLOCK = (np.ones((3, 3)) + np.eye(3)) / 12.0


def p1_local_stiffness(coords: np.ndarray) -> np.ndarray:
    """Per-triangle stiffness blocks for (nt, 3, 2) coordinates."""
    b, c, area = _p1_geometry(coords)
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]


def p1_local_mass(area: np.ndarray) -> np.ndarray:
    """Per-triangle consistent mass blocks for the (nt,) triangle areas."""
    return area[:, None, None] * MASS_BLOCK[None, :, :]


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


def _exactly_symmetric(a) -> sp.csr_matrix:
    """``a`` as CSR with explicit near-zeros pruned; raises unless ``a == a^T``."""
    a = a.tocsr()
    if a.nnz:
        a.data[np.abs(a.data) < ZERO_PRUNE] = 0.0
        a.eliminate_zeros()
    diff = a - a.T
    if diff.nnz and np.abs(diff.data).max() > 0.0:
        raise ValueError("matrix is not symmetric")
    return a


def dirichlet_vertices(mesh: Mesh, kind: ProblemKind) -> np.ndarray:
    """Sorted indices of vertices pinned to zero for the given configuration."""
    parts = []
    if kind in (ProblemKind.ND, ProblemKind.DD):
        parts.append(mesh.lattice[:, 0])
    if kind in (ProblemKind.DN, ProblemKind.DD):
        parts.append(mesh.lattice[:, mesh.res.n_rad])
    return np.sort(np.concatenate(parts))


@dataclass
class ReducedSystem:
    """One kind's Dirichlet-reduced, mirror-folded system and the LU of ``K``.

    The unknowns are the mirror orbits of the free (unpinned) vertices:
    ``orbit[k]`` is the unknown of vertex ``free[k]``, shared with its mirror
    image.  Reduced vectors are the mirror-symmetric functions that vanish on
    the Dirichlet set.  With ``P`` the 0/1 matrix of :meth:`expand`,
    ``K = P^T K_full P``, ``M = P^T M_full P`` and ``b = P^T b_full``, so
    quadratic forms are preserved: ``x^T K x = (P x)^T K_full (P x)``.

    ``M`` is folded on first use, from the mass of the discretization,
    which must still be alive then; torsion solves never read it.
    """

    K: sp.csr_matrix
    b: np.ndarray
    free: np.ndarray
    orbit: np.ndarray
    full_size: int
    lu: spla.SuperLU
    P: sp.csr_matrix
    Pt: sp.csr_matrix
    # weak, so that a discretization and its cached systems form no cycle
    # and their factorizations are freed as soon as the last user lets go
    owner: weakref.ref
    # a plain lazy attribute: functools.cached_property would serialize the
    # folds of all systems behind one lock on Python < 3.12
    _M: sp.csr_matrix | None = field(default=None, init=False, repr=False)

    @property
    def M(self) -> sp.csr_matrix:
        if self._M is None:
            disc = self.owner()
            if disc is None:
                raise ReferenceError("the discretization of this system is gone")
            self._M = _exactly_symmetric(_transpose_average(self.Pt @ disc.M @ self.P))
        return self._M

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Full vertex vector: each orbit value copied to its vertices."""
        out = np.zeros(self.full_size)
        out[self.free] = np.asarray(x)[self.orbit]
        return out


class Discretization:
    """The P1 operators of one mesh, shared by every problem kind and torsion.

    ``K`` and ``b`` are assembled on construction and ``M`` on first use.
    The reduced system of a kind, with the one LU of its stiffness, is built
    on the first :meth:`system` request and kept, so the ``nd`` eigen-solve
    and the torsion solve share one factorization.  The ``assemble_*`` and
    :meth:`reduce_system` methods do the work uncached; each is called at
    most once per discretization.  The factorizations are most of the
    memory: keep a discretization only as long as the solves that share it.
    Solutions hold the mesh, never the discretization.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.K = self.assemble_stiffness()
        self.b = self.assemble_load()
        self._M: sp.csr_matrix | None = None
        self._systems: dict[ProblemKind, ReducedSystem] = {}

    @property
    def M(self) -> sp.csr_matrix:
        """The mass matrix, assembled on first use."""
        if self._M is None:
            self._M = self.assemble_mass()
        return self._M

    def assemble_stiffness(self) -> sp.csr_matrix:
        """Stiffness matrix of the Laplacian: K_ij = integral grad phi_i . grad phi_j."""
        mesh = self.mesh
        ke = p1_local_stiffness(mesh.vertices[mesh.triangles])
        return _exactly_symmetric(_symmetrize(_scatter(mesh, ke), mesh.mirror))

    def assemble_mass(self) -> sp.csr_matrix:
        """Consistent P1 mass matrix: local block area/12 * [[2,1,1],[1,2,1],[1,1,2]]."""
        mesh = self.mesh
        me = p1_local_mass(mesh.areas)
        return _exactly_symmetric(_symmetrize(_scatter(mesh, me), mesh.mirror))

    def assemble_load(self) -> np.ndarray:
        """Load vector of the unit source: b_i = integral phi_i = adjacent area / 3."""
        mesh = self.mesh
        b = np.zeros(mesh.num_vertices)
        np.add.at(b, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
        return 0.5 * (b + b[mesh.mirror])

    def system(self, kind: ProblemKind) -> ReducedSystem:
        """The reduced system of ``kind``, built and factored on first request."""
        if kind not in self._systems:
            self._systems[kind] = self.reduce_system(kind)
        return self._systems[kind]

    def reduce_system(self, kind: ProblemKind) -> ReducedSystem:
        """Eliminate the Dirichlet rows/columns of ``kind``, fold the mirror and
        factor the reduced stiffness."""
        mesh = self.mesh
        pinned = dirichlet_vertices(mesh, kind)
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
        K = _exactly_symmetric(_transpose_average(Pt @ self.K @ P))
        return ReducedSystem(
            K=K, b=Pt @ self.b, free=free, orbit=orbit, full_size=n,
            lu=factorize(K), P=P, Pt=Pt, owner=weakref.ref(self),
        )
