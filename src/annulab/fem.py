"""P1 discretization: one :class:`Discretization` per mesh.

A discretization assembles the load of its mesh and builds, per boundary
configuration, the reduced system and its one band Cholesky factor.

The three boundary configurations share one code path: ``ND`` pins the inner
circle, ``DN`` the outer one, ``DD`` both.  Dirichlet conditions are imposed
by eliminating the pinned rows/columns, never by penalties, so the reduced
stiffness stays well conditioned.  Neumann conditions are natural and add no
terms.

The reduction also folds the x2-mirror: a free vertex and its mirror image
share one unknown.  The first eigenfunctions and the torsion function of a
domain symmetric about the x1-axis are symmetric (each is the positive
ground state of a simple eigenvalue, or the unique solution), so the folded
systems have the same solutions with about half the unknowns, and expanded
fields are mirror symmetric by construction.

Stiffness and mass are folded once per mesh, never formed at full size:
entry ``(I, J)`` of ``P^T A P``, with ``P`` the 0/1 expansion of the mirror
orbits, sums the local P1 block entries of the triangle corners in the
orbits ``I`` and ``J``.  The orbits are numbered ray by ray, ``L`` to a ray,
so ``np.bincount`` sums the entries with ``I >= J`` straight into the
lower diagonals 0, 1, ``L - 1``, ``L`` and ``L + 1`` of a
:class:`~annulab.eigensolver.SymmetricBand`, exactly symmetric by storage.
No mirror average is needed, since ``P`` is mirror invariant.  A kind's
reduced operator is the principal submatrix on its free orbits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import BandCholesky, SymmetricBand, factorize
from .mesh import Mesh, p1_coefficients


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


def p1_gradient(u: Field, tids=slice(None)):
    """Constant P1 gradient of ``u`` on the triangles ``tids``.

    Returns ``(gx, gy, area)``; the gradient is ``sum_k u_k (b_k, c_k) /
    (2 area)`` with the coefficients of :func:`~annulab.mesh.p1_coefficients`,
    and ``area`` equals ``mesh.areas`` bit for bit.
    """
    mesh = u.mesh
    tri = mesh.triangles[tids]
    b, c, area = p1_coefficients(np.take(mesh.vertices, tri, axis=0))
    uv = u.values[tri]
    gx = np.einsum("ij,ij->i", uv, b) / (2.0 * area)
    gy = np.einsum("ij,ij->i", uv, c) / (2.0 * area)
    return gx, gy, area


MASS_BLOCK = (np.ones((3, 3)) + np.eye(3)) / 12.0


def p1_local_stiffness(coords: np.ndarray) -> np.ndarray:
    """Per-triangle stiffness blocks for (nt, 3, 2) coordinates."""
    b, c, area = p1_coefficients(coords)
    q = 4.0 * area
    ke = np.empty((coords.shape[0], 3, 3))
    for i in range(3):
        for j in range(i, 3):
            ke[:, i, j] = ke[:, j, i] = (b[:, i] * b[:, j] + c[:, i] * c[:, j]) / q
    return ke


def p1_local_mass(area: np.ndarray) -> np.ndarray:
    """Per-triangle consistent mass blocks for the (nt,) triangle areas."""
    return area[:, None, None] * MASS_BLOCK[None, :, :]


def dirichlet_vertices(mesh: Mesh, kind: ProblemKind) -> np.ndarray:
    """Sorted indices of vertices pinned to zero for the given configuration."""
    parts = []
    if kind in (ProblemKind.ND, ProblemKind.DD):
        parts.append(mesh.lattice[:, 0])
    if kind in (ProblemKind.DN, ProblemKind.DD):
        parts.append(mesh.lattice[:, mesh.res.n_rad])
    return np.sort(np.concatenate(parts))


def _orbits(mesh: Mesh):
    """``(orbit, rep)``: the mirror orbit of every vertex, and the smaller
    vertex of each orbit.  The orbits are numbered by their smaller vertex,
    so ray by ray."""
    own = np.arange(mesh.num_vertices)
    if np.any(mesh.mirror[mesh.mirror] != own):
        raise ValueError("mirror is not an involution of the vertices")
    first = mesh.mirror >= own
    return (np.cumsum(first) - 1)[np.minimum(own, mesh.mirror)], own[first]


def _band(entries, dim: int, rays: int) -> SymmetricBand:
    """The symmetric matrix whose lower triangle sums the ``entries``:
    triples of arrays ``(offset, col, values)``, of values at the rows
    ``col + offset`` and the columns ``col``.  Negative offsets are dropped,
    and ``offset`` is overwritten.  The ``dim`` unknowns are numbered ray by
    ray, ``L = dim // rays`` to a ray, so the offsets are 0, 1, ``L - 1``,
    ``L`` and ``L + 1``."""
    L = dim // rays
    offsets = np.array([0, 1, L - 1, L, L + 1])
    # row k of a (7, dim) array of bins holds the diagonal offsets[k] by
    # column; row 5 takes the negative offsets and row 6 any other offset,
    # by row.  `first` is indexed by offset + dim - 1
    first = np.full(2 * dim - 1, 5 * dim)
    first[dim - 1 :] = 6 * dim + np.arange(dim)
    first[offsets + dim - 1] = np.arange(5) * dim
    bins = np.zeros(7 * dim)
    for offset, col, values in entries:
        offset += dim - 1
        # in place: take buffers its output only in mode "raise"
        target = np.take(first, offset, out=offset, mode="clip")
        target += col
        bins += np.bincount(target, weights=values, minlength=7 * dim)
    bins = bins.reshape(7, dim)
    if np.any(bins[6]):
        raise ValueError("the unknowns are not numbered ray by ray")
    diagonals = [bins[k, : dim - o] for k, o in enumerate(offsets)]
    # a diagonal that is zero throughout is left out
    kept = [k for k, d in enumerate(diagonals) if k == 0 or d.any()]
    return SymmetricBand(offsets[kept], [diagonals[k] for k in kept])


def _principal(A: SymmetricBand, keep: np.ndarray, rays: int) -> SymmetricBand:
    """The principal submatrix of ``A`` on the sorted indices ``keep``, the
    same number on each of ``rays`` rays."""
    pos = np.full(A.shape[0], -1)
    pos[keep] = np.arange(keep.size)
    entries = []
    for o, d in zip(A.offsets, A.diagonals):
        # the kept columns j whose row j + o is kept too
        j = keep[: np.searchsorted(keep, d.size)]
        i = pos[j + o]
        at = np.flatnonzero(i >= 0)
        entries.append((i[at] - at, at, d[j[at]]))
    return _band(entries, keep.size, rays)


@dataclass
class ReducedSystem:
    """One kind's Dirichlet-reduced, mirror-folded system.

    The unknowns are the mirror orbits of the free (unpinned) vertices:
    ``orbit[k]`` is the unknown of vertex ``free[k]``, shared with its mirror
    image, and ``kept[I]`` is the discretization's orbit of unknown ``I``.
    Reduced vectors are the mirror-symmetric functions that vanish on
    the Dirichlet set.  With ``P`` the 0/1 matrix of :meth:`expand`,
    ``K = P^T K_full P`` and ``b = P^T b_full``, so quadratic forms are
    preserved: ``x^T K x = (P x)^T K_full (P x)``.  ``factor``, the band
    Cholesky of ``K``, is computed on first use.
    """

    K: SymmetricBand
    b: np.ndarray
    free: np.ndarray
    orbit: np.ndarray
    kept: np.ndarray
    full_size: int
    _factor: BandCholesky | None = field(default=None, init=False, repr=False)

    @property
    def factor(self) -> BandCholesky:
        if self._factor is None:
            self._factor = factorize(self.K)
        return self._factor

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Full vertex vector: each orbit value copied to its vertices."""
        out = np.zeros(self.full_size)
        out[self.free] = np.asarray(x)[self.orbit]
        return out


class Discretization:
    """The P1 operators of one mesh, shared by every problem kind and torsion.

    ``b`` is assembled on construction, the folded stiffness and mass on
    first use, so torsion solves assemble no mass.  The reduced system of a
    kind is built on the first :meth:`system` request and kept, so the
    ``nd`` eigen-solve and the torsion solve share one factorization.  The
    ``assemble_*`` methods do the work uncached; each runs once at most.
    The factorizations are most of the memory: keep a discretization only
    as long as the solves that share it.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._orbit, self._rep = _orbits(mesh)
        # the rays 0 to n_theta / 2, to which the orbits belong
        self._rays = mesh.res.n_theta // 2 + 1
        self.b = self.assemble_load()
        self._K: SymmetricBand | None = None
        self._M: SymmetricBand | None = None
        self._systems: dict[ProblemKind, ReducedSystem] = {}

    def _fold(self, block) -> SymmetricBand:
        """``P^T A P`` over every vertex orbit, for the local blocks of ``A``:
        ``block(a, b)`` is entry (a, b) of every triangle's block."""
        corner = [self._orbit[self.mesh.triangles[:, a]] for a in range(3)]
        # entry (a, b) is in row I = corner[a] and column J = corner[b], kept
        # if I >= J; one pair at a time, every array has one entry a triangle
        entries = ((corner[a] - corner[b], corner[b], block(a, b))
                   for a in range(3) for b in range(3))
        return _band(entries, self._rep.size, self._rays)

    def assemble_stiffness(self) -> SymmetricBand:
        """Mirror-folded stiffness of K_ij = integral grad phi_i . grad phi_j,
        over every vertex orbit."""
        mesh = self.mesh
        local = p1_local_stiffness(np.take(mesh.vertices, mesh.triangles, axis=0))
        return self._fold(lambda a, b: local[:, a, b])

    def assemble_mass(self) -> SymmetricBand:
        """Mirror-folded consistent P1 mass, of the local blocks
        area/12 * [[2,1,1],[1,2,1],[1,1,2]], over every vertex orbit."""
        areas = self.mesh.areas
        # the entries of p1_local_mass(areas), computed as they are asked for
        return self._fold(lambda a, b: areas * MASS_BLOCK[a, b])

    def assemble_load(self) -> np.ndarray:
        """Load vector of the unit source: b_i = integral phi_i = adjacent area / 3."""
        mesh = self.mesh
        b = np.zeros(mesh.num_vertices)
        np.add.at(b, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
        return 0.5 * (b + b[mesh.mirror])

    def system(self, kind: ProblemKind) -> ReducedSystem:
        """The reduced system of ``kind``, built on first request."""
        if kind not in self._systems:
            self._systems[kind] = self.reduce_system(kind)
        return self._systems[kind]

    def reduce_system(self, kind: ProblemKind) -> ReducedSystem:
        """Eliminate the Dirichlet rows/columns of ``kind`` from the folded
        stiffness and load."""
        mesh = self.mesh
        pinned = np.zeros(mesh.num_vertices, dtype=bool)
        pinned[dirichlet_vertices(mesh, kind)] = True
        if np.any(pinned[mesh.mirror] != pinned):
            raise ValueError("mirror does not preserve the free vertex set")
        free, kept = np.flatnonzero(~pinned), np.flatnonzero(~pinned[self._rep])
        if self._K is None:
            self._K = self.assemble_stiffness()
        # b is exactly mirror symmetric, so an orbit of two vertices sums to
        # twice the value at either
        rep = self._rep[kept]
        paired = mesh.mirror[rep] != rep
        return ReducedSystem(
            K=_principal(self._K, kept, self._rays), b=self.b[rep] * (1.0 + paired),
            free=free, orbit=np.searchsorted(kept, self._orbit[free]), kept=kept,
            full_size=mesh.num_vertices,
        )

    def reduced_mass(self, kind: ProblemKind) -> SymmetricBand:
        """The folded mass with the Dirichlet rows/columns of ``kind``
        eliminated; the mass is folded on the first call."""
        if self._M is None:
            self._M = self.assemble_mass()
        return _principal(self._M, self.system(kind).kept, self._rays)
