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

The mesh lattice numbers the unknowns: rows ``i`` and ``n_theta - i`` are
mirror images, so vertex ``(i, j)`` belongs to the point ``(min(i, n_theta
- i), j)`` of a folded grid, numbered ray by ray, ``L = n_rad + 1`` to a
ray.  Stiffness and mass are folded once per mesh, never formed at full
size: entry ``(I, J)`` of ``P^T A P``, with ``P`` the 0/1 expansion of the
folded grid, sums the local P1 block entries of the triangle corners at
``I`` and ``J``.  A triangle joins neighbouring rays and layers, so
``np.bincount`` sums the entries with ``I >= J`` straight into the lower
diagonals 0, 1, ``L - 1``, ``L`` and ``L + 1`` of a
:class:`~annulab.eigensolver.SymmetricBand`, exactly symmetric by storage.
No mirror average is needed, since ``P`` is mirror invariant.  A kind keeps
one window of layers on every ray (:meth:`ProblemKind.layers`), and its
reduced operator is a column slice of each folded diagonal.
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

    def layers(self, n_rad: int) -> slice:
        """The free layers: all but the Dirichlet circles, 0 and ``n_rad``."""
        inner = self in (ProblemKind.ND, ProblemKind.DD)
        outer = self in (ProblemKind.DN, ProblemKind.DD)
        return slice(int(inner), n_rad + 1 - int(outer))


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


def _fold_rays(n_theta: int) -> np.ndarray:
    """The folded ray ``min(i, n_theta - i)`` of every lattice row ``i``."""
    i = np.arange(n_theta)
    return np.minimum(i, n_theta - i)


def _band(entries, dim: int, L: int) -> SymmetricBand:
    """The symmetric matrix whose lower triangle sums the ``entries``:
    triples of arrays ``(offset, col, values)``, of values at the rows
    ``col + offset`` and the columns ``col``.  A triangle joins neighbouring
    rays and layers, ``L`` to a ray, so the offsets are 0, 1, ``L - 1``,
    ``L``, ``L + 1`` or negative; negative ones are dropped, and ``offset``
    is overwritten.  All five diagonals are kept: :func:`_principal` leaves
    out those that are zero throughout its window."""
    offsets = np.array([0, 1, L - 1, L, L + 1])
    # row k of a (6, dim) array of bins holds the diagonal offsets[k] by
    # column, and row 5 takes the negative offsets; `first` is indexed by
    # offset + L + 1
    first = np.full(2 * L + 3, 5 * dim)
    first[offsets + L + 1] = np.arange(5) * dim
    bins = np.zeros(6 * dim)
    for offset, col, values in entries:
        offset += L + 1
        # in place: take buffers its output only in mode "raise"
        target = np.take(first, offset, out=offset, mode="clip")
        target += col
        bins += np.bincount(target, weights=values, minlength=6 * dim)
    bins = bins.reshape(6, dim)
    return SymmetricBand(offsets, [bins[k, : dim - o] for k, o in enumerate(offsets)])


def _principal(A: SymmetricBand, L: int, layers: slice) -> SymmetricBand:
    """The principal submatrix of ``A``, ``L`` unknowns to a ray, on the
    window ``layers`` of every ray.  Each diagonal, as a ``(rays, L)`` grid,
    keeps the window's columns; the one whose partner layer (``l + 1`` for
    offsets 1 and ``L + 1``, ``l - 1`` for ``L - 1``) leaves it is zeroed."""
    lo, hi, _ = layers.indices(L)
    width = hi - lo
    dim = A.shape[0] // L * width
    offsets, diagonals = [], []
    for o, d in zip(A.offsets, A.diagonals):
        grid = np.zeros(A.shape[0])
        grid[: d.size] = d
        grid = grid.reshape(-1, L)[:, layers]
        # the layer step to the partner, on the same ray or the next one
        step = o if o < L - 1 else o - L
        if step:
            grid[:, -1 if step > 0 else 0] = 0.0
        if o >= L - 1:
            o -= L - width
        d = grid.ravel()[: dim - o]
        # a diagonal that is zero throughout is left out
        if o == 0 or d.any():
            offsets.append(o)
            diagonals.append(d)
    return SymmetricBand(offsets, diagonals)


@dataclass
class ReducedSystem:
    """One kind's Dirichlet-reduced, mirror-folded system.

    The unknowns are the points ``(r, j)`` of the folded grid with ``j`` in
    ``layers``, ray by ray: the values at the vertices ``(r, j)`` and
    ``(n_theta - r, j)``, a mirror-symmetric function that vanishes on the
    Dirichlet set.  With ``P`` the 0/1 matrix of :meth:`expand`, ``K = P^T
    K_full P`` and ``b = P^T b_full``, so quadratic forms are preserved:
    ``x^T K x = (P x)^T K_full (P x)``.  ``factor``, the band Cholesky of
    ``K``, is computed on first use.
    """

    K: SymmetricBand
    b: np.ndarray
    lattice: np.ndarray  # the mesh's (n_theta, n_rad + 1) vertex lattice
    layers: slice  # the kind's window, ProblemKind.layers
    _factor: BandCholesky | None = field(default=None, init=False, repr=False)

    @property
    def factor(self) -> BandCholesky:
        if self._factor is None:
            self._factor = factorize(self.K)
        return self._factor

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Full vertex vector: each unknown copied to its vertices."""
        n_theta = self.lattice.shape[0]
        grid = np.reshape(x, (n_theta // 2 + 1, -1))
        out = np.zeros(self.lattice.size)
        out[self.lattice[:, self.layers]] = grid[_fold_rays(n_theta)]
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
        n_theta, L = mesh.lattice.shape
        self._rays, self._L = n_theta // 2 + 1, L
        # the point (r, j) of the folded grid of every vertex (i, j)
        self._point = np.empty(mesh.num_vertices, dtype=int)
        self._point[mesh.lattice] = _fold_rays(n_theta)[:, None] * L + np.arange(L)
        self.b = self.assemble_load()
        self._K: SymmetricBand | None = None
        self._M: SymmetricBand | None = None
        self._systems: dict[ProblemKind, ReducedSystem] = {}

    def _fold(self, block) -> SymmetricBand:
        """``P^T A P`` over the whole folded grid, for the local blocks of
        ``A``: ``block(a, b)`` is entry (a, b) of every triangle's block."""
        corner = [self._point[self.mesh.triangles[:, a]] for a in range(3)]
        # entry (a, b) is in row I = corner[a] and column J = corner[b], kept
        # if I >= J; one pair at a time, every array has one entry a triangle
        entries = ((corner[a] - corner[b], corner[b], block(a, b))
                   for a in range(3) for b in range(3))
        return _band(entries, self._rays * self._L, self._L)

    def assemble_stiffness(self) -> SymmetricBand:
        """Mirror-folded stiffness of K_ij = integral grad phi_i . grad phi_j,
        over the whole folded grid."""
        mesh = self.mesh
        local = p1_local_stiffness(np.take(mesh.vertices, mesh.triangles, axis=0))
        return self._fold(lambda a, b: local[:, a, b])

    def assemble_mass(self) -> SymmetricBand:
        """Mirror-folded consistent P1 mass, of the local blocks
        area/12 * [[2,1,1],[1,2,1],[1,1,2]], over the whole folded grid."""
        areas = self.mesh.areas
        # the entries of p1_local_mass(areas), computed as they are asked for
        return self._fold(lambda a, b: areas * MASS_BLOCK[a, b])

    def assemble_load(self) -> np.ndarray:
        """Load vector of the unit source: b_i = integral phi_i = adjacent
        area / 3, averaged with the mirror image."""
        mesh = self.mesh
        b = np.zeros(mesh.num_vertices)
        np.add.at(b, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
        # lattice row -i, that is n_theta - i, is the mirror image of row i
        rows = b[mesh.lattice]
        b[mesh.lattice] = 0.5 * (rows + rows[-np.arange(rows.shape[0])])
        return b

    def system(self, kind: ProblemKind) -> ReducedSystem:
        """The reduced system of ``kind``, built on first request."""
        if kind not in self._systems:
            self._systems[kind] = self.reduce_system(kind)
        return self._systems[kind]

    def reduce_system(self, kind: ProblemKind) -> ReducedSystem:
        """Eliminate the Dirichlet rows/columns of ``kind`` from the folded
        stiffness and load."""
        layers = kind.layers(self._L - 1)
        if self._K is None:
            self._K = self.assemble_stiffness()
        # b is exactly mirror symmetric, so the point of a paired ray sums
        # twice the value at either of its vertices
        b = self.b[self.mesh.lattice[: self._rays, layers]]
        b[1:-1] *= 2.0
        return ReducedSystem(K=_principal(self._K, self._L, layers), b=b.ravel(),
                             lattice=self.mesh.lattice, layers=layers)

    def reduced_mass(self, kind: ProblemKind) -> SymmetricBand:
        """The folded mass with the Dirichlet rows/columns of ``kind``
        eliminated; the mass is folded on the first call."""
        if self._M is None:
            self._M = self.assemble_mass()
        return _principal(self._M, self._L, kind.layers(self._L - 1))
