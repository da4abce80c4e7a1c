"""P1 discretization: one :class:`Discretization` per mesh.

A discretization assembles the stiffness, mass and load of its mesh and
builds, per boundary configuration, the reduced system and its one band
Cholesky factor.

The three boundary configurations share one code path: ``ND`` pins the inner
circle, ``DN`` the outer one, ``DD`` both.  Dirichlet conditions are imposed
by eliminating the pinned rows/columns, never by penalties, so the reduced
stiffness stays well conditioned.  Neumann conditions are natural and add no
terms.

Assembled operators are *exactly* symmetric: the local blocks are, and an
edge's at most two contributions sum to the same double in either order.
They are made *exactly* invariant under the mesh mirror permutation by
averaging with their mirrored images; the average is exact in floating point
because addition is commutative and halving is lossless.

The reduction also folds the x2-mirror: a free vertex and its mirror image
share one unknown.  The first eigenfunctions and the torsion function of a
domain symmetric about the x1-axis are symmetric (each is the positive
ground state of a simple eigenvalue, or the unique solution), so the folded
systems have the same solutions with about half the unknowns, and expanded
fields are mirror symmetric by construction.

All index work depends on the triangulation only, so it is done once per
triangulation, in an index plan that every mesh with the same triangle,
mirror and lattice arrays shares: a sweep's meshes have two triangulations
(s = 0 and s > 0), and a dn family's usually one.  The plan holds the CSR
pattern of the vertex pairs, the order in which the contributions of each
entry are summed, the slot permutation of the mirror and, per kind, the
gathers that fold pair slots into the reduced system.  Assembly, the mirror
average and the folds are then gathers on value arrays.  They give bit for
bit the matrices of the sparse-matrix route (COO to CSR conversion, the two
averages and ``P^T A P`` with ``P`` the 0/1 expansion of
:class:`ReducedSystem`), down to the column order of each reduced row,
which the eigensolver's matrix-vector products sum in.  The last
:data:`PLAN_CACHE_SIZE` plans are kept; full-size CSR matrices are built
only when :attr:`Discretization.K` or :attr:`Discretization.M` is read.
"""

from __future__ import annotations

import enum
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .eigensolver import BandCholesky, factorize
from .mesh import Mesh

# explicit stored values smaller than this are pruned after assembly
ZERO_PRUNE = 1e-300

# index plans kept for reuse: a sweep meets two triangulations and a dn
# family one; the plan of a 512x128 mesh holds 5.5 MB, and 3.7 MB more for
# each kind folded
PLAN_CACHE_SIZE = 2


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


def _csr(data: np.ndarray, indptr, indices, dim: int) -> sp.csr_matrix:
    """``data`` on a CSR pattern, without the entries smaller than ZERO_PRUNE."""
    keep = np.abs(data) >= ZERO_PRUNE
    if not keep.all():
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
        indices, data = indices[keep], data[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


class _Plan:
    """The index work of one triangulation and mirror.

    Assembled operators are exactly symmetric, so the plan keeps one slot per
    pair of vertices ``i <= j`` of a triangle: the upper triangle of the
    vertex adjacency, as the CSR pattern ``indptr``/``indices``.  ``order``
    lists the entries of the flattened (nt, 3, 3) local blocks that go into
    the slots, by their position in their slot's run, then by slot: one
    contribution of every slot, then the second of every slot with two or
    more, and so on.  A diagonal run is in the order in which scipy's COO to
    CSR conversion sums it; an edge has at most two contributions, which sum
    to the same double in either order, and the same two go into the
    transposed entry, so the transpose average of the full matrix is exact
    and leaves it unchanged.  ``mp`` maps each slot to that of its mirror
    image.
    """

    def __init__(self, mesh: Mesh):
        # the arrays the plan depends on; sharing them costs no copy
        self.key = (mesh.triangles, mesh.mirror, mesh.lattice)
        tri = mesh.triangles
        n = self.n = mesh.num_vertices
        # entry 9t + 3a + b of the blocks lands in row tri[t, a] and column
        # tri[t, b]; group the entries by row, each row in entry order, as
        # the COO to CSR conversion does
        by_row = np.argsort(tri.ravel(), kind="stable")
        counts = 3 * np.bincount(tri.ravel(), minlength=n)
        tagged = sp.csr_matrix(
            ((3 * by_row[:, None] + np.arange(3.0)).ravel(),
             tri[by_row // 3].astype(np.int32).ravel(),
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(n, n),
        )
        del by_row
        # scipy's sort by column is not stable: carried as data, the entry
        # numbers give the order in which it sums each run of duplicates
        tagged.sort_indices()
        rows = np.repeat(np.arange(n, dtype=np.int32), counts)
        upper = tagged.indices >= rows
        rows, cols, entries = rows[upper], tagged.indices[upper], tagged.data[upper]
        del tagged, upper
        first = np.ones(cols.size, dtype=bool)
        first[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
        starts = np.flatnonzero(first)
        runs = np.diff(np.append(starts, cols.size))
        rows = rows[starts]
        self.indices = cols[starts]
        if np.any(runs[rows != self.indices] > 2):
            raise ValueError("an edge is shared by more than two triangles")
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(
            np.int32
        )
        self.runs = runs.astype(np.min_scalar_type(runs.max()))
        position = (np.arange(cols.size) - np.repeat(starts, runs)).astype(self.runs.dtype)
        self.order = entries[np.argsort(position, kind="stable")].astype(np.int32)
        del cols, entries, first, starts, runs, position
        self.mp = self.slot(mesh.mirror[rows], mesh.mirror[self.indices])
        if np.any(self.mp < 0):
            raise ValueError("mirror does not map the triangulation onto itself")
        self._folds: dict[ProblemKind, _Fold] = {}
        self._lock = threading.Lock()

    def slot(self, i, j) -> np.ndarray:
        """Slot of each vertex pair ``{i[k], j[k]}``; -1 where no triangle has both."""
        numbers = np.arange(1, self.indices.size + 1, dtype=np.int32)
        slots = sp.csr_array((numbers, self.indices, self.indptr), shape=(self.n, self.n))
        return slots[np.minimum(i, j), np.maximum(i, j)] - 1

    def assemble(self, entries) -> np.ndarray:
        """Slot values of exactly symmetric (nt, 3, 3) local blocks, averaged
        with their mirror images; values below ZERO_PRUNE become 0.

        ``entries(e)`` returns the entries ``e`` of the flattened blocks; it
        is asked for one contribution of every slot at a time, so neither the
        blocks nor their reordered copy need to exist whole.
        """
        d = entries(self.order[: self.indices.size])
        done = d.size
        # each run of duplicates is summed left to right, like scipy does
        for k in range(1, int(self.runs.max())):
            more = np.flatnonzero(self.runs > k)
            d[more] += entries(self.order[done : done + more.size])
            done += more.size
        d = 0.5 * (d + d[self.mp])
        if not np.array_equal(d, d[self.mp]):
            raise ValueError("matrix is not invariant under the mirror")
        d[np.abs(d) < ZERO_PRUNE] = 0.0
        return d

    def matrix(self, d: np.ndarray) -> sp.csr_matrix:
        """The full symmetric matrix of the slot values ``d``, zeros left out."""
        upper = _csr(d, self.indptr, self.indices, self.n)
        return (upper + sp.triu(upper, k=1).T).tocsr()

    def fold(self, mesh: Mesh, kind: ProblemKind, live=None) -> "_Fold":
        """The fold of ``kind``; built once, unless ``live`` masks out slots."""
        if live is not None:
            return _Fold(self, mesh, kind, live)
        with self._lock:
            if kind not in self._folds:
                self._folds[kind] = _Fold(self, mesh, kind)
            return self._folds[kind]


class _Fold:
    """Gathers from pattern slots to one kind's reduced system.

    ``free``/``orbit`` are those of :class:`ReducedSystem`; ``rep`` is the
    smaller vertex of each orbit.  Reduced entry ``e`` of orbits ``(I, J)``
    is ``2^scale[e] (d[g0] + d[g1])`` with ``g0``/``g1`` the slots of ``rep[I]``
    and the two vertices of ``J``: the exact value of ``(P^T A P)_IJ`` and of
    its transpose average, because ``A`` is exactly symmetric and mirror
    invariant.  The reduced pattern is the one the sparse products give for
    the pattern of ``A`` (or its ``live`` slots), in their column order.

    That order follows from the sorted pattern rows: scipy's product lists
    the columns of a row in reverse order of first occurrence, and the
    transpose sum reverses them again.  So row ``I`` lists its orbits by the
    last position at which one of their vertices first occurs in the row of
    ``v = rep[I]`` followed by the row of its mirror image ``w``, latest
    first.  The pattern is mirror invariant, so the vertices new in the row
    of ``w`` are the images of the vertices of the row of ``v`` whose images
    are not in it: those orbits come first, by descending image, and the
    others follow by descending larger vertex held in the row of ``v``.
    """

    def __init__(self, plan: _Plan, mesh: Mesh, kind: ProblemKind, live=None):
        n = mesh.num_vertices
        pinned = np.zeros(n, dtype=bool)
        pinned[dirichlet_vertices(mesh, kind)] = True
        free = np.flatnonzero(~pinned)
        pos = np.full(n, -1)
        pos[free] = np.arange(free.size)
        image = pos[mesh.mirror[free]]
        own = np.arange(free.size)
        if np.any(image < 0) or np.any(image[image] != own):
            raise ValueError("mirror does not preserve the free vertex set")
        # an orbit is named by its smaller free position, and numbered in the
        # order of the names
        name = np.minimum(own, image)
        first = np.flatnonzero(name == own)
        orbit = (np.cumsum(name == own) - 1)[name]
        self.free, self.orbit = free.astype(np.int32), orbit.astype(np.int32)
        self.dim = first.size
        self.rep = self.free[first]
        twin = mesh.mirror[self.rep]
        self.paired = (twin != self.rep).astype(np.int8)
        of_vertex = np.full(n, -1, dtype=np.int32)
        of_vertex[free] = orbit
        row_of = np.full(n, -1, dtype=np.int32)
        row_of[self.rep] = np.arange(self.dim)

        # the pattern rows of the reps: each slot of vertices i <= j is read
        # from both ends, as row vertex x and free neighbour u
        slot = np.arange(plan.indices.size, dtype=np.int32)
        if live is not None:
            slot = slot[live]
        i = np.repeat(np.arange(n, dtype=np.int32), np.diff(plan.indptr))[slot]
        j = plan.indices[slot]
        at_i = (row_of[i] >= 0) & (of_vertex[j] >= 0)
        at_j = (row_of[j] >= 0) & (of_vertex[i] >= 0) & (i != j)
        x = np.concatenate([i[at_i], j[at_j]])
        u = np.concatenate([j[at_i], i[at_j]])
        slot = np.concatenate([slot[at_i], slot[at_j]])
        del i, j, at_i, at_j
        # the slot of x and the image p of u: the other vertex of the column
        # orbit, held in the row of x or not
        p = mesh.mirror[u]
        other = plan.slot(x, p)
        held = other >= 0
        if live is not None:
            held &= live[other]
        # an orbit held twice is kept once, at its larger vertex
        keep = ~held | (u >= p)
        rows = row_of[x[keep]]
        key = np.where(held, u, n + p)[keep]
        del x, p, held
        # by row, then by descending key; keys are distinct within a row
        order = np.argsort(rows * np.int64(2 * n) + (2 * n - 1 - key))
        del key
        rows = rows[order]
        u, s, other = (a[keep][order] for a in (u, slot, other))
        del keep, order, slot
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=self.dim))]
        ).astype(np.int32)
        self.indices = of_vertex[u]
        at_rep = u == self.rep[self.indices]
        g0 = np.where(at_rep, s, other)
        g1 = np.where(at_rep, other, s)
        # a vertex pair missing from the pattern, or an orbit of one vertex,
        # adds one slot twice and halves the sum
        g0 = np.where(g0 < 0, g1, g0)
        g1 = np.where(g1 < 0, g0, g1)
        self.gather = np.stack([g0, g1])
        self.scale = self.paired[rows] - (g0 == g1)

    def matrix(self, d: np.ndarray) -> sp.csr_matrix:
        return _csr(np.ldexp(d[self.gather[0]] + d[self.gather[1]], self.scale),
                    self.indptr, self.indices, self.dim)

    def vector(self, b: np.ndarray) -> np.ndarray:
        return np.ldexp(b[self.rep], self.paired)


# the most recently used plan last
_plans: list[_Plan] = []
_plans_lock = threading.Lock()


def _plan_for(mesh: Mesh) -> _Plan:
    """The cached plan of ``mesh``'s triangulation, built on first request."""
    key = (mesh.triangles, mesh.mirror, mesh.lattice)
    with _plans_lock:
        for plan in _plans:
            if all(a is b or np.array_equal(a, b) for a, b in zip(plan.key, key)):
                _plans.remove(plan)
                break
        else:
            plan = _Plan(mesh)
            del _plans[: max(len(_plans) + 1 - PLAN_CACHE_SIZE, 0)]
        _plans.append(plan)
        return plan


@dataclass
class ReducedSystem:
    """One kind's Dirichlet-reduced, mirror-folded system.

    The unknowns are the mirror orbits of the free (unpinned) vertices:
    ``orbit[k]`` is the unknown of vertex ``free[k]``, shared with its mirror
    image.  Reduced vectors are the mirror-symmetric functions that vanish on
    the Dirichlet set.  With ``P`` the 0/1 matrix of :meth:`expand`,
    ``K = P^T K_full P``, ``M = P^T M_full P`` and ``b = P^T b_full``, so
    quadratic forms are preserved: ``x^T K x = (P x)^T K_full (P x)``.

    ``M`` is folded on first use, from the mass of the discretization,
    which must still be alive then; torsion solves never read it.
    ``factor``, the band Cholesky of ``K``, is computed on first use.
    """

    K: sp.csr_matrix
    b: np.ndarray
    free: np.ndarray
    orbit: np.ndarray
    full_size: int
    kind: ProblemKind
    # weak, so that a discretization and its cached systems form no cycle
    # and their factorizations are freed as soon as the last user lets go
    owner: weakref.ref
    # plain lazy attributes: functools.cached_property would serialize the
    # folds of all systems behind one lock on Python < 3.12
    _M: sp.csr_matrix | None = field(default=None, init=False, repr=False)
    _factor: BandCholesky | None = field(default=None, init=False, repr=False)

    @property
    def M(self) -> sp.csr_matrix:
        if self._M is None:
            disc = self.owner()
            if disc is None:
                raise ReferenceError("the discretization of this system is gone")
            m = disc._mass()
            self._M = disc._fold(m, self.kind).matrix(m)
        return self._M

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

    ``b`` is assembled on construction; the stiffness and mass values on the
    plan's slots on first use.  The reduced system of a kind is built on the
    first :meth:`system` request and kept, so the ``nd`` eigen-solve and the
    torsion solve share one factorization.  The ``assemble_*`` and
    :meth:`reduce_system` methods do the work uncached; each is called at
    most once per discretization.  The factorizations are most of the
    memory: keep a discretization only as long as the solves that share it.
    Solutions hold the mesh, never the discretization.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.b = self.assemble_load()
        self._plan: _Plan | None = None
        self._k: np.ndarray | None = None
        self._m: np.ndarray | None = None
        self._K: sp.csr_matrix | None = None
        self._M: sp.csr_matrix | None = None
        self._systems: dict[ProblemKind, ReducedSystem] = {}

    def _index_plan(self) -> _Plan:
        if self._plan is None:
            self._plan = _plan_for(self.mesh)
        return self._plan

    def _stiffness(self) -> np.ndarray:
        if self._k is None:
            self._k = self.assemble_stiffness()
        return self._k

    def _mass(self) -> np.ndarray:
        if self._m is None:
            self._m = self.assemble_mass()
        return self._m

    def _fold(self, d: np.ndarray, kind: ProblemKind) -> _Fold:
        # a slot pruned to 0 is missing from the pattern the products see
        live = d != 0.0
        return self._index_plan().fold(self.mesh, kind, None if live.all() else live)

    @property
    def K(self) -> sp.csr_matrix:
        """The full stiffness matrix, built on first read."""
        if self._K is None:
            self._K = self._index_plan().matrix(self._stiffness())
        return self._K

    @property
    def M(self) -> sp.csr_matrix:
        """The full mass matrix, built on first read."""
        if self._M is None:
            self._M = self._index_plan().matrix(self._mass())
        return self._M

    def assemble_stiffness(self) -> np.ndarray:
        """Stiffness K_ij = integral grad phi_i . grad phi_j, on the plan's slots."""
        mesh = self.mesh
        local = p1_local_stiffness(mesh.vertices[mesh.triangles]).ravel()
        return self._index_plan().assemble(local.take)

    def assemble_mass(self) -> np.ndarray:
        """Consistent P1 mass, local block area/12 * [[2,1,1],[1,2,1],[1,1,2]],
        on the plan's slots."""
        areas, block = self.mesh.areas, MASS_BLOCK.ravel()
        # the entries of p1_local_mass(areas), computed as they are asked for
        return self._index_plan().assemble(lambda e: areas[e // 9] * block[e % 9])

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
        """Eliminate the Dirichlet rows/columns of ``kind`` and fold the mirror."""
        k = self._stiffness()
        fold = self._fold(k, kind)
        return ReducedSystem(
            K=fold.matrix(k), b=fold.vector(self.b), free=fold.free, orbit=fold.orbit,
            full_size=self.mesh.num_vertices, kind=kind, owner=weakref.ref(self),
        )
