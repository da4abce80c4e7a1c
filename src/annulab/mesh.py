"""Structured triangulation of an eccentric annulus.

Vertices live on rays from the inner center: vertex ``(i, j)`` sits at
``(s,0) + (R0 + t_j (L_i - R0)) (cos phi_i, sin phi_i)`` with
``phi_i = 2 pi i / n_theta``, ``t_j = (j / n_rad)^grading`` and ``L_i`` the
ray exit distance.  Layer 0 is the inner (Dirichlet) circle, layer ``n_rad``
the outer (Neumann) circle.

The direction table is generated half-circle-by-reflection so the vertex set
is *bitwise* invariant under ``x2 -> -x2``, which maps vertex ``(i, j)`` to
``(-i mod n_theta, j)``; quad diagonals are likewise chosen on the upper half
and mirrored, which makes the triangle set exactly reflection symmetric.
When ``n_theta`` is divisible by 4 the inner circle is also symmetric across
the vertical line ``x1 = s`` to the last bit of rounding.  The half-boundary
regrouping of the derivative (:func:`annulab.shape.half_boundary_tau_prime`)
does not rely on that: it pairs inner edge ``i`` with edge ``n_theta/2 - 1 -
i``, its mirror image across ``x1 = s`` for every even ``n_theta``; when
``n_theta = 2 mod 4`` the two edges that cross the line pair with themselves.

The triangle geometry has one kernel, :func:`p1_coefficients`; the mesh's
areas, quality figure and point-location table, and the P1 gradients and
stiffness blocks of :mod:`annulab.fem`, are all formed from it.  How quads
split into triangles is known only here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import AnnularDomain

# points located per step of :meth:`Mesh.stencil` and evaluated per step of
# :meth:`Mesh.interpolate`; it bounds the temporaries (at their peak about
# 250 bytes per point of a block, 4 MB, under tracemalloc with numpy 2.4)
# and leaves every result unchanged, since each point's result depends only
# on that point
INTERPOLATE_BLOCK = 16384

# a point lies in a triangle when its smallest barycentric coordinate there
# is at least -LOCATE_TOL, which admits the rounding of points on an edge
LOCATE_TOL = 1e-10


class MeshQualityError(ValueError):
    """A triangle with nonpositive area was produced."""


@dataclass(frozen=True)
class Resolution:
    """Mesh resolution: ``n_theta`` rays, ``n_rad`` layers, radial ``grading``.

    ``n_theta`` must be an even integer of at least 16, ``n_rad`` an integer
    of at least 4 and ``grading`` in [0.5, 2].  Exponents above 1 refine
    toward the inner circle, below 1 toward the outer one.
    """

    n_theta: int = 256
    n_rad: int = 64
    # refines toward the inner circle, where normal derivatives are
    # extracted; 1.5 keeps the boundary-integral derivative within a few
    # permille of finite differences at the default resolution
    grading: float = 1.5

    def __post_init__(self):
        for name, value in (("n_theta", self.n_theta), ("n_rad", self.n_rad)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_theta % 2 != 0 or self.n_theta < 16:
            raise ValueError(f"n_theta must be even and >= 16, got {self.n_theta}")
        if self.n_rad < 4:
            raise ValueError(f"n_rad must be >= 4, got {self.n_rad}")
        if not (0.5 <= self.grading <= 2.0):
            raise ValueError(f"grading must lie in [0.5, 2], got {self.grading}")


def unit_directions(n: int):
    """cos/sin tables of 2*pi*i/n with exact reflection symmetries.

    Entries for i > n/2 are copied from the upper half with the sine negated,
    so the table is bitwise invariant under conjugation.  For 4 | n the upper
    quarter is built from the first quarter, making the table bitwise
    antisymmetric under i -> n/2 - i as well.  The mesh rays and the ring
    samples of :mod:`annulab.symmetrize` take their directions from it.
    """
    c = np.empty(n)
    sn = np.empty(n)
    half = n // 2
    quarter, rem = divmod(n, 4)
    for i in range(half + 1):
        if rem == 0 and i > quarter:
            c[i] = -c[half - i]
            sn[i] = sn[half - i]
        else:
            a = 2.0 * math.pi * i / n
            c[i] = math.cos(a)
            sn[i] = math.sin(a)
    c[0], sn[0] = 1.0, 0.0
    c[half], sn[half] = -1.0, 0.0
    if rem == 0:
        c[quarter], sn[quarter] = 0.0, 1.0
    for i in range(half + 1, n):
        c[i] = c[n - i]
        sn[i] = -sn[n - i]
    return c, sn


@dataclass
class Mesh:
    """Immutable structured triangulation of an :class:`AnnularDomain`."""

    domain: AnnularDomain
    res: Resolution
    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3), counter-clockwise
    lattice: np.ndarray  # (n_theta, n_rad + 1) -> vertex index
    inner_edges: np.ndarray  # (n_theta, 2) vertex pairs on layer 0
    inner_triangles: np.ndarray  # (n_theta,) the triangle on each inner edge
    areas: np.ndarray = field(repr=False, default=None)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def vertex_index(self, i: int, j: int) -> int:
        return int(self.lattice[i % self.res.n_theta, j])

    @cached_property
    def max_angle_deg(self) -> float:
        """Largest interior angle over all triangles, in degrees."""
        b, c, _ = p1_coefficients(np.take(self.vertices, self.triangles, axis=0))
        # squared length of the edge opposite each corner
        sq = b * b + c * c
        adj1 = sq[:, [1, 2, 0]]
        adj2 = sq[:, [2, 0, 1]]
        # law of cosines for the angle opposite each edge; unlike the sine
        # rule it tells an obtuse angle from its acute supplement
        with np.errstate(invalid="ignore", divide="ignore"):
            cosines = (adj1 + adj2 - sq) / (2.0 * np.sqrt(adj1 * adj2))
        return math.degrees(math.acos(max(float(cosines.min()), -1.0)))

    # -- point location -------------------------------------------------

    @cached_property
    def _quad_table(self) -> np.ndarray:
        """Per lattice quad, for both of its triangles: corner ``a``, edges
        ``v0 = b - a`` and ``v1 = c - a`` and ``den = v0 x v1``.

        Shape ``(7, 2, n_quads)``, rows ``ax, ay, v0x, v0y, v1x, v1y, den``:
        triangles ``2q`` and ``2q + 1`` split quad ``q``, so one gather per
        row fetches that quantity for both candidates of every point's quad.
        Built on first use from :func:`p1_coefficients` as ``v0 = (c2, -b2)``,
        ``v1 = (-c1, b1)`` and ``den = 2 area``, bit for bit the textbook
        formula, so the barycentrics are too; ``0.0 - x`` negates as its
        differences do, to ``+0.0`` on an edge parallel to an axis."""
        corners = np.take(self.vertices, self.triangles, axis=0)
        b, c, area = p1_coefficients(corners)
        a = corners[:, 0]
        rows = (a[:, 0], a[:, 1], c[:, 2], 0.0 - b[:, 2], 0.0 - c[:, 1], b[:, 1],
                2.0 * area)
        return np.stack(rows).reshape(7, -1, 2).transpose(0, 2, 1).copy()

    def _bary(self, quads, pts):
        """Barycentric coordinates ``(3, 2, n)`` of ``pts`` in both triangles
        of ``quads``, and their minima ``(2, n)``.

        Computed in place, in the operation order of the textbook formula
        ``l1 = (v2 x v1) / den``, ``l2 = (v0 x v2) / den`` with
        ``v2 = p - a``, ``l0 = 1 - l1 - l2``."""
        table = self._quad_table

        def row(k):  # gathered one at a time, which bounds the temporaries
            return np.take(table[k], quads, axis=1)

        v2x = pts[:, 0] - row(0)
        v2y = pts[:, 1] - row(1)
        lam = np.empty((3,) + v2x.shape)
        l0, l1, l2 = lam
        den = row(6)
        np.multiply(v2x, row(5), out=l1)
        l1 -= v2y * row(4)
        l1 /= den
        np.multiply(row(2), v2y, out=l2)
        l2 -= row(3) * v2x
        l2 /= den
        del v2x, v2y, den
        np.subtract(1.0, l1, out=l0)
        l0 -= l2
        score = np.minimum(l0, l1)
        np.minimum(score, l2, out=score)
        return lam, score

    @cached_property
    def _sectors(self) -> np.ndarray:
        """Rows ``c0, s0, a0, c1, s1, a1, det`` per sector ``i``: the
        directions ``e_i``, ``e_{i+1}`` of its rays, their extents
        ``a = L - R0`` past the inner circle, and ``e_i x e_{i+1}``."""
        d = self.domain
        c, sn = unit_directions(self.res.n_theta)
        a = d.exit_distance_from_direction(c, sn) - d.R0
        c1, s1, a1 = (np.roll(x, -1) for x in (c, sn, a))
        return np.stack([c, sn, a, c1, s1, a1, c * s1 - sn * c1])

    def _cell(self, pts):
        """The lattice quad ``i n_rad + j`` of each point, in closed form.

        The rays are straight through the inner center, so the angle about
        it gives the sector ``i``.  With ``p - (s, 0) = alpha e_i +
        beta e_{i+1}``, the chord from ``(R0 + t a_i) e_i`` to
        ``(R0 + t a_{i+1}) e_{i+1}`` passes through the point where
        ``a_i a_{i+1} t^2 + B t + R0 (R0 - alpha - beta) = 0``, with
        ``B = R0 (a_i + a_{i+1}) - alpha a_{i+1} - beta a_i``: the larger
        root, as chords at larger ``t`` lie farther out.  Layer ``j`` holds
        ``t^(1/grading)`` in ``[j, j + 1] / n_rad``; a point off the mesh
        gets the end quad of its sector."""
        res, R0 = self.res, self.domain.R0
        qx = pts[:, 0] - self.domain.s
        qy = pts[:, 1]
        phi = np.arctan2(qy, qx) % (2.0 * math.pi)
        # a point on a ray lies in both sectors; this rounding picks one, and
        # the last bits of the values interpolated there depend on it
        i = np.floor(phi / (2.0 * math.pi / res.n_theta)).astype(int) % res.n_theta
        c0, s0, a0, c1, s1, a1, det = np.take(self._sectors, i, axis=1)
        alpha = (qx * s1 - qy * c1) / det
        beta = (qy * c0 - qx * s0) / det
        A = a0 * a1
        B = R0 * (a0 + a1) - alpha * a1 - beta * a0
        C = R0 * (R0 - alpha - beta)
        root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        # the larger root without cancellation, over a positive denominator
        up = B > 0.0
        t = np.where(up, -2.0 * C, root - B) / np.where(up, B + root, 2.0 * A)
        layer = np.floor(res.n_rad * np.clip(t, 0.0, 1.0) ** (1.0 / res.grading))
        return i * res.n_rad + np.clip(layer.astype(int), 0, res.n_rad - 1)

    def locate(self, pts):
        """Lattice triangle and barycentric coordinates of every point.

        Returns ``(tri, bary, inside)``.  Of the two triangles of the
        point's quad (:meth:`_cell`), ``tri`` is the one whose smallest
        barycentric coordinate is larger, the first on a tie, and
        ``inside`` tells whether that coordinate is at least
        ``-LOCATE_TOL``.  A point in the mesh lies in its quad, so every
        point with ``inside`` false is off the mesh.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        quad = self._cell(pts)
        lam, score = self._bary(quad, pts)
        second = score[1] > score[0]
        bary = np.ascontiguousarray(np.where(second, lam[:, 1], lam[:, 0]).T)
        inside = np.maximum(score[0], score[1]) >= -LOCATE_TOL
        return 2 * quad + second, bary, inside

    def stencil(self, pts) -> Stencil:
        """The three vertices and P1 weights of every point, so that several
        fields are evaluated at the same points with one location.

        A point off the mesh is evaluated in the triangle :meth:`locate`
        gives it, in the end quad of its sector, with the barycentric
        weights clipped at 0 and renormalized.  Points are located
        ``INTERPOLATE_BLOCK`` at a time.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        st = Stencil(np.empty((n, 3), dtype=self.triangles.dtype), np.empty((n, 3)))
        for start in range(0, n, INTERPOLATE_BLOCK):
            block = slice(start, start + INTERPOLATE_BLOCK)
            tri, bary, inside = self.locate(pts[block])
            off = ~inside
            if np.any(off):
                lam = np.clip(bary[off], 0.0, None)
                lam /= lam.sum(axis=1, keepdims=True)
                bary[off] = lam
            np.take(self.triangles, tri, axis=0, out=st.vertices[block])
            st.weights[block] = bary
        return st

    def interpolate(self, values, pts):
        """P1 interpolation of per-vertex ``values`` at arbitrary points.

        Points outside the mesh are evaluated as in :meth:`stencil`.  The
        stencil of ``INTERPOLATE_BLOCK`` points is built and applied at a
        time, which bounds the temporaries; each point's value depends only
        on that point, so the blocks change no result.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        values = np.asarray(values, dtype=float)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], INTERPOLATE_BLOCK):
            block = slice(start, start + INTERPOLATE_BLOCK)
            out[block] = self.stencil(pts[block]).apply(values)
        return out


class Stencil(NamedTuple):
    """P1 interpolation at fixed points: three vertices and their weights
    per point, ``(n, 3)`` each."""

    vertices: np.ndarray
    weights: np.ndarray

    def apply(self, values) -> np.ndarray:
        """Values at the stencil's points of the per-vertex ``values``."""
        values = np.asarray(values, dtype=float)
        return np.einsum("ij,ij->i", self.weights, values[self.vertices])


def p1_coefficients(coords: np.ndarray):
    """Shape-function data ``(b, c, area)`` of ``(nt, 3, 2)`` triangle
    corners, the one triangle kernel of the package.

    The P1 basis function of corner ``k`` has the constant gradient
    ``(b_k, c_k) / (2 area)``, and ``(c_k, -b_k)`` is the edge opposite
    corner ``k``, from corner ``k + 1`` to corner ``k + 2``.  ``area`` is
    signed, positive for counter-clockwise corners.  Callers gather the
    corners as ``np.take(vertices, triangles, axis=0)``, the same values as
    ``vertices[triangles]`` in about a tenth of the time (numpy 2.4).
    """
    x = coords[..., 0]
    y = coords[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    return b, c, 0.5 * area2


def build_mesh(domain: AnnularDomain, res: Resolution) -> Mesh:
    """Deterministic structured mesh of ``domain`` at resolution ``res``.

    Each lattice quad is split along the diagonal whose midpoint is farther
    from the inner center, as computed in floating point; a tie keeps the
    diagonal through the lower angle-index corner.  At s = 0 every quad ties
    in exact arithmetic, so every quad of the upper half keeps that diagonal
    and round-off decides none.  Quads on the lower half copy the mirrored
    choice so the split is exactly symmetric.
    """
    n_theta, n_rad, grading = res.n_theta, res.n_rad, res.grading
    cos_t, sin_t = unit_directions(n_theta)
    ell = domain.exit_distance_from_direction(cos_t, sin_t)  # (n_theta,)
    t = (np.arange(n_rad + 1) / n_rad) ** grading  # t[0] = 0, t[-1] = 1 exactly
    radii = domain.R0 + t[None, :] * (ell[:, None] - domain.R0)  # (n_theta, n_rad+1)

    xs = domain.s + radii * cos_t[:, None]
    ys = radii * sin_t[:, None]
    vertices = np.stack([xs.ravel(), ys.ravel()], axis=1)
    lattice = np.arange(n_theta * (n_rad + 1)).reshape(n_theta, n_rad + 1)

    i_idx = np.arange(n_theta)
    half = n_theta // 2
    center = domain.inner_center
    ip1 = (i_idx + 1) % n_theta

    # the corners (i, j), (i, j+1), (i+1, j), (i+1, j+1) of every quad
    v00, v01 = lattice[:, :-1], lattice[:, 1:]
    v10, v11 = lattice[ip1, :-1], lattice[ip1, 1:]
    # diagonal choice per quad column, decided on the upper half and mirrored
    mid_a = 0.5 * (vertices[v00] + vertices[v11]) - center
    mid_b = 0.5 * (vertices[v10] + vertices[v01]) - center
    dist_a = np.einsum("ijk,ijk->ij", mid_a, mid_a)
    dist_b = np.einsum("ijk,ijk->ij", mid_b, mid_b)
    diag_a = (dist_a >= dist_b) | (domain.s == 0.0)
    diag_a[half:] = ~diag_a[half - 1 :: -1]

    # counter-clockwise triangles 2q and 2q + 1 of quad q = i n_rad + j,
    # split by diagonal a through (i,j)-(i+1,j+1), else by (i+1,j)-(i,j+1)
    tris = np.stack([v00, v01, np.where(diag_a, v11, v10),
                     np.where(diag_a, v00, v01), v11, v10], axis=2).reshape(-1, 3)

    _, _, areas = p1_coefficients(np.take(vertices, tris, axis=0))
    bad = np.nonzero(areas <= 0.0)[0]
    if bad.size:
        raise MeshQualityError(
            f"{bad.size} degenerate triangles, first at cell {int(bad[0])}"
        )

    inner_edges = np.stack([lattice[i_idx, 0], lattice[ip1, 0]], axis=1)
    # the triangle on the inner edge: 2q + 1 with diagonal a, else 2q
    inner_triangles = 2 * n_rad * i_idx + diag_a[:, 0]

    return Mesh(
        domain=domain,
        res=res,
        vertices=vertices,
        triangles=tris,
        lattice=lattice,
        inner_edges=inner_edges,
        inner_triangles=inner_triangles,
        areas=areas,
    )
