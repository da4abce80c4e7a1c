"""Sign checks on computed fields: monotonicity, symmetry and peak location.

Each sign check evaluates a strict continuum inequality on the discrete
field by one rule: over its tested points, in order, the worst value is the
first extremum, and every value on the wrong side of the threshold, or on
it, is a violation.  A check passes without violations; only the tangential
sign check allows a share of them, below 1e-3.  Signs are tested against zero; the only
tunable is the exclusion radius around the two points where the
inequalities genuinely degenerate (``(+-R1, 0)``, where the gradient
vanishes).  The reflection comparison allows a fixed interpolation
tolerance, ``INTERP_RTOL``.

Interior derivative checks use the area-weighted recovered vertex gradient.
The outer-circle axial check instead differentiates the boundary values
tangentially and multiplies by the tangent's first component: the normal
derivative vanishes there, and centered differencing of boundary values is an
order more accurate than the one-sided recovered gradient, whose bias would
drown the small true margin near the right pole.

The concentric domain is a degenerate special case: the angular derivative
vanishes identically, the peak spreads over the whole outer circle, and
strict sign checks become coin flips on rounding noise.  At ``s = 0`` the
angular checks therefore verify ring constancy instead, whatever the
exclusion, and the peak check only requires the maximum on the outer layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import Field, p1_gradient
from .geometry import reflect
from .mesh import Mesh, Stencil

# ordering allowance for interpolated reflection comparisons, relative to
# max |u|; covers the O(h^2) interpolation error of the reflected value
INTERP_RTOL = 1e-3

# star-family polarizers of the reflection check, evenly spread in angle:
# half planes through the origin with outward normal at angle
# -pi/2 + (j + 1/2) pi / REPORT_POLARIZERS, j = 0, 1, ...
REPORT_POLARIZERS = 8

# relative ring-value spread accepted as "angularly constant" at s = 0
RADIAL_SPREAD_RTOL = 1e-3

# default exclusion radius around (+-R1, 0), as a fraction of R1
EXCLUSION = 0.05


def _area_sums(mesh: Mesh) -> np.ndarray:
    """Per vertex, the total area of its triangles: the denominators of the
    recovered gradient, which depend only on the mesh."""
    den = np.zeros(mesh.num_vertices)
    np.add.at(den, mesh.triangles.ravel(), np.repeat(mesh.areas, 3))
    return den


def recover_gradient(u: Field) -> np.ndarray:
    """Vertex gradient ``(nv, 2)``: the area-weighted average of the P1
    gradients of the adjacent triangles.

    Exact for globally linear fields; O(h) accurate at interior vertices.
    """
    return _recover_gradient(u, _area_sums(u.mesh))


def _recover_gradient(u: Field, area_sums: np.ndarray) -> np.ndarray:
    mesh = u.mesh
    gx_tri, gy_tri, area = p1_gradient(u)
    num = np.zeros((mesh.num_vertices, 2))
    flat = mesh.triangles.ravel()
    np.add.at(num[:, 0], flat, np.repeat(area * gx_tri, 3))
    np.add.at(num[:, 1], flat, np.repeat(area * gy_tri, 3))
    return num / area_sums[:, None]


def outer_axial_derivative(u: Field) -> np.ndarray:
    """du/dx1 at outer-circle vertices from tangential differencing.

    Uses the vanishing normal derivative: du/dx1 = (du/dt) t1 with the
    tangential derivative from centered differences along the boundary ring.
    """
    mesh = u.mesh
    ring = mesh.lattice[:, mesh.res.n_rad]
    pts = mesh.vertices[ring]
    vals = u.values[ring]
    idx = np.arange(mesh.res.n_theta)
    nxt = np.roll(idx, -1)
    prv = np.roll(idx, 1)
    dvec = pts[nxt] - pts[prv]
    dlen = np.hypot(dvec[:, 0], dvec[:, 1])
    return (vals[nxt] - vals[prv]) / dlen * (dvec[:, 0] / dlen)


@dataclass
class CheckResult:
    """One check's worst value, where it occurs, and its violation count.

    The fields and the tested sets are mirror symmetric, so the worst value
    is taken, up to round-off, at a point and at its mirror twin; a strict
    extremum would pick between them by the last bit of the field.  So
    ``location`` is ``(x, |y|)``.
    """

    name: str
    worst: float | None  # None when there are no test points
    location: tuple[float, float]
    passed: bool
    detail: str = ""
    violations: int = 0  # tested points on the wrong side; 1 for a failed verdict


@dataclass
class GeometryReport:
    exclusion: float
    checks: dict[str, CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def passed(self, names) -> bool:
        return all(self.checks[n].passed for n in names)

    def to_payload(self) -> dict:
        return {
            "exclusion": self.exclusion,
            "all_passed": self.all_passed,
            "checks": {
                name: {
                    "worst": c.worst,
                    "location": list(c.location),
                    "pass": c.passed,
                    "detail": c.detail,
                }
                for name, c in self.checks.items()
            },
        }


def _interior_mask(mesh: Mesh) -> np.ndarray:
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[mesh.lattice[:, 0]] = False
    mask[mesh.lattice[:, mesh.res.n_rad]] = False
    return mask


def _outside_poles(points: np.ndarray, r1: float, exclusion: float) -> np.ndarray:
    d2p = (points[:, 0] - r1) ** 2 + points[:, 1] ** 2
    d2m = (points[:, 0] + r1) ** 2 + points[:, 1] ** 2
    return (d2p > exclusion**2) & (d2m > exclusion**2)


def _ring_spread(u: Field) -> float:
    """Largest angular value spread over lattice rings, relative to max |u|."""
    mesh = u.mesh
    by_ring = u.values[mesh.lattice]  # (n_theta, n_rad + 1)
    spread = by_ring.max(axis=0) - by_ring.min(axis=0)
    return float(spread.max() / max(np.abs(u.values).max(), 1e-300))


@dataclass
class _Frame:
    """The part of a geometry report that depends only on the mesh, built
    once for the reports of all fields on it."""

    exclusion: float
    interior: np.ndarray  # interior vertices outside the pole discs
    cap: np.ndarray  # those left of x1 = s - exclusion
    off_axis: np.ndarray  # those off the x1 axis
    tangent: np.ndarray  # (-x2, x1)/|x| at the off-axis vertices
    outer: np.ndarray  # outer-ring positions outside the pole discs
    area_sums: np.ndarray  # per vertex, the area of its triangles
    # the polarizers in turn, each with the vertices strictly outside H
    # whose image lies inside, and the stencil at those images
    tested: np.ndarray
    reflected: Stencil
    cell_size: float  # largest edge of the cells at (-R1, 0); nan at s = 0


def _frame(mesh: Mesh, exclusion: float) -> _Frame:
    """Tested sets, reflected-point stencil and peak cell size of ``mesh``."""
    d = mesh.domain
    v = mesh.vertices
    interior = _interior_mask(mesh) & _outside_poles(v, d.R1, exclusion)
    off_axis = np.flatnonzero(interior & (np.abs(v[:, 1]) > 1e-12 * d.R1))
    ring = mesh.lattice[:, mesh.res.n_rad]

    # the reflected points of all polarizers are located in one call
    tested = []
    reflected = []
    for j in range(REPORT_POLARIZERS):
        gamma = -np.pi / 2 + (j + 0.5) * np.pi / REPORT_POLARIZERS
        h = np.array([math.cos(gamma), math.sin(gamma)])
        side = np.einsum("...i,i->...", v, h)
        idx = np.nonzero(interior & (side > 1e-12 * d.R1))[0]
        refl = reflect(v[idx], h)
        ok_ref = d.contains(refl)
        tested.append(idx[ok_ref])
        reflected.append(refl[ok_ref])

    # the cells at the lattice vertex (-R1, 0)
    cell_size = float("nan")
    if d.s != 0.0:
        ref_vertex = mesh.vertex_index(mesh.res.n_theta // 2, mesh.res.n_rad)
        adj = np.flatnonzero((mesh.triangles == ref_vertex).any(axis=1))
        pts = v[mesh.triangles[adj]]
        cell_size = float(
            max(
                np.linalg.norm(pts[:, a] - pts[:, b], axis=1).max()
                for a, b in ((0, 1), (1, 2), (2, 0))
            )
        )

    w = v[off_axis]
    tangent = np.stack([-w[:, 1], w[:, 0]], axis=1) / np.hypot(w[:, 0], w[:, 1])[:, None]
    return _Frame(
        exclusion=exclusion,
        interior=np.flatnonzero(interior),
        cap=np.flatnonzero(interior & (v[:, 0] < d.s - exclusion)),
        off_axis=off_axis,
        tangent=tangent,
        outer=np.flatnonzero(_outside_poles(v[ring], d.R1, exclusion)),
        area_sums=_area_sums(mesh),
        tested=np.concatenate(tested),
        reflected=mesh.stencil(np.concatenate(reflected)),
        cell_size=cell_size,
    )


def geometry_report(u: Field, exclusion: float | None = None) -> GeometryReport:
    """Evaluate the seven sign checks on a positive first eigenfunction.

    Also meaningful for the torsion field, whose gradient obeys the same
    affine-radial and axial inequalities.  Interior vertices within
    ``exclusion`` (default ``EXCLUSION R1``) of ``(+-R1, 0)`` are skipped.
    """
    return geometry_reports([u], exclusion)[0]


def geometry_reports(
    fields: list[Field], exclusion: float | None = None
) -> list[GeometryReport]:
    """:func:`geometry_report` of every field, all on one mesh.

    The field-independent work, the reflected points' location above all,
    is done once for all of them.
    """
    mesh = fields[0].mesh
    if any(u.mesh is not mesh for u in fields):
        raise ValueError("the fields lie on different meshes")
    frame = _frame(mesh, exclusion_radius(exclusion, mesh.domain.R1))
    return [_report(u, frame) for u in fields]


def exclusion_radius(exclusion: float | None, R1: float) -> float:
    """``exclusion``, or ``EXCLUSION R1`` if it is None; ``ValueError`` unless
    it is finite and >= 0."""
    if exclusion is None:
        return EXCLUSION * R1
    if not 0.0 <= exclusion < np.inf:
        raise ValueError(f"exclusion must be finite and >= 0, got {exclusion}")
    return exclusion


def _upper_twin(point) -> tuple[float, float]:
    """``(x, |y|)`` of a point, the :class:`CheckResult` location."""
    return float(point[0]), abs(float(point[1]))


def _extremum(
    name, values, where, points, sense, detail, threshold=0.0, allowed=0.0
) -> CheckResult:
    """The sign check that ``values``, tested in order at ``points[where]``,
    all lie above ``threshold`` (``sense`` "min") or below it ("max").

    The worst value is the first extremum.  A value on the wrong side of
    ``threshold``, or equal to it, is a violation; the check passes when
    there is none, or when their share is below ``allowed``.  ``detail``
    may name ``{violations}`` and ``{tested}``.
    """
    if values.size == 0:
        return CheckResult(name, None, (0.0, 0.0), True, "no test points")
    if sense == "min":
        worst = int(np.argmin(values))
        nviol = int(np.count_nonzero(~(values > threshold)))
    else:
        worst = int(np.argmax(values))
        nviol = int(np.count_nonzero(~(values < threshold)))
    return CheckResult(
        name, float(values[worst]), _upper_twin(points[where[worst]]),
        nviol == 0 or nviol / values.size < allowed,
        detail.format(violations=nviol, tested=values.size), nviol,
    )


def _ring_constancy(name, values, where, points, spread) -> CheckResult:
    """The s = 0 form of an angular-derivative check: the verdict is ring
    constancy, to ``RADIAL_SPREAD_RTOL``, whatever the tested points; the
    worst value is the largest ``|values|`` among them."""
    ok = bool(spread <= RADIAL_SPREAD_RTOL)
    detail = f"concentric: angular derivative vanishes; ring spread {spread:.2e}"
    if values.size == 0:
        return CheckResult(name, None, (0.0, 0.0), ok, detail, int(not ok))
    worst = int(np.argmax(np.abs(values)))
    return CheckResult(name, float(values[worst]), _upper_twin(points[where[worst]]),
                       ok, detail, int(not ok))


def _report(u: Field, frame: _Frame) -> GeometryReport:
    mesh = u.mesh
    d = mesh.domain
    v = mesh.vertices
    g = _recover_gradient(u, frame.area_sums)
    interior, off_axis = frame.interior, frame.off_axis
    outer = mesh.lattice[frame.outer, mesh.res.n_rad]
    d1 = outer_axial_derivative(u)[frame.outer]
    tang = np.einsum("ij,ij->i", g[off_axis], frame.tangent)

    # (a) increasing along rays from the inner center
    radial = np.einsum("ij,ij->i", g, v - d.inner_center)
    results = [
        _extremum("affine_radial", radial[interior], interior, v, "min",
                  "min of grad u . (x - s e1)"),
        # (b) decreasing in x1 on the cap left of the inner center
        _extremum("axial_cap", g[frame.cap, 0], frame.cap, v, "max",
                  "max of du/dx1 over {{x1 < s - exclusion}}"),
    ]
    # (c) decreasing in x1 along the outer circle; (d) grad u . eta and
    # eta . e1 have opposite signs for the tangential direction eta
    if d.s == 0.0:
        spread = _ring_spread(u)
        results += [_ring_constancy("outer_axial", d1, outer, v, spread),
                    _ring_constancy("tangential_sign", tang, off_axis, v, spread)]
    else:
        results += [
            _extremum("outer_axial", d1, outer, v, "max",
                      "max of du/dx1 on the outer circle"),
            _extremum("tangential_sign", tang * v[off_axis, 1], off_axis, v, "min",
                      "{violations} violations of {tested} points", allowed=1e-3),
        ]
    # (e) gradient does not vanish off the axis
    gnorm = np.hypot(g[off_axis, 0], g[off_axis, 1])
    results.append(_extremum("gradient_nonzero", gnorm, off_axis, v, "min",
                             "min |grad u| off axis"))
    # (f) strict ordering under star-family reflections, to an interpolation
    # tolerance; the worst value is the first strict minimum over the
    # polarizers in turn
    tol = INTERP_RTOL * float(np.abs(u.values).max())
    margin = frame.reflected.apply(u.values) - u.values[frame.tested]
    results.append(_extremum(
        "reflection_ordering", margin, frame.tested, v, "min",
        f"{{violations}} of {{tested}} beyond tolerance {tol:.2e}", threshold=-tol,
    ))

    # (g) unique maximum at (-R1, 0); at s = 0 the maximum spreads over the
    # whole outer circle, so only membership in the outer layer is required
    peak = int(np.argmax(u.values))
    ploc = _upper_twin(v[peak])
    if d.s == 0.0:
        ok = bool((mesh.lattice[:, mesh.res.n_rad] == peak).any())
        results.append(CheckResult(
            "peak_location", float(np.hypot(v[peak][0], v[peak][1]) - d.R1), ploc,
            ok, "concentric: maximum attained on the outer circle", int(not ok),
        ))
    else:
        dist = float(np.hypot(*(v[peak] - np.array([-d.R1, 0.0]))))
        diam = frame.cell_size
        ok = bool(dist <= 1.5 * diam)
        results.append(CheckResult(
            "peak_location", dist, ploc, ok,
            f"peak vertex {dist:.3e} from (-R1, 0), cell size {diam:.3e}", int(not ok),
        ))

    return GeometryReport(frame.exclusion, {c.name: c for c in results})
