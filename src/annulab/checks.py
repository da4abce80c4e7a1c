"""Sign checks on computed fields: monotonicity, symmetry and peak location.

Each check evaluates a strict continuum inequality on the discrete field and
reports the worst margin together with where it occurs.  Signs are tested
against zero; the only tunable is the exclusion radius around the two
points where the inequalities genuinely degenerate (``(+-R1, 0)``, where the
gradient vanishes).  The reflection comparison allows a fixed interpolation
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
angular checks therefore verify ring constancy instead, and the peak check
only requires the maximum on the outer layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import Field, p1_gradient
from .geometry import Polarizer
from .mesh import Mesh, Stencil

# ordering allowance for interpolated reflection comparisons, relative to
# max |u|; covers the O(h^2) interpolation error of the reflected value
INTERP_RTOL = 1e-3

# star-family polarizers of the reflection check, evenly spread in angle
REPORT_POLARIZERS = 8

# relative ring-value spread accepted as "angularly constant" at s = 0
RADIAL_SPREAD_RTOL = 1e-3

# default exclusion radius around (+-R1, 0), as a fraction of R1
EXCLUSION = 0.05


@dataclass
class GradientField:
    """Area-weighted vertex averages of the per-triangle P1 gradients."""

    values: np.ndarray  # (nv, 2)
    mesh: Mesh

    def at(self, pts):
        """The recovered gradient interpolated at ``pts``, ``(n, 2)``."""
        st = self.mesh.stencil(pts)
        g = self.values
        return np.stack([st.apply(g[:, 0]), st.apply(g[:, 1])], axis=-1)


def _area_sums(mesh: Mesh) -> np.ndarray:
    """Per vertex, the total area of its triangles: the denominators of the
    recovered gradient, which depend only on the mesh."""
    den = np.zeros(mesh.num_vertices)
    np.add.at(den, mesh.triangles.ravel(), np.repeat(mesh.areas, 3))
    return den


def recover_gradient(u: Field) -> GradientField:
    """Vertex gradient: sum of area * triangle gradient over adjacent cells.

    Exact for globally linear fields; O(h) accurate at interior vertices.
    """
    return _recover_gradient(u, _area_sums(u.mesh))


def _recover_gradient(u: Field, area_sums: np.ndarray) -> GradientField:
    mesh = u.mesh
    gx_tri, gy_tri, area = p1_gradient(u)
    num = np.zeros((mesh.num_vertices, 2))
    flat = mesh.triangles.ravel()
    np.add.at(num[:, 0], flat, np.repeat(area * gx_tri, 3))
    np.add.at(num[:, 1], flat, np.repeat(area * gy_tri, 3))
    return GradientField(values=num / area_sums[:, None], mesh=mesh)


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
    """One check's worst value and where it occurs.

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


@dataclass
class GeometryReport:
    exclusion: float
    checks: dict[str, CheckResult]
    violation_counts: dict[str, int]

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
    cap: np.ndarray  # interior vertices left of x1 = s - exclusion
    off_axis: np.ndarray  # vertices off the x1 axis
    ring_mask: np.ndarray  # outer-ring vertices outside the pole discs
    area_sums: np.ndarray  # per vertex, the area of its triangles
    # per polarizer: the vertices strictly outside H whose image lies inside
    tested: list[np.ndarray]
    reflected: Stencil  # at the images of all tested vertices, in order
    cell_size: float  # largest edge of the cells at (-R1, 0); nan at s = 0


def _frame(mesh: Mesh, exclusion: float) -> _Frame:
    """Masks, reflected-point stencil and peak cell size of ``mesh``."""
    d = mesh.domain
    v = mesh.vertices
    interior = _interior_mask(mesh) & _outside_poles(v, d.R1, exclusion)
    ring = mesh.lattice[:, mesh.res.n_rad]

    # the reflected points of all polarizers are located in one call
    tested = []
    reflected = []
    for j in range(REPORT_POLARIZERS):
        pol = Polarizer.from_angle(-np.pi / 2 + (j + 0.5) * np.pi / REPORT_POLARIZERS)
        side = pol.side(v)
        idx = np.nonzero(interior & (side > 1e-12 * d.R1))[0]
        refl = pol.reflect(v[idx])
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

    return _Frame(
        exclusion=exclusion,
        interior=interior,
        cap=interior & (v[:, 0] < d.s - exclusion),
        off_axis=np.abs(v[:, 1]) > 1e-12 * d.R1,
        ring_mask=_outside_poles(v[ring], d.R1, exclusion),
        area_sums=_area_sums(mesh),
        tested=tested,
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


def _report(u: Field, frame: _Frame) -> GeometryReport:
    mesh = u.mesh
    exclusion = frame.exclusion
    d = mesh.domain
    degenerate = d.s == 0.0
    grad = _recover_gradient(u, frame.area_sums)
    g = grad.values
    v = mesh.vertices
    umax = float(np.abs(u.values).max())

    interior = frame.interior
    checks: dict[str, CheckResult] = {}
    counts: dict[str, int] = {}

    def no_test_points(name):
        checks[name] = CheckResult(name, None, (0.0, 0.0), True, "no test points")
        counts[name] = 0

    def record(name, mask, values, sense, detail="", points=v):
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            no_test_points(name)
            return
        vals = values[idx]
        if sense == "min>0":
            wpos = int(np.argmin(vals))
            ok = bool(vals[wpos] > 0.0)
            nviol = int((vals <= 0.0).sum())
        else:  # "max<0"
            wpos = int(np.argmax(vals))
            ok = bool(vals[wpos] < 0.0)
            nviol = int((vals >= 0.0).sum())
        checks[name] = CheckResult(
            name, float(vals[wpos]), _upper_twin(points[idx[wpos]]), ok, detail
        )
        counts[name] = nviol

    # (a) increasing along rays from the inner center
    radial = np.einsum("ij,ij->i", g, v - d.inner_center)
    record("affine_radial", interior, radial, "min>0",
           "min of grad u . (x - s e1)")

    # (b) decreasing in x1 on the cap left of the inner center
    record("axial_cap", frame.cap, g[:, 0], "max<0",
           "max of du/dx1 over {x1 < s - exclusion}")

    # (c) decreasing in x1 along the outer circle
    ring = mesh.lattice[:, mesh.res.n_rad]
    ring_pts = v[ring]
    ring_mask = frame.ring_mask
    d1 = outer_axial_derivative(u)
    spread = _ring_spread(u)
    if degenerate:
        ok = bool(spread <= RADIAL_SPREAD_RTOL)
        wpos = int(np.argmax(np.abs(d1 * ring_mask)))
        checks["outer_axial"] = CheckResult(
            "outer_axial", float(d1[wpos]),
            _upper_twin(ring_pts[wpos]), ok,
            f"concentric: angular derivative vanishes; ring spread {spread:.2e}",
        )
        counts["outer_axial"] = 0 if ok else 1
    else:
        record("outer_axial", ring_mask, d1, "max<0",
               "max of du/dx1 on the outer circle", ring_pts)

    # (d) tangential derivative sign: grad u . eta and eta . e1 have opposite
    # signs for the tangential direction eta = (-x2, x1)/|x|
    mask_d = interior & frame.off_axis
    idx = np.nonzero(mask_d)[0]
    rr = np.hypot(v[idx, 0], v[idx, 1])
    eta = np.stack([-v[idx, 1], v[idx, 0]], axis=1) / rr[:, None]
    tang = np.einsum("ij,ij->i", g[idx], eta)
    prod = tang * v[idx, 1]  # requirement: positive (sign(tang) = sign(x2))
    if idx.size == 0:
        no_test_points("tangential_sign")
    elif degenerate:
        ok = bool(spread <= RADIAL_SPREAD_RTOL)
        wpos = int(np.argmax(np.abs(tang)))
        checks["tangential_sign"] = CheckResult(
            "tangential_sign", float(tang[wpos]),
            _upper_twin(v[idx[wpos]]), ok,
            f"concentric: angular derivative vanishes; ring spread {spread:.2e}",
        )
        counts["tangential_sign"] = 0 if ok else 1
    else:
        nviol = int((prod <= 0.0).sum())
        frac = nviol / max(idx.size, 1)
        wpos = int(np.argmin(prod))
        checks["tangential_sign"] = CheckResult(
            "tangential_sign", float(prod[wpos]),
            _upper_twin(v[idx[wpos]]), bool(frac < 1e-3),
            f"{nviol} violations of {idx.size} points",
        )
        counts["tangential_sign"] = nviol

    # (e) gradient does not vanish off the axis
    gnorm = np.hypot(g[:, 0], g[:, 1])
    record("gradient_nonzero", mask_d, gnorm, "min>0", "min |grad u| off axis")

    # (f) strict ordering under star-family reflections
    tol = INTERP_RTOL * umax
    u_refs = np.split(frame.reflected.apply(u.values),
                      np.cumsum([idx.size for idx in frame.tested])[:-1])
    nviol = 0
    ntest = 0
    worst = np.inf
    wloc = (0.0, 0.0)
    for idx, u_ref in zip(frame.tested, u_refs):
        if idx.size == 0:
            continue
        margin = u_ref - u.values[idx]
        ntest += idx.size
        bad = margin <= -tol
        nviol += int(bad.sum())
        wpos = int(np.argmin(margin))
        if margin[wpos] < worst:
            worst = float(margin[wpos])
            wloc = _upper_twin(v[idx[wpos]])
    if ntest == 0:
        no_test_points("reflection_ordering")
    else:
        checks["reflection_ordering"] = CheckResult(
            "reflection_ordering", worst, wloc, bool(nviol == 0),
            f"{nviol} of {ntest} beyond tolerance {tol:.2e}",
        )
        counts["reflection_ordering"] = nviol

    # (g) unique maximum at (-R1, 0); at s = 0 the maximum spreads over the
    # whole outer circle, so only membership in the outer layer is required
    peak = int(np.argmax(u.values))
    ploc = _upper_twin(v[peak])
    if degenerate:
        on_outer = peak in set(int(k) for k in ring)
        checks["peak_location"] = CheckResult(
            "peak_location", float(np.hypot(v[peak][0], v[peak][1]) - d.R1),
            ploc, bool(on_outer), "concentric: maximum attained on the outer circle",
        )
        counts["peak_location"] = 0 if on_outer else 1
    else:
        target = np.array([-d.R1, 0.0])
        dist = float(np.hypot(*(v[peak] - target)))
        diam = frame.cell_size
        checks["peak_location"] = CheckResult(
            "peak_location", dist, ploc, bool(dist <= 1.5 * diam),
            f"peak vertex {dist:.3e} from (-R1, 0), cell size {diam:.3e}",
        )
        counts["peak_location"] = 0 if dist <= 1.5 * diam else 1

    return GeometryReport(exclusion=exclusion, checks=checks, violation_counts=counts)
