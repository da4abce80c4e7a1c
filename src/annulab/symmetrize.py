"""Discrete polarization and two-point rearrangement on concentric rings.

A field is sampled on circles about one of the two natural centers (the
origin, extending by zero into the hole, or the inner center, extending by
zero outside the outer circle); on a mirror-symmetric field only half of
each ring is interpolated (:func:`sample_rings`).  Per ring, polarization
swaps reflected sample pairs so the half-plane side keeps the larger value;
the full rearrangement sorts the ring and lays the values out symmetrically
about the direction opposite to +x, alternating upper half first.  Both
operations permute each ring's values, so per-ring multisets are preserved
bit for bit.

Foliated Schwarz symmetry about -x is invariance under every polarization by
a half plane whose boundary passes through the center and which contains
the -x direction.  On a ring of ``m`` samples, the half planes whose
reflection maps samples to samples are the star polarizers: the integer
``k`` stands for the half plane with outward normal at angle ``k pi / m``,
and ``-m/2 < k < m/2`` places -x strictly inside it.  The two axis
polarizers ``k = +-m/2`` close the family.

The alternating layout makes the rearranged ring invariant under every star
polarizer: reflected pairs of such a polarizer always have strictly
different angular distances from the peak direction, so the tie-breaking
side never matters.  Invariance under the two axis polarizers additionally
requires equal values at conjugate angles, which only axially symmetric
inputs satisfy.

The level of sample ``q`` is its angular distance ``|q - m/2|`` from -x.  A
star polarizer pairs samples on different levels, and its half plane holds
the nearer one, so a sample can lose value under some polarizer only if a
sample on a strictly farther level is larger: a loser.  The scan
:func:`worst_polarization_deviation` visits the pairs of the losers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import Field
from .mesh import unit_directions

# default ring sampling of the rearrangement checks: samples per ring, rings
RING_SAMPLES = 256
RINGS = 64
# loser rows gathered at once by the polarization scan
LOSER_BLOCK = 64


@dataclass
class RingSampling:
    """Values of a zero-extended field on concentric sample circles.

    ``values[k, q]`` is the sample on ring ``radii[k]`` at angle
    ``2 pi q / m`` about ``center``.
    """

    center: np.ndarray
    radii: np.ndarray
    m: int
    values: np.ndarray  # (n_rings, m)

    def __post_init__(self):
        check_ring_counts(self.m, self.radii.size)
        if self.values.shape != (self.radii.size, self.m):
            raise ValueError("values shape does not match radii and m")

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.m) / self.m

    def points(self, count: int | None = None) -> np.ndarray:
        """Points of samples ``0 .. count - 1`` of every ring, all ``m`` by
        default, ``(n_rings, count, 2)``.

        The directions come from :func:`annulab.mesh.unit_directions`, which
        is conjugate symmetric bit for bit: as the center lies on the
        x1-axis, sample ``m - q`` is the exact mirror image of sample ``q``.
        """
        c, sn = unit_directions(self.m)
        unit = np.stack([c[:count], sn[:count]], axis=1)
        return self.center[None, None, :] + self.radii[:, None, None] * unit[None, :, :]

    def copy_with(self, values) -> "RingSampling":
        return RingSampling(self.center, self.radii, self.m, values)

    def same_geometry(self, other: "RingSampling") -> bool:
        return (
            self.m == other.m
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.radii, other.radii)
        )


def check_ring_counts(m: int, n_rings: int) -> None:
    """``ValueError`` unless there is an even number of at least 2 samples
    per ring, so that reflections pair samples, and at least 1 ring."""
    if m < 2 or m % 2 != 0 or n_rings < 1:
        raise ValueError(
            "need an even number of at least 2 samples per ring and at least "
            f"1 ring, got {m} and {n_rings}"
        )


def sample_rings(
    u: Field, m: int = RING_SAMPLES, n_rings: int = RINGS, center: str = "origin"
) -> RingSampling:
    """Sample the zero extension of ``u`` on ``n_rings`` concentric circles.

    ``center="origin"`` samples the extension-by-zero into the hole on radii
    strictly inside the outer circle (starting at 0.02 R0 to avoid the
    center); ``center="inner"`` samples the extension that is zero outside
    the outer circle, on radii in (R0, R1 + s) about the inner center.

    If ``u`` is bitwise mirror symmetric (:func:`mirror_symmetric`), only
    samples ``q = 0 .. m/2`` of each ring are located and interpolated, and
    sample ``m - q``, the exact mirror image of sample ``q``
    (:meth:`RingSampling.points`), copies its value; otherwise all ``m``
    are.  The input decides, no option does.
    """
    check_ring_counts(m, n_rings)
    mesh = u.mesh
    d = mesh.domain
    if center == "origin":
        ctr = np.zeros(2)
        r_lo, r_hi = 0.02 * d.R0, d.R1
    elif center == "inner":
        ctr = d.inner_center.copy()
        r_lo, r_hi = d.R0, d.R1 + d.s
    else:
        raise ValueError(f"center must be 'origin' or 'inner', got {center!r}")
    radii = r_lo + (np.arange(1, n_rings + 1) / (n_rings + 1)) * (r_hi - r_lo)
    rs = RingSampling(ctr, radii, m, np.zeros((n_rings, m)))
    count = m // 2 + 1 if mirror_symmetric(u) else m
    pts = rs.points(count).reshape(-1, 2)

    inside_hole = np.hypot(pts[:, 0] - d.s, pts[:, 1]) <= d.R0
    beyond_outer = np.einsum("ij,ij->i", pts, pts) >= d.R1**2
    zero = inside_hole | beyond_outer
    vals = np.zeros(pts.shape[0])
    live = ~zero
    if np.any(live):
        vals[live] = mesh.interpolate(u.values, pts[live])
    rs.values[:, :count] = vals.reshape(n_rings, count)
    if count < m:  # samples m/2 + 1 .. m - 1 copy samples m/2 - 1 .. 1
        rs.values[:, count:] = rs.values[:, count - 2 : 0 : -1]
    return rs


def mirror_symmetric(u: Field) -> bool:
    """Whether ``u`` is bitwise invariant under ``x2 -> -x2``, which maps
    lattice vertex ``(i, j)`` to ``(-i mod n_theta, j)``."""
    lattice = u.mesh.lattice
    mirror = lattice[-np.arange(lattice.shape[0])]
    return np.array_equal(u.values[lattice], u.values[mirror])


def polarize(rs: RingSampling, k: int) -> RingSampling:
    """Two-point rearrangement by the polarizer ``k``: of each reflected
    pair, the sample in the half plane keeps the larger value.

    The half plane has its outward normal at angle ``k pi / m``, and its
    reflection pairs sample ``q`` with ``(k + m/2 - q) mod m``.  Samples on
    the boundary line are their own partners, so they keep their values.
    """
    m = rs.m
    refl = (k + m // 2 - np.arange(m)) % m
    gamma = k * math.pi / m
    psi = rs.angles()
    in_h = np.cos(psi) * math.cos(gamma) + np.sin(psi) * math.sin(gamma) < 0.0

    vals = rs.values
    mirrored = vals[:, refl]
    out = np.where(in_h[None, :], np.maximum(vals, mirrored), np.minimum(vals, mirrored))
    return rs.copy_with(out)


def _placement_order(m: int) -> np.ndarray:
    """Sample indices ordered by decreasing rank in the symmetric layout.

    Rank 0 sits opposite +x (index m/2), then ranks alternate upper half
    first at increasing angular distance, ending at index 0.
    """
    half = m // 2
    order = np.empty(m, dtype=int)
    order[0] = half
    pos = 1
    for t in range(1, half + 1):
        order[pos] = half - t
        pos += 1
        if t < half:
            order[pos] = half + t
            pos += 1
    return order


def foliated_schwarz(rs: RingSampling) -> RingSampling:
    """Symmetric-decreasing rearrangement of every ring about the -x direction."""
    order = _placement_order(rs.m)
    ranked = -np.sort(-rs.values, axis=1)  # descending, stable not required
    out = np.empty_like(rs.values)
    out[:, order] = ranked
    return rs.copy_with(out)


def deviation(a: RingSampling, b: RingSampling) -> float:
    """Relative L2 distance over all samples, rings weighted by circumference."""
    if not a.same_geometry(b):
        raise ValueError("ring samplings have different geometry")
    w = (2.0 * math.pi * a.radii / a.m)[:, None]
    num = float(np.sum(w * (a.values - b.values) ** 2))
    den = float(np.sum(w * a.values**2))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return math.sqrt(num / den)


def star_polarizers(m: int) -> list:
    """The star polarizers ``-m/2 < k < m/2`` of a ring of ``m`` samples."""
    return list(range(-(m // 2) + 1, m // 2))


def _levels(m: int) -> np.ndarray:
    """Angular distance ``|q - m/2|`` of each sample from -x, in samples."""
    return np.abs(np.arange(m) - m // 2)


def _losers(vals: np.ndarray) -> np.ndarray:
    """Mask of the samples below some sample on a strictly farther level.

    Level ``L`` holds samples ``m/2 - L`` and ``(m/2 + L) mod m``; one
    reversed running maximum over the levels gives, per ring, the largest
    value beyond each level.
    """
    half = vals.shape[1] // 2
    top = np.maximum(vals[:, half::-1], np.roll(vals, -half, axis=1)[:, : half + 1])
    far = np.full_like(top, -np.inf)
    far[:, :-1] = np.maximum.accumulate(top[:, :0:-1], axis=1)[:, ::-1]
    return vals < far[:, _levels(vals.shape[1])]


def _slice_numerators(vals, w) -> np.ndarray:
    """``num[c]``, half the :func:`deviation` numerator of polarizer
    ``c - m/2``, by half-ring slices.

    The half plane of polarizer ``c`` holds exactly the samples ``q`` with
    ``c/2 < q < c/2 + m/2``.  On the ring values reversed and tiled twice
    (``rev2``) the partners of that contiguous slice are again a contiguous
    slice, so each polarizer costs a few passes over half a ring.
    """
    n_rings, m = vals.shape
    rev2 = np.tile(vals[:, ::-1], 2)  # rev2[:, j] == vals[:, (-1 - j) % m]
    buf = np.empty(n_rings * (m // 2))
    num = np.zeros(m)
    for c in range(1, m):
        lo, hi = c // 2 + 1, (c - 1) // 2 + m // 2 + 1  # half-plane samples lo..hi-1
        # partner of sample lo + j: vals[:, (c - lo - j) % m] == rev2[:, start + j]
        start = m - 1 - c + lo
        d = buf[: n_rings * (hi - lo)].reshape(n_rings, hi - lo)
        np.subtract(vals[:, lo:hi], rev2[:, start : start + hi - lo], out=d)
        np.minimum(d, 0.0, out=d)
        num[c] = w @ np.einsum("ij,ij->i", d, d)
    return num


def _row_numerators(vals, w, rings, qs) -> np.ndarray:
    """``num[c]`` as in :func:`_slice_numerators`, from the rows of the
    losers ``vals[rings, qs]`` only, gathered ``LOSER_BLOCK`` at a time.

    Row ``c`` of loser ``q`` reads its partner ``(c - q) mod m`` and keeps
    the pairs where that partner is on a farther level and larger.
    """
    m = vals.shape[1]
    lev = _levels(m)
    num = np.zeros(m)
    for b in range(0, rings.size, LOSER_BLOCK):
        r, q = rings[b : b + LOSER_BLOCK], qs[b : b + LOSER_BLOCK]
        partner = (np.arange(m) - q[:, None]) % m
        d = np.maximum(vals[r[:, None], partner] - vals[r, q][:, None], 0.0)
        d[lev[partner] <= lev[q][:, None]] = 0.0
        num += w[r] @ (d * d)
    return num


def worst_polarization_deviation(rs: RingSampling) -> float:
    """Largest ``deviation(rs, polarize(rs, k))`` over ``k`` in
    ``star_polarizers(rs.m)``.

    No polarized sampling is built.  Star polarizer ``k`` pairs sample ``q``
    with ``(c - q) mod m``, ``c = k + m/2``, and its half plane holds the
    partner on the nearer level, ``|q - m/2|`` being the level of ``q``
    (mirror twins share a level, and no star polarizer pairs them).  A
    pair moves only where the nearer value is the smaller one, which adds
    ``2 w_r (v_q - v_q')**2`` to the numerator of :func:`deviation`; the
    denominator is the same for every polarizer.  So only the losers of
    :func:`_losers` add anything, and a ring without losers adds 0 to every
    polarizer.  A ring with at most ``m/4`` losers is scanned by their rows
    (:func:`_row_numerators`), one with more by half-ring slices
    (:func:`_slice_numerators`).
    """
    m = rs.m
    vals = rs.values
    w = 2.0 * math.pi * rs.radii / m
    den = float(np.sum(w[:, None] * vals**2))
    losers = _losers(vals)
    busy = 4 * np.count_nonzero(losers, axis=1) > m
    num = np.zeros(m)
    if np.any(busy):
        num += _slice_numerators(vals[busy], w[busy])
    rings, qs = np.nonzero(losers & ~busy[:, None])
    num += _row_numerators(vals, w, rings, qs)
    # sqrt(num / den) grows with num, so the worst num decides; num[0] stays
    # 0, as the axis polarizer c = 0 pairs mirror twins only
    worst_num = 2.0 * float(np.max(num))
    if den == 0.0:
        return 0.0 if worst_num == 0.0 else math.inf
    return math.sqrt(worst_num / den)
