import numpy as np
import pytest

from annulab.fem import Field
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh
from annulab.symmetrize import (
    RingSampling,
    deviation,
    foliated_schwarz,
    mirror_symmetric,
    polarize,
    sample_rings,
    star_polarizers,
    worst_polarization_deviation,
)


def ring_of(values, m=None, radius=1.0, center=(0.0, 0.0)):
    values = np.asarray(values, dtype=float)[None, :]
    m = m or values.shape[1]
    return RingSampling(
        center=np.asarray(center, dtype=float),
        radii=np.array([radius]),
        m=m,
        values=values.copy(),
    )


@pytest.fixture(scope="module")
def mesh_and_fields():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, Resolution(64, 16, 1.0))
    ones = Field(np.ones(mesh.num_vertices), mesh)
    radial = Field(np.hypot(*mesh.vertices.T), mesh)
    return mesh, ones, radial


def test_sample_constant_field(mesh_and_fields):
    mesh, ones, _ = mesh_and_fields
    rs = sample_rings(ones, m=64, n_rings=16, center="origin")
    d = mesh.domain
    pts = rs.points().reshape(-1, 2)
    in_hole = np.hypot(pts[:, 0] - d.s, pts[:, 1]) <= d.R0
    vals = rs.values.ravel()
    assert np.all(vals[in_hole] == 0.0)
    assert np.allclose(vals[~in_hole], 1.0, atol=1e-12)


def test_sample_radial_field_constant_rings(mesh_and_fields):
    mesh, _, radial = mesh_and_fields
    d0 = AnnularDomain(1.0, 5.0, 0.0)
    mesh0 = build_mesh(d0, Resolution(64, 16, 1.0))
    f = Field(np.hypot(*mesh0.vertices.T), mesh0)
    rs = sample_rings(f, m=32, n_rings=8, center="origin")
    live = rs.radii > d0.R0  # rings outside the hole
    spreads = rs.values[live].max(axis=1) - rs.values[live].min(axis=1)
    assert np.all(spreads <= 2e-3 * rs.radii[live])
    # no zeros on rings strictly between the circles
    between = (rs.radii > d0.R0) & (rs.radii < d0.R1)
    assert np.all(rs.values[between] > 0.0)


def test_sample_concentric_extension_zero_outside(mesh_and_fields):
    mesh, ones, _ = mesh_and_fields
    rs = sample_rings(ones, m=64, n_rings=16, center="inner")
    d = mesh.domain
    pts = rs.points().reshape(-1, 2)
    outside = np.einsum("ij,ij->i", pts, pts) >= d.R1**2
    vals = rs.values.ravel()
    assert np.all(vals[outside] == 0.0)
    assert np.allclose(vals[~outside], 1.0, atol=1e-12)


def full_interpolation(u, rs):
    """The values of ``rs`` with every one of its points located and
    interpolated, zero in the hole and beyond the outer circle."""
    d = u.mesh.domain
    pts = rs.points().reshape(-1, 2)
    live = (np.hypot(pts[:, 0] - d.s, pts[:, 1]) > d.R0) & (
        np.einsum("ij,ij->i", pts, pts) < d.R1**2
    )
    vals = np.zeros(pts.shape[0])
    vals[live] = u.mesh.interpolate(u.values, pts[live])
    return vals.reshape(rs.values.shape)


@pytest.mark.parametrize("m", [2, 6, 8, 64, 1024])
def test_ring_points_are_exactly_conjugate_symmetric(m):
    radii = np.array([0.02, 1.1, 4.9])
    for center in ((0.0, 0.0), (1.7, 0.0)):
        rs = RingSampling(np.array(center), radii, m, np.zeros((3, m)))
        p = rs.points()
        image = p[:, -np.arange(m)]  # sample m - q, and 0 for q = 0
        assert np.array_equal(image[..., 0], p[..., 0])
        assert np.array_equal(image[..., 1], -p[..., 1])
        assert np.array_equal(rs.points(m // 2 + 1), p[:, : m // 2 + 1])
        psi = rs.angles()
        exact = np.stack([np.cos(psi), np.sin(psi)], axis=1)
        assert np.allclose(p, rs.center + radii[:, None, None] * exact, rtol=0.0, atol=5e-15)


@pytest.mark.parametrize("center", ["origin", "inner"])
def test_sample_rings_copies_the_mirror_half_of_a_symmetric_field(nd_s2_128, center):
    u = nd_s2_128.u
    assert mirror_symmetric(u)
    m = 64
    rs = sample_rings(u, m=m, n_rings=16, center=center)
    # sample m - q is a bitwise copy of sample q
    assert np.array_equal(rs.values[:, 1:], rs.values[:, :0:-1])
    full = full_interpolation(u, rs)
    assert np.array_equal(rs.values[:, : m // 2 + 1], full[:, : m // 2 + 1])
    assert np.max(np.abs(rs.values - full)) <= 1e-14 * np.max(np.abs(u.values))
    assert np.max(rs.values) > 0.0


@pytest.mark.parametrize("center", ["origin", "inner"])
def test_sample_rings_interpolates_every_point_of_an_asymmetric_field(nd_s2_128, center):
    mesh = nd_s2_128.mesh
    skew = 1.0 + 0.4 * np.sin(mesh.vertices[:, 0] + 0.7 * mesh.vertices[:, 1])
    nudged = nd_s2_128.u.values.copy()
    v = mesh.vertex_index(5, 9)
    nudged[v] = np.nextafter(nudged[v], 1.0)
    for values in (nd_s2_128.u.values * skew, nudged):
        w = Field(values, mesh)
        assert not mirror_symmetric(w)
        rs = sample_rings(w, m=64, n_rings=16, center=center)
        assert np.array_equal(rs.values, full_interpolation(w, rs))


def test_polarize_symmetric_ring_unchanged():
    # already arranged decreasing from the -x direction
    vals = [0.0, 1.0, 4.0, 1.0]  # angles 0, pi/2, pi, 3pi/2
    rs = ring_of(vals)
    out = polarize(rs, 0)
    assert np.array_equal(out.values, rs.values)


def test_polarize_swaps_pair():
    # value 1 at angle 0 (outside the half plane of k = 0, normal e1), 0 at
    # angle pi
    rs = ring_of([1.0, 0.5, 0.0, 0.5])
    out = polarize(rs, 0)
    assert np.array_equal(out.values[0], [0.0, 0.5, 1.0, 0.5])


def test_polarize_norm_preservation_exact():
    # the values are permuted bit for bit, so any norm evaluated in a fixed
    # (sorted) order is preserved exactly
    rng = np.random.default_rng(2)
    rs = ring_of(rng.uniform(0, 1, 64))
    for pol in star_polarizers(64)[::7]:
        out = polarize(rs, pol)
        sa = np.sort(rs.values[0])
        sb = np.sort(out.values[0])
        assert np.array_equal(sa, sb)
        for p in (1, 2, np.inf):
            assert np.linalg.norm(sa, p) == np.linalg.norm(sb, p)


@pytest.mark.parametrize("m", [2, 8, 30])
def test_polarize_pairs_mirror_images(m):
    # each sample against its mirror image across the boundary line, found
    # geometrically: the side opposite the normal keeps the larger value
    rng = np.random.default_rng(m)
    rs = ring_of(rng.permutation(m).astype(float))
    p = rs.points()[0]
    for k in star_polarizers(m) + [m // 2, -(m // 2)]:
        h = np.array([np.cos(k * np.pi / m), np.sin(k * np.pi / m)])
        side = p @ h
        image = p - 2.0 * side[:, None] * h
        partner = np.argmin(np.hypot(*(image[:, None, :] - p[None, :, :]).T), axis=0)
        v, w = rs.values[0], rs.values[0][partner]
        want = np.where(side < -1e-9, np.maximum(v, w), np.minimum(v, w))
        assert np.array_equal(polarize(rs, k).values[0], want), k


def test_rearrange_spec_example():
    rs = ring_of([1.0, 2.0, 4.0, 3.0])
    out = foliated_schwarz(rs)
    assert np.array_equal(out.values[0], [1.0, 3.0, 4.0, 2.0])


def test_rearrange_fixed_points():
    const = ring_of(np.full(8, 2.5))
    assert np.array_equal(foliated_schwarz(const).values, const.values)
    arranged = ring_of([0.0, 1.0, 3.0, 5.0, 6.0, 4.0, 2.0, 0.5])
    # indices 0..7 at angles 2 pi q / 8; peak at q=4, alternating down
    assert np.array_equal(foliated_schwarz(arranged).values, arranged.values)


def test_rearrange_idempotent_and_equimeasurable():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0, 1, (5, 32))
    vals[2, :7] = vals[2, 7]  # ties
    rs = RingSampling(np.zeros(2), np.linspace(1, 2, 5), 32, vals.copy())
    star = foliated_schwarz(rs)
    again = foliated_schwarz(star)
    assert np.array_equal(star.values, again.values)
    for k in range(5):
        assert np.array_equal(np.sort(star.values[k]), np.sort(vals[k]))


@pytest.mark.parametrize("m", [4, 6, 8, 12, 16, 30])
def test_rearranged_ring_invariant_under_all_star_polarizers(m):
    rng = np.random.default_rng(m)
    cases = [rng.uniform(0, 1, m), np.round(rng.uniform(0, 3, m))]  # with ties
    for vals in cases:
        star = foliated_schwarz(ring_of(vals, m=m))
        for pol in star_polarizers(m):
            out = polarize(star, pol)
            assert np.array_equal(out.values, star.values)


def test_axis_polarizers_complete_the_characterization():
    # a ring monotone in angular distance but asymmetric at equal distances
    # passes every strict-family polarization yet differs from its
    # rearrangement; the two axis-aligned polarizers detect it
    rs = ring_of(np.array([0.5, 2.0, 4.0, 7.0, 10.0, 8.0, 5.0, 1.0]))
    for pol in star_polarizers(8):
        assert np.array_equal(polarize(rs, pol).values, rs.values)
    star = foliated_schwarz(rs)
    assert deviation(rs, star) > 0.0
    # the closure of the star family: horizontal boundary lines, normals
    # at angles +-pi/2
    axis = [4, -4]
    axis_changed = any(
        not np.array_equal(polarize(rs, pol).values, rs.values) for pol in axis
    )
    assert axis_changed
    # an axially symmetric monotone ring is a fixed point of everything
    sym = ring_of([0.5, 2.0, 4.0, 7.0, 10.0, 7.0, 4.0, 2.0])
    for pol in star_polarizers(8) + axis:
        assert np.array_equal(polarize(sym, pol).values, sym.values)
    assert deviation(sym, foliated_schwarz(sym)) == 0.0


def test_deviation_basic():
    a = ring_of([1.0, 2.0, 3.0, 2.0])
    assert deviation(a, a) == 0.0
    b = a.copy_with(a.values + 0.1)
    assert deviation(a, b) > 0.0
    with pytest.raises(ValueError):
        deviation(a, ring_of([1.0, 2.0, 3.0, 2.0], radius=2.0))


def reference_worst_deviation(rs):
    return max(
        deviation(rs, polarize(rs, pol)) for pol in star_polarizers(rs.m)
    )


def levels(m):
    return np.abs(np.arange(m) - m // 2)


def loser_counts(vals):
    """Per ring, the samples below some sample on a strictly farther level."""
    lev = levels(vals.shape[1])
    farther = lev[None, :] > lev[:, None]  # [q, p]: p is farther than q
    beaten = (vals[:, None, :] > vals[:, :, None]) & farther[None]
    return np.count_nonzero(np.any(beaten, axis=2), axis=1)


def scan_cases(m, rng):
    """One ring for each case of the scan, at least 8 samples each.

    Values decreasing in the level leave no loser; each other ring spoils
    that at one place, except the last, where nearly every sample loses.
    """
    lev = levels(m)
    clean = (m - lev).astype(float)
    one = clean.copy()
    one[m // 2 + 1] = m - 2.5  # level 1, beaten by level 2 only
    farthest = clean.copy()
    farthest[m - 1] = m / 2 + 1.75
    farthest[0] = m / 2 + 1.5  # level m/2 beats sample 1 only
    tied = clean.copy()
    tied[m // 2 + 2] = m - 4.0  # level 2, beaten by level 3, tied with level 4
    busy = lev + rng.uniform(0.0, 0.5, m)
    vals = np.stack([clean, one, farthest, tied, busy])
    assert list(loser_counts(vals)) == [0, 1, 1, 1, m - 1]  # m - 1 > m/4
    return vals


@pytest.mark.parametrize("m", [2, 4, 8, 64, 256])
def test_worst_polarization_deviation_matches_reference(m):
    rng = np.random.default_rng(m)
    samplings = []
    for n_rings in (1, 3, 7):
        vals = rng.uniform(-0.5, 1.0, (n_rings, m))
        vals[:, : m // 2] = np.round(vals[:, : m // 2], 1)  # ties
        vals[0, m // 4 : m // 4 + m // 3 + 1] = 0.0  # a zero run
        vals[-1] = np.maximum(vals[-1], 0.0)  # zero runs and ties at zero
        samplings.append(vals)
    if m >= 8:
        samplings.append(scan_cases(m, rng))
    refs = []
    for vals in samplings:
        radii = np.sort(rng.uniform(0.1, 4.0, vals.shape[0]))
        rs = RingSampling(np.zeros(2), radii, m, vals)
        refs.append(reference_worst_deviation(rs))
        new = worst_polarization_deviation(rs)
        assert new == pytest.approx(refs[-1], rel=1e-12, abs=0.0)
    assert max(refs) > 0.0


@pytest.mark.parametrize("center", ["origin", "inner"])
def test_worst_polarization_deviation_of_an_eigenfunction(center):
    from annulab.fem import ProblemKind
    from annulab.spectral import discretize, solve_eigenproblem

    for s in (0.0, 2.0):
        d = AnnularDomain(1.0, 5.0, s)
        nd = solve_eigenproblem(discretize(d, Resolution(64, 16, 1.5)), ProblemKind.ND)
        mesh = nd.u.mesh
        skew = 1.0 + 0.4 * np.sin(mesh.vertices[:, 0] + 0.7 * mesh.vertices[:, 1])
        for u in (nd.u, Field(nd.u.values * skew, mesh)):
            rs = sample_rings(u, m=64, n_rings=16, center=center)
            ref = reference_worst_deviation(rs)
            assert worst_polarization_deviation(rs) == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert ref > 0.0  # the skewed field is not polarization invariant
        # the radial field at s = 0 has rings with more than m/4 losers
        radial = sample_rings(nd.u, m=64, n_rings=16, center=center).values
        assert np.any(4 * loser_counts(radial) > 64) == (s == 0.0)


def test_worst_polarization_deviation_fixed_points():
    assert worst_polarization_deviation(ring_of(np.zeros(16))) == 0.0
    rng = np.random.default_rng(5)
    vals = np.round(rng.uniform(0, 3, (4, 32)))  # with ties
    vals[1, :10] = 0.0
    rs = RingSampling(np.zeros(2), np.linspace(1, 2, 4), 32, vals)
    assert worst_polarization_deviation(foliated_schwarz(rs)) == 0.0


def ring_dirichlet_energy(rs):
    """Dirichlet integral estimated on the polar sample grid."""
    r = rs.radii
    vals = rs.values
    dr = r[1] - r[0]
    dpsi = 2.0 * np.pi / rs.m
    dvdr = np.gradient(vals, r, axis=0)
    dvdpsi = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2 * dpsi)
    dens = dvdr**2 + (dvdpsi / r[:, None]) ** 2
    return float(np.sum(dens * r[:, None]) * dr * dpsi)


def test_polarization_preserves_dirichlet_energy_approximately(nd_s2_256):
    # continuum identity; discrete sampling reproduces it to a few percent
    mesh = nd_s2_256.mesh
    u = nd_s2_256.u.values
    skew = 1.0 + 0.4 * np.sin(mesh.vertices[:, 0] + 0.7 * mesh.vertices[:, 1])
    w = Field(u * skew, mesh)  # nonnegative, vanishes on the inner circle
    rs = sample_rings(w, m=512, n_rings=128, center="origin")
    base = ring_dirichlet_energy(rs)
    for pol in star_polarizers(512)[::37]:
        assert ring_dirichlet_energy(polarize(rs, pol)) == pytest.approx(
            base, rel=0.05
        )


def test_other_boundary_configurations_symmetric_arrangement():
    # the outer-pinned eigenfunction is symmetric-decreasing about the inner
    # center; the fully pinned one about both centers
    from annulab.fem import ProblemKind
    from annulab.spectral import discretize, solve_eigenproblem

    d = AnnularDomain(1.0, 5.0, 2.0)
    dn = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.DN)
    rs = sample_rings(dn.u, m=128, n_rings=32, center="inner")
    assert deviation(rs, foliated_schwarz(rs)) <= 0.02
    dd = solve_eigenproblem(discretize(d, Resolution(128, 32, 1.5)), ProblemKind.DD)
    for center in ("origin", "inner"):
        r = sample_rings(dd.u, m=128, n_rings=32, center=center)
        assert deviation(r, foliated_schwarz(r)) <= 0.02
