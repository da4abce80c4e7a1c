import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vertex_mirror

from annulab.export import write_field
from annulab.fem import Field, p1_gradient
from annulab.geometry import AnnularDomain
from annulab.mesh import INTERPOLATE_BLOCK, LOCATE_TOL, Resolution, build_mesh


def canonical_triangle_keys(tris):
    return {tuple(sorted(t)) for t in tris}


def test_vertex_count_and_area_concentric():
    d = AnnularDomain(1.0, 5.0, 0.0)
    m = build_mesh(d, Resolution(64, 16, 1.0))
    assert m.num_vertices == 64 * 17
    assert m.areas.sum() == pytest.approx(math.pi * 24.0, rel=5e-3)


def test_outer_ray_corners():
    d = AnnularDomain(1.0, 5.0, 3.0)
    m = build_mesh(d, Resolution(64, 16, 1.0))
    v_right = m.vertices[m.vertex_index(0, 16)]
    v_left = m.vertices[m.vertex_index(32, 16)]
    assert np.allclose(v_right, [5.0, 0.0], atol=1e-12)
    assert np.allclose(v_left, [-5.0, 0.0], atol=1e-12)


def test_boundary_tags():
    d = AnnularDomain(1.0, 5.0, 2.0)
    m = build_mesh(d, Resolution(32, 4, 1.0))
    assert m.inner_edges.shape == (32, 2)
    for v0, v1 in m.inner_edges:
        for v in (v0, v1):
            p = m.vertices[v]
            assert math.hypot(p[0] - 2.0, p[1]) == pytest.approx(1.0, abs=1e-12)
    # each inner edge lies in its recorded triangle
    tri = m.triangles[m.inner_triangles]
    assert np.all((tri[:, :, None] == m.inner_edges[:, None, :]).any(axis=1))
    for v in m.lattice[:, 4]:
        p = m.vertices[v]
        assert math.hypot(p[0], p[1]) == pytest.approx(5.0, abs=1e-12)


def test_vertices_in_closure_and_layer_radii():
    d = AnnularDomain(1.0, 5.0, 3.2)
    m = build_mesh(d, Resolution(48, 8, 1.5))
    tol = 1e-12 * d.R1
    assert np.all(np.hypot(*m.vertices.T) <= d.R1 + tol)
    assert np.all(np.hypot(*(m.vertices - d.inner_center).T) >= d.R0 - tol)
    r_in = np.hypot(m.vertices[m.lattice[:, 0], 0] - d.s, m.vertices[m.lattice[:, 0], 1])
    assert np.allclose(r_in, d.R0, atol=1e-12 * d.R1)
    r_out = np.hypot(*m.vertices[m.lattice[:, 8]].T)
    assert np.allclose(r_out, d.R1, atol=1e-12 * d.R1)


def test_positive_areas_and_quality_fields():
    d = AnnularDomain(1.0, 5.0, 2.0)
    m = build_mesh(d, Resolution(64, 16, 1.0))
    assert np.all(m.areas > 0)
    assert m.num_triangles == 64 * 16 * 2
    assert 60.0 <= m.max_angle_deg < 180.0


@pytest.mark.parametrize("s, want", [(0.0, 90.70), (2.0, 114.17), (3.6, 136.55)])
def test_max_angle_at_baseline_resolution(s, want):
    # the law of cosines sees the obtuse angles of the eccentric meshes
    m = build_mesh(AnnularDomain(1.0, 5.0, s), Resolution(256, 64, 1.5))
    assert m.max_angle_deg == pytest.approx(want, abs=0.01)


def test_area_second_order_convergence():
    d = AnnularDomain(1.0, 5.0, 1.7)
    errs = []
    for nt, nr in ((32, 8), (64, 16), (128, 32)):
        m = build_mesh(d, Resolution(nt, nr, 1.0))
        errs.append(abs(m.areas.sum() - d.area))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 < p < 2.3 for p in orders)


def test_mirror_symmetry_exact():
    d = AnnularDomain(1.0, 5.0, 2.6)
    m = build_mesh(d, Resolution(52, 6, 0.8))  # n_theta = 2 mod 4 on purpose
    mirror = vertex_mirror(m)
    mirrored = m.vertices[mirror]
    flipped = m.vertices.copy()
    flipped[:, 1] = -flipped[:, 1]
    assert np.array_equal(mirrored, flipped)  # bitwise
    # triangle set invariant under the vertex mirror
    keys = canonical_triangle_keys(m.triangles)
    mirrored_keys = canonical_triangle_keys(mirror[m.triangles])
    assert keys == mirrored_keys


@pytest.mark.parametrize("n_theta, s", [(64, 2.0), (66, 2.0), (66, 3.999)])
def test_inner_circle_x1_mirror(n_theta, s):
    # the inner ring is symmetric across x1 = s to rounding, and bitwise in
    # x2 when 4 | n_theta; the half-boundary regrouping pairs inner edge i
    # with its mirror image, edge n_theta/2 - 1 - i, for every even n_theta
    d = AnnularDomain(1.0, 5.0, s)
    m = build_mesh(d, Resolution(n_theta, 4, 1.0))
    ring = m.vertices[m.lattice[:, 0]]
    i = np.arange(n_theta)
    partner = (n_theta // 2 - i) % n_theta
    assert np.abs(2.0 * d.s - ring[partner, 0] - ring[i, 0]).max() <= 1e-14 * d.R1
    assert np.abs(ring[partner, 1] - ring[i, 1]).max() <= 1e-14 * d.R1
    if n_theta % 4 == 0:
        assert np.array_equal(ring[partner, 1], ring[i, 1])
    mid = 0.5 * (ring + np.roll(ring, -1, axis=0))
    pair = (n_theta // 2 - 1 - i) % n_theta
    assert np.abs(2.0 * d.s - mid[pair, 0] - mid[:, 0]).max() <= 1e-14 * d.R1
    assert np.abs(mid[pair, 1] - mid[:, 1]).max() <= 1e-14 * d.R1


def test_build_validation():
    for bad in ((63, 16, 1.0), (8, 16, 1.0), (64, 3, 1.0), (64, 16, 3.0)):
        with pytest.raises(ValueError):
            Resolution(*bad)


def test_interpolate_linear_exact():
    d = AnnularDomain(1.0, 5.0, 1.2)
    m = build_mesh(d, Resolution(32, 6, 1.0))
    vals = 2.0 * m.vertices[:, 0] - 0.5 * m.vertices[:, 1] + 1.0
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 40:
        p = rng.uniform(-5, 5, 2)
        if np.hypot(*p) < d.R1 - 0.3 and np.hypot(*(p - d.inner_center)) > d.R0 + 0.3:
            pts.append(p)
    pts = np.array(pts)
    got = m.interpolate(vals, pts)
    want = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0
    assert np.allclose(got, want, atol=1e-12)


def test_interpolate_outside_policies():
    # a point outside the mesh takes the clamped weights of its triangle in
    # the end quad of its sector
    d = AnnularDomain(1.0, 5.0, 2.0)
    m = build_mesh(d, Resolution(32, 6, 1.0))
    vals = np.ones(m.num_vertices)
    hole_pt = np.array([[2.0, 0.0]])
    assert m.interpolate(vals, hole_pt)[0] == pytest.approx(1.0)


def reference_bary(mesh, tids, pts):
    """Barycentric coordinates of ``pts`` in triangles ``tids``, formed from
    the triangles' corners on every call."""
    tri = mesh.triangles[tids]
    a = mesh.vertices[tri[:, 0]]
    b = mesh.vertices[tri[:, 1]]
    c = mesh.vertices[tri[:, 2]]
    v0 = b - a
    v1 = c - a
    v2 = pts - a
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    l1 = (v2[:, 0] * v1[:, 1] - v2[:, 1] * v1[:, 0]) / den
    l2 = (v0[:, 0] * v2[:, 1] - v0[:, 1] * v2[:, 0]) / den
    return np.stack([1.0 - l1 - l2, l1, l2], axis=1)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def probe_points(mesh, n, seed):
    """Seeded points in and around the annulus, the lattice vertices and
    points on the lattice edges."""
    rng = np.random.default_rng(seed)
    R1 = mesh.domain.R1
    scattered = rng.uniform(-1.1 * R1, 1.1 * R1, (n, 2))
    lat = mesh.lattice
    radial = 0.5 * (mesh.vertices[lat[:, :-1]] + mesh.vertices[lat[:, 1:]])
    angular = 0.5 * (mesh.vertices[lat] + mesh.vertices[np.roll(lat, -1, axis=0)])
    diagonal = mesh.vertices[mesh.triangles[:, [0, 2]]].mean(axis=1)
    return np.concatenate([
        scattered, mesh.vertices, radial.reshape(-1, 2), angular.reshape(-1, 2),
        diagonal,
    ])


def brute_force_scores(mesh, pts):
    """Per point, the largest smallest barycentric coordinate over every
    triangle of the mesh."""
    tids = np.arange(mesh.num_triangles)
    best = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], 128):
        block = pts[start : start + 128]
        p = np.repeat(block, tids.size, axis=0)
        score = reference_bary(mesh, np.tile(tids, block.shape[0]), p).min(axis=1)
        best[start : start + 128] = score.reshape(block.shape[0], -1).max(axis=1)
    return best


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(
    ratio=st.floats(0.01, 0.9),
    offset=st.floats(0.0, 0.999),
    n_theta=st.integers(8, 40).map(lambda k: 2 * k),
    n_rad=st.integers(4, 10),
    grading=st.floats(0.5, 2.0),
)
def test_locate_finds_every_point_of_the_mesh(ratio, offset, n_theta, n_rad, grading):
    R1 = 5.0
    d = AnnularDomain(ratio * R1, R1, offset * (1.0 - ratio) * R1)
    m = build_mesh(d, Resolution(n_theta, n_rad, grading))
    pts = probe_points(m, 300, seed=n_theta * n_rad)
    # and the same points just inside and outside along their rays
    q = pts - d.inner_center
    pts = np.concatenate([pts, d.inner_center + q * (1.0 - 1e-8),
                          d.inner_center + q * (1.0 + 1e-8)])
    tri, bary, inside = m.locate(pts)
    # the barycentrics are those of the textbook formula, bit for bit
    assert same_bits(bary, reference_bary(m, tri, pts))
    score = bary.min(axis=1)
    assert np.array_equal(inside, score >= -LOCATE_TOL)
    # no triangle contains a point that its located one does not
    assert np.all(brute_force_scores(m, pts[~inside]) < -LOCATE_TOL)
    # a point off the mesh gets the inner or outer quad of a sector
    layer = (tri[~inside] // 2) % n_rad
    assert np.all((layer == 0) | (layer == n_rad - 1))


def test_interpolate_blocks_match_single_points():
    m = build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(32, 6, 1.5))
    vals = np.sin(m.vertices[:, 0]) * np.cos(0.3 * m.vertices[:, 1])
    rng = np.random.default_rng(3)
    # inside, in the hole and beyond the outer circle
    pts = rng.uniform(-5.5, 5.5, (INTERPOLATE_BLOCK + 1, 2))
    got = m.interpolate(vals, pts)
    assert same_bits(got[-1:], m.interpolate(vals, pts[-1:]))
    # one point at a time, on a seeded subset of the first block
    for i in rng.choice(INTERPOLATE_BLOCK, 400, replace=False):
        assert same_bits(got[i : i + 1], m.interpolate(vals, pts[i]))


@pytest.mark.parametrize("points", ["inside", "clamp"])
def test_stencil_matches_interpolate_across_a_block_boundary(points):
    m = build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(32, 6, 1.5))
    vals = np.sin(m.vertices[:, 0]) * np.cos(0.3 * m.vertices[:, 1]) - 0.5
    rng = np.random.default_rng(11)
    # inside, in the hole and beyond the outer circle
    pts = rng.uniform(-5.5, 5.5, (2 * INTERPOLATE_BLOCK, 2))
    if points == "inside":
        pts = pts[m.locate(pts)[2]]
    assert pts.shape[0] > INTERPOLATE_BLOCK
    miss = ~m.locate(pts)[2]
    assert np.any(miss) == (points == "clamp")
    st = m.stencil(pts)
    assert same_bits(st.apply(vals), m.interpolate(vals, pts))
    # the clamped weights of the points outside are a convex combination
    assert np.all(st.weights[miss] >= 0.0)
    assert np.allclose(st.weights[miss].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def old_signed_areas(vertices, triangles):
    """The signed areas as formed from all three edge vectors."""
    p = vertices[triangles]
    e0 = p[:, 1] - p[:, 0]
    e2 = p[:, 0] - p[:, 2]
    return 0.5 * (e0[:, 0] * (-e2[:, 1]) - e0[:, 1] * (-e2[:, 0]))


def old_quad_table(vertices, triangles):
    """Corner ``a``, edges ``v0 = b - a``, ``v1 = c - a`` and ``den = v0 x v1``
    of every triangle, laid out as ``Mesh._quad_table``."""
    p = vertices[triangles]
    a, v0, v1 = p[:, 0], p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    rows = np.stack((a[:, 0], a[:, 1], v0[:, 0], v0[:, 1], v1[:, 0], v1[:, 1], den))
    return rows.reshape(7, -1, 2).transpose(0, 2, 1)


def old_max_angle_deg(vertices, triangles):
    """The largest angle by the law of cosines on the three edge vectors."""
    p = vertices[triangles]
    edges = p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]
    sq = np.stack([np.einsum("ij,ij->i", e, e) for e in edges], axis=1)
    adj1 = sq[:, [1, 2, 0]]
    adj2 = sq[:, [2, 0, 1]]
    cosines = (adj1 + adj2 - sq) / (2.0 * np.sqrt(adj1 * adj2))
    return math.degrees(math.acos(max(float(cosines.min()), -1.0)))


@pytest.mark.parametrize("s", [0.0, 2.0, 3.9])
def test_areas_match_the_edge_vector_formula_bitwise(s):
    # every figure formed from the one triangle kernel, against its own
    # textbook formula
    for res in (Resolution(128, 32, 1.5), Resolution(50, 8, 0.7)):
        m = build_mesh(AnnularDomain(1.0, 5.0, s), res)
        want = old_signed_areas(m.vertices, m.triangles)
        assert same_bits(m.areas, want)
        assert same_bits(p1_gradient(Field(m.vertices[:, 0], m))[2], want)
        table = old_quad_table(m.vertices, m.triangles)
        for got, row in zip(m._quad_table, table):
            assert same_bits(got, np.ascontiguousarray(row))
        assert m.max_angle_deg == old_max_angle_deg(m.vertices, m.triangles)


def test_deterministic_build():
    d = AnnularDomain(1.0, 5.0, 2.0)
    m1 = build_mesh(d, Resolution(48, 8, 1.0))
    m2 = build_mesh(d, Resolution(48, 8, 1.0))
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)


def test_vtk_export(tmp_path):
    d = AnnularDomain(1.0, 2.0, 0.0)
    m = build_mesh(d, Resolution(16, 4, 1.0))
    path = tmp_path / "mesh.vtk"
    write_field(Field(np.ones(m.num_vertices), m), tmp_path / "mesh", name="one", vtk=True)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 2.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {m.num_vertices} double" in text
    assert f"CELLS {m.num_triangles} {4 * m.num_triangles}" in text
    assert "CELL_TYPES" in text
    assert text.count("\n5") >= m.num_triangles - 1
    assert "SCALARS one double 1" in text
