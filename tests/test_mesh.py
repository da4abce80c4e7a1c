import math

import numpy as np
import pytest

from annulab.export import write_field
from annulab.fem import Field, p1_gradient
from annulab.geometry import AnnularDomain
from annulab.mesh import INTERPOLATE_BLOCK, Resolution, build_mesh


def canonical_triangle_keys(tris):
    return {tuple(sorted(t)) for t in tris}


def test_vertex_count_and_area_concentric():
    d = AnnularDomain(1.0, 5.0, 0.0)
    m = build_mesh(d, Resolution(64, 16, 1.0))
    assert m.num_vertices == 64 * 17
    assert m.total_area() == pytest.approx(math.pi * 24.0, rel=5e-3)


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
        errs.append(abs(m.total_area() - d.area))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 < p < 2.3 for p in orders)


def test_mirror_symmetry_exact():
    d = AnnularDomain(1.0, 5.0, 2.6)
    m = build_mesh(d, Resolution(52, 6, 0.8))  # n_theta = 2 mod 4 on purpose
    mirrored = m.vertices[m.mirror]
    flipped = m.vertices.copy()
    flipped[:, 1] = -flipped[:, 1]
    assert np.array_equal(mirrored, flipped)  # bitwise
    # triangle set invariant under the vertex mirror
    keys = canonical_triangle_keys(m.triangles)
    mirrored_keys = canonical_triangle_keys(m.mirror[m.triangles])
    assert keys == mirrored_keys


def test_inner_circle_x1_mirror():
    # with 4 | n_theta the inner ring is symmetric across x1 = s to rounding
    d = AnnularDomain(1.0, 5.0, 2.0)
    m = build_mesh(d, Resolution(64, 4, 1.0))
    ring = m.vertices[m.lattice[:, 0]]
    i = np.arange(64)
    partner = (32 - i) % 64
    assert np.abs(2.0 * d.s - ring[partner, 0] - ring[i, 0]).max() <= 1e-14 * d.R1
    assert np.array_equal(ring[partner, 1], ring[i, 1])


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
    # a point outside the mesh takes its best candidate's clamped weights
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


def reference_locate(mesh, pts, tol=1e-10):
    """The full neighbour search: every point tries the offsets in order,
    from the guessed quad on, until a triangle contains it."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    npts = pts.shape[0]
    n_theta, n_rad = mesh.res.n_theta, mesh.res.n_rad
    i0, j0 = mesh._cell_guess(pts)
    tri = np.full(npts, -1, dtype=int)
    bary = np.zeros((npts, 3))
    best_tri = np.zeros(npts, dtype=int)
    best_score = np.full(npts, -np.inf)
    best_bary = np.zeros((npts, 3))
    pending = np.arange(npts)
    for di, dj in mesh._NEIGHBOR_OFFSETS:
        if pending.size == 0:
            break
        ii = (i0[pending] + di) % n_theta
        jj = np.clip(j0[pending] + dj, 0, n_rad - 1)
        quad = ii * n_rad + jj
        for k in (0, 1):
            tids = 2 * quad + k
            lam = reference_bary(mesh, tids, pts[pending])
            score = lam.min(axis=1)
            better = score > best_score[pending]
            upd = pending[better]
            best_score[upd] = score[better]
            best_tri[upd] = tids[better]
            best_bary[upd] = lam[better]
        done = best_score[pending] >= -tol
        hit = pending[done]
        tri[hit] = best_tri[hit]
        bary[hit] = best_bary[hit]
        pending = pending[~done]
    return tri, bary, best_tri, best_bary


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


@pytest.mark.parametrize("s, res", [
    (0.0, Resolution(32, 6, 1.0)),
    (2.0, Resolution(64, 16, 1.5)),
    (3.9, Resolution(50, 8, 0.7)),  # nearly touching, n_theta = 2 mod 4
])
def test_locate_matches_full_neighbour_search(s, res):
    m = build_mesh(AnnularDomain(1.0, 5.0, s), res)
    pts = probe_points(m, 4000, seed=int(10 * s))
    got = m.locate(pts)
    want = reference_locate(m, pts)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    tri = got[0]
    # every kind of point occurs: first-quad hits, neighbour hits, misses
    i0, j0 = m._cell_guess(pts)
    first = 2 * (i0 * res.n_rad + j0)
    assert np.any((tri == first) | (tri == first + 1))
    assert np.any((tri >= 0) & (tri != first) & (tri != first + 1))
    assert np.any(tri < 0)


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
        pts = pts[m.locate(pts)[0] >= 0]
    assert pts.shape[0] > INTERPOLATE_BLOCK
    miss = m.locate(pts)[0] < 0
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
