import math

import numpy as np
import pytest

from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh


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
    assert m.outer_edges.shape == (32, 2)
    for v0, v1 in m.inner_edges:
        for v in (v0, v1):
            p = m.vertices[v]
            assert math.hypot(p[0] - 2.0, p[1]) == pytest.approx(1.0, abs=1e-12)
    for v0, v1 in m.outer_edges:
        for v in (v0, v1):
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
    d = AnnularDomain(1.0, 5.0, 2.0)
    m = build_mesh(d, Resolution(32, 6, 1.0))
    vals = np.ones(m.num_vertices)
    hole_pt = np.array([[2.0, 0.0]])
    assert m.interpolate(vals, hole_pt, outside="zero")[0] == 0.0
    assert m.interpolate(vals, hole_pt, outside="clamp")[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m.interpolate(vals, hole_pt, outside="error")


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
    m.write_vtk(path, point_data={"one": np.ones(m.num_vertices)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 2.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {m.num_vertices} double" in text
    assert f"CELLS {m.num_triangles} {4 * m.num_triangles}" in text
    assert "CELL_TYPES" in text
    assert text.count("\n5") >= m.num_triangles - 1
    assert "SCALARS one double 1" in text
