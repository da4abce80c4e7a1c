import dataclasses

import numpy as np
import pytest
import scipy.linalg

from annulab.geometry import AnnularDomain
from annulab.mesh import build_mesh
from annulab.fem import (
    Field,
    ProblemKind,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    dirichlet_vertices,
    p1_local_matrices,
    reduce_system,
)
from annulab.spectral import solve_eigenproblem
from annulab.torsion import solve_torsion

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_local_stiffness_unit_right_triangle():
    ke, _ = p1_local_matrices(UNIT_RIGHT)
    want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(ke, want, atol=1e-15)


def test_local_mass_unit_right_triangle():
    _, me = p1_local_matrices(UNIT_RIGHT)
    want = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(me, want, atol=1e-15)


@pytest.fixture(scope="module")
def assembled():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, 64, 8)
    return mesh, assemble_stiffness(mesh), assemble_mass(mesh), assemble_load(mesh)


def test_stiffness_constant_kernel(assembled):
    mesh, K, _, _ = assembled
    ones = np.ones(mesh.num_vertices)
    scale = np.abs(K.csr.data).max()
    assert np.abs(K @ ones).max() <= 1e-10 * scale


def test_stiffness_linear_field_energy(assembled):
    mesh, K, _, _ = assembled
    x1 = mesh.vertices[:, 0]
    # integral of |grad x1|^2 = mesh area (exactly the polygonal area)
    assert K.quadratic_form(x1) == pytest.approx(mesh.total_area(), rel=1e-12)
    assert K.quadratic_form(x1) == pytest.approx(mesh.domain.area, rel=5e-3)


def test_mass_total(assembled):
    mesh, _, M, _ = assembled
    total = float(M.csr.sum())
    assert total == pytest.approx(mesh.total_area(), rel=1e-12)
    assert total == pytest.approx(mesh.domain.area, rel=5e-3)
    ones = np.ones(mesh.num_vertices)
    assert M.quadratic_form(ones) == pytest.approx(mesh.total_area(), rel=1e-12)


def test_load_examples(assembled):
    mesh, _, _, b = assembled
    assert b.sum() == pytest.approx(mesh.total_area(), rel=1e-12)
    ones = np.ones(mesh.num_vertices)
    assert float(ones @ b) == pytest.approx(mesh.total_area(), rel=1e-12)
    # each entry is one third of the adjacent triangle area
    i = mesh.vertex_index(3, 3)
    adj = np.any(mesh.triangles == i, axis=1)
    assert b[i] == pytest.approx(mesh.areas[adj].sum() / 3.0, rel=1e-12)


def test_symmetry_and_mirror_invariance(assembled):
    mesh, K, M, b = assembled
    for A in (K, M):
        diff = A.csr - A.csr.T
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
        mirrored = A.csr[mesh.mirror][:, mesh.mirror]
        dd = (A.csr - mirrored).tocsr()
        assert dd.nnz == 0 or np.abs(dd.data).max() == 0.0
    assert np.array_equal(b, b[mesh.mirror])


def test_field_validation(assembled):
    mesh, _, _, _ = assembled
    with pytest.raises(ValueError):
        Field(np.ones(3), mesh)
    bad = np.ones(mesh.num_vertices)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        Field(bad, mesh)


def test_dirichlet_vertex_counts():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, 64, 8)
    assert dirichlet_vertices(mesh, ProblemKind.ND).size == 64
    assert dirichlet_vertices(mesh, ProblemKind.DN).size == 64
    assert dirichlet_vertices(mesh, ProblemKind.DD).size == 128


def test_reduce_counts_and_expand(assembled):
    mesh, K, M, b = assembled
    Khat, Mhat, bhat, red = reduce_system(K, M, b, mesh, ProblemKind.ND)
    n_free = mesh.num_vertices - mesh.n_theta
    assert red.free.size == n_free
    # one unknown per mirror orbit: pairs plus the vertices on the x1-axis
    n_fixed = int(np.count_nonzero(mesh.mirror[red.free] == red.free))
    assert Khat.dimension == (n_free + n_fixed) // 2
    assert bhat.shape == (Khat.dimension,)
    assert bhat.sum() == pytest.approx(b[red.free].sum(), rel=1e-12)
    x = np.arange(Khat.dimension, dtype=float)
    full = red.expand(x)
    assert full.shape == (mesh.num_vertices,)
    assert np.array_equal(full, full[mesh.mirror])
    assert np.array_equal(np.unique(full[red.free]), x)
    assert np.all(full[dirichlet_vertices(mesh, ProblemKind.ND)] == 0.0)


def test_reduced_spd_dense_oracle(assembled):
    mesh, K, M, b = assembled
    for kind in ProblemKind:
        Khat, Mhat, _, _ = reduce_system(K, M, b, mesh, kind)
        evals = np.linalg.eigvalsh(Khat.toarray())
        assert evals.min() > 0.0
        # inverse-iteration probe agrees that the matrix is invertible SPD
        x = np.ones(Khat.dimension)
        for _ in range(3):
            x = np.linalg.solve(Khat.toarray(), x)
            x /= np.linalg.norm(x)
        assert float(x @ (Khat @ x)) > 0.0


def test_reduced_quadratic_form_matches_full(assembled):
    mesh, K, M, b = assembled
    rng = np.random.default_rng(0)
    for kind in ProblemKind:
        Khat, Mhat, _, red = reduce_system(K, M, b, mesh, kind)
        w_hat = rng.standard_normal(Khat.dimension)
        w = red.expand(w_hat)
        assert Khat.quadratic_form(w_hat) == pytest.approx(
            K.quadratic_form(w), rel=1e-12
        )
        assert Mhat.quadratic_form(w_hat) == pytest.approx(
            M.quadratic_form(w), rel=1e-12
        )


def test_assembly_bit_deterministic():
    d = AnnularDomain(1.0, 5.0, 1.3)
    mesh = build_mesh(d, 32, 6, grading=1.2)
    K1 = assemble_stiffness(mesh)
    K2 = assemble_stiffness(build_mesh(d, 32, 6, grading=1.2))
    assert np.array_equal(K1.csr.data, K2.csr.data)
    assert np.array_equal(K1.csr.indices, K2.csr.indices)
    assert np.array_equal(K1.csr.indptr, K2.csr.indptr)


def test_mirror_orbits_require_invariance(assembled):
    mesh, K, M, b = assembled
    _, _, _, red = reduce_system(K, M, b, mesh, ProblemKind.ND)
    assert np.array_equal(np.unique(red.orbit), np.arange(red.orbit.max() + 1))
    bad = np.roll(np.arange(mesh.num_vertices), 1)
    with pytest.raises(ValueError):
        reduce_system(K, M, b, dataclasses.replace(mesh, mirror=bad), ProblemKind.ND)


def test_half_space_matches_full_free_space_dense_oracle():
    d = AnnularDomain(1.0, 5.0, 2.0)
    mesh = build_mesh(d, 32, 6, grading=1.5)
    K, M, b = assemble_stiffness(mesh), assemble_mass(mesh), assemble_load(mesh)
    for kind in ProblemKind:
        free = reduce_system(K, M, b, mesh, kind)[3].free
        Kf = K.toarray()[np.ix_(free, free)]
        Mf = M.toarray()[np.ix_(free, free)]
        want = scipy.linalg.eigh(Kf, Mf, eigvals_only=True)[0]
        got = solve_eigenproblem(d, 32, 6, 1.5, kind, mesh=mesh).value
        assert got == pytest.approx(want, rel=1e-10), kind
    free = reduce_system(K, M, b, mesh, ProblemKind.ND)[3].free
    want = np.linalg.solve(K.toarray()[np.ix_(free, free)], b[free])
    got = solve_torsion(d, 32, 6, 1.5, mesh=mesh).v.values[free]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
