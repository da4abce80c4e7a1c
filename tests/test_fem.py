import dataclasses

import numpy as np
import pytest
import scipy.linalg

from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh
from annulab.fem import (
    Discretization,
    Field,
    ProblemKind,
    dirichlet_vertices,
    p1_local_mass,
    p1_local_stiffness,
)
from annulab.spectral import discretize, solve_eigenproblem
from annulab.torsion import finite_difference_rigidity_prime, solve_torsion

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_local_stiffness_unit_right_triangle():
    (ke,) = p1_local_stiffness(UNIT_RIGHT[None])
    want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(ke, want, atol=1e-15)


def test_local_mass_unit_right_triangle():
    (me,) = p1_local_mass(np.array([0.5]))
    want = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(me, want, atol=1e-15)


def quadratic_form(A, x) -> float:
    return float(x @ (A @ x))


@pytest.fixture(scope="module")
def disc():
    return Discretization(build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(64, 8, 1.0)))


@pytest.fixture(scope="module")
def assembled(disc):
    return disc.mesh, disc.K, disc.M, disc.b


def test_stiffness_constant_kernel(assembled):
    mesh, K, _, _ = assembled
    ones = np.ones(mesh.num_vertices)
    scale = np.abs(K.data).max()
    assert np.abs(K @ ones).max() <= 1e-10 * scale


def test_stiffness_linear_field_energy(assembled):
    mesh, K, _, _ = assembled
    x1 = mesh.vertices[:, 0]
    # integral of |grad x1|^2 = mesh area (exactly the polygonal area)
    assert quadratic_form(K, x1) == pytest.approx(mesh.total_area(), rel=1e-12)
    assert quadratic_form(K, x1) == pytest.approx(mesh.domain.area, rel=5e-3)


def test_mass_total(assembled):
    mesh, _, M, _ = assembled
    total = float(M.sum())
    assert total == pytest.approx(mesh.total_area(), rel=1e-12)
    assert total == pytest.approx(mesh.domain.area, rel=5e-3)
    ones = np.ones(mesh.num_vertices)
    assert quadratic_form(M, ones) == pytest.approx(mesh.total_area(), rel=1e-12)


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
        diff = A - A.T
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
        mirrored = A[mesh.mirror][:, mesh.mirror]
        dd = (A - mirrored).tocsr()
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
    mesh = build_mesh(d, Resolution(64, 8, 1.0))
    assert dirichlet_vertices(mesh, ProblemKind.ND).size == 64
    assert dirichlet_vertices(mesh, ProblemKind.DN).size == 64
    assert dirichlet_vertices(mesh, ProblemKind.DD).size == 128


def test_reduce_counts_and_expand(disc):
    mesh, b = disc.mesh, disc.b
    red = disc.system(ProblemKind.ND)
    n_free = mesh.num_vertices - mesh.res.n_theta
    assert red.free.size == n_free
    # one unknown per mirror orbit: pairs plus the vertices on the x1-axis
    n_fixed = int(np.count_nonzero(mesh.mirror[red.free] == red.free))
    dim = red.K.shape[0]
    assert dim == (n_free + n_fixed) // 2
    assert red.M.shape == (dim, dim)
    assert red.b.shape == (dim,)
    assert red.b.sum() == pytest.approx(b[red.free].sum(), rel=1e-12)
    x = np.arange(dim, dtype=float)
    full = red.expand(x)
    assert full.shape == (mesh.num_vertices,)
    assert np.array_equal(full, full[mesh.mirror])
    assert np.array_equal(np.unique(full[red.free]), x)
    assert np.all(full[dirichlet_vertices(mesh, ProblemKind.ND)] == 0.0)


def test_reduced_spd_dense_oracle(disc):
    for kind in ProblemKind:
        Khat = disc.system(kind).K
        evals = np.linalg.eigvalsh(Khat.toarray())
        assert evals.min() > 0.0
        # inverse-iteration probe agrees that the matrix is invertible SPD
        x = np.ones(Khat.shape[0])
        for _ in range(3):
            x = np.linalg.solve(Khat.toarray(), x)
            x /= np.linalg.norm(x)
        assert float(x @ (Khat @ x)) > 0.0


def test_reduced_quadratic_form_matches_full(disc):
    rng = np.random.default_rng(0)
    for kind in ProblemKind:
        red = disc.system(kind)
        w_hat = rng.standard_normal(red.K.shape[0])
        w = red.expand(w_hat)
        assert quadratic_form(red.K, w_hat) == pytest.approx(
            quadratic_form(disc.K, w), rel=1e-12
        )
        assert quadratic_form(red.M, w_hat) == pytest.approx(
            quadratic_form(disc.M, w), rel=1e-12
        )


def test_assembly_bit_deterministic():
    d = AnnularDomain(1.0, 5.0, 1.3)
    mesh = build_mesh(d, Resolution(32, 6, 1.2))
    K1 = Discretization(mesh).K
    K2 = Discretization(build_mesh(d, Resolution(32, 6, 1.2))).K
    assert np.array_equal(K1.data, K2.data)
    assert np.array_equal(K1.indices, K2.indices)
    assert np.array_equal(K1.indptr, K2.indptr)


def test_mirror_orbits_require_invariance(disc):
    red = disc.system(ProblemKind.ND)
    assert np.array_equal(np.unique(red.orbit), np.arange(red.orbit.max() + 1))
    bad = np.roll(np.arange(disc.mesh.num_vertices), 1)
    bad_disc = Discretization(dataclasses.replace(disc.mesh, mirror=bad))
    with pytest.raises(ValueError):
        bad_disc.system(ProblemKind.ND)


def test_half_space_matches_full_free_space_dense_oracle():
    d = AnnularDomain(1.0, 5.0, 2.0)
    disc = Discretization(build_mesh(d, Resolution(32, 6, 1.5)))
    K, M, b = disc.K.toarray(), disc.M.toarray(), disc.b
    for kind in ProblemKind:
        free = disc.system(kind).free
        want = scipy.linalg.eigh(K[np.ix_(free, free)], M[np.ix_(free, free)],
                                 eigvals_only=True)[0]
        got = solve_eigenproblem(disc, kind).value
        assert got == pytest.approx(want, rel=1e-10), kind
    free = disc.system(ProblemKind.ND).free
    want = np.linalg.solve(K[np.ix_(free, free)], b[free])
    got = solve_torsion(disc).v.values[free]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_shared_discretization_matches_fresh_solves():
    d = AnnularDomain(1.0, 5.0, 2.0)
    res = Resolution(48, 8, 1.5)
    disc = discretize(d, res)
    for kind in ProblemKind:
        shared = solve_eigenproblem(disc, kind)
        fresh = solve_eigenproblem(discretize(d, res), kind)
        assert shared.value == fresh.value, kind
        assert np.array_equal(shared.u.values, fresh.u.values), kind
        assert shared.pair.iterations == fresh.pair.iterations, kind
    shared = solve_torsion(disc)
    fresh = solve_torsion(discretize(d, res))
    assert np.array_equal(shared.v.values, fresh.v.values)
    assert shared.T == fresh.T
    assert disc.system(ProblemKind.ND) is disc.system(ProblemKind.ND)


def test_torsion_solves_assemble_no_mass(monkeypatch):
    def no_mass(self):
        raise AssertionError("a torsion solve assembled the mass matrix")

    monkeypatch.setattr(Discretization, "assemble_mass", no_mass)
    d = AnnularDomain(1.0, 5.0, 2.0)
    res = Resolution(32, 6, 1.5)
    assert solve_torsion(discretize(d, res)).T > 0.0
    assert finite_difference_rigidity_prime(d, 0.05, res) > 0.0


def test_reduced_mass_is_folded_once_from_a_live_discretization():
    d = AnnularDomain(1.0, 5.0, 2.0)
    disc = discretize(d, Resolution(32, 6, 1.5))
    system = disc.system(ProblemKind.DD)
    assert system.M is system.M
    assert disc.M is disc.M
    orphan = discretize(d, Resolution(32, 6, 1.5)).system(ProblemKind.DD)
    with pytest.raises(ReferenceError):
        orphan.M
