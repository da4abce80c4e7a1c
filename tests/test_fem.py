import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import vertex_mirror

from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution, build_mesh, p1_coefficients
from annulab.fem import (
    Discretization,
    Field,
    ProblemKind,
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


def pinned_vertices(mesh, kind):
    """The vertices on the Dirichlet circles of ``kind``."""
    layers = {ProblemKind.ND: [0], ProblemKind.DN: [-1], ProblemKind.DD: [0, -1]}[kind]
    return mesh.lattice[:, layers].ravel()


def free_vertices(mesh, kind):
    """The sorted vertices off the Dirichlet circles of ``kind``."""
    return np.setdiff1d(np.arange(mesh.num_vertices), pinned_vertices(mesh, kind))


@pytest.fixture(scope="module")
def disc():
    return Discretization(build_mesh(AnnularDomain(1.0, 5.0, 2.0), Resolution(64, 8, 1.0)))


def full_matrix(mesh, local):
    """The full-size matrix of (nt, 3, 3) local blocks, by a COO to CSR sum."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.num_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def full_stiffness(mesh):
    return full_matrix(mesh, p1_local_stiffness(mesh.vertices[mesh.triangles]))


def full_mass(mesh):
    return full_matrix(mesh, p1_local_mass(mesh.areas))


def dense(band):
    """The dense matrix of a SymmetricBand."""
    n = band.shape[0]
    A = np.zeros((n, n))
    for k, d in zip(band.offsets, band.diagonals):
        A[np.arange(k, n), np.arange(n - k)] = d
        A[np.arange(n - k), np.arange(k, n)] = d
    return A


def assert_bitwise_equal(a, b):
    """Two SymmetricBands with the same offsets and bitwise equal diagonals."""
    assert a.offsets == b.offsets
    for x, y in zip(a.diagonals, b.diagonals):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.fixture(scope="module")
def assembled(disc):
    return disc.mesh, full_stiffness(disc.mesh), full_mass(disc.mesh), disc.b


def test_stiffness_constant_kernel(assembled):
    mesh, K, _, _ = assembled
    ones = np.ones(mesh.num_vertices)
    scale = np.abs(K.data).max()
    assert np.abs(K @ ones).max() <= 1e-10 * scale


def test_stiffness_linear_field_energy(assembled):
    mesh, K, _, _ = assembled
    x1 = mesh.vertices[:, 0]
    # integral of |grad x1|^2 = mesh area (exactly the polygonal area)
    assert quadratic_form(K, x1) == pytest.approx(mesh.areas.sum(), rel=1e-12)
    assert quadratic_form(K, x1) == pytest.approx(mesh.domain.area, rel=5e-3)


def test_mass_total(assembled):
    mesh, _, M, _ = assembled
    total = float(M.sum())
    assert total == pytest.approx(mesh.areas.sum(), rel=1e-12)
    assert total == pytest.approx(mesh.domain.area, rel=5e-3)
    ones = np.ones(mesh.num_vertices)
    assert quadratic_form(M, ones) == pytest.approx(mesh.areas.sum(), rel=1e-12)


def test_load_examples(assembled):
    mesh, _, _, b = assembled
    assert b.sum() == pytest.approx(mesh.areas.sum(), rel=1e-12)
    ones = np.ones(mesh.num_vertices)
    assert float(ones @ b) == pytest.approx(mesh.areas.sum(), rel=1e-12)
    # each entry is one third of the adjacent triangle area
    i = mesh.vertex_index(3, 3)
    adj = np.any(mesh.triangles == i, axis=1)
    assert b[i] == pytest.approx(mesh.areas[adj].sum() / 3.0, rel=1e-12)


def test_symmetry_and_mirror_invariance(assembled):
    # the full operators, summed here from the local blocks with no mirror
    # average, are exactly symmetric and mirror invariant up to the order of
    # their sums; the load is exactly mirror invariant
    mesh, K, M, b = assembled
    mirror = vertex_mirror(mesh)
    for A in (K, M):
        diff = A - A.T
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
        mirrored = A[mirror][:, mirror]
        dd = (A - mirrored).tocsr()
        assert dd.nnz == 0 or np.abs(dd.data).max() <= 4 * np.spacing(np.abs(A.data).max())
    assert np.array_equal(b, b[mirror])


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
    for kind, pinned in ((ProblemKind.ND, 64), (ProblemKind.DN, 64), (ProblemKind.DD, 128)):
        free = mesh.lattice[:, kind.layers(mesh.res.n_rad)]
        assert mesh.num_vertices - free.size == pinned, kind
        assert np.array_equal(np.sort(free.ravel()), free_vertices(mesh, kind)), kind


def test_reduce_counts_and_expand(disc):
    mesh, b = disc.mesh, disc.b
    red = disc.system(ProblemKind.ND)
    mirror = vertex_mirror(mesh)
    free = free_vertices(mesh, ProblemKind.ND)
    assert free.size == mesh.num_vertices - mesh.res.n_theta
    # one unknown per mirror orbit: pairs plus the vertices on the x1-axis
    n_fixed = int(np.count_nonzero(mirror[free] == free))
    dim = red.K.shape[0]
    assert dim == (free.size + n_fixed) // 2
    assert disc.reduced_mass(ProblemKind.ND).shape == (dim, dim)
    assert red.b.shape == (dim,)
    assert red.b.sum() == pytest.approx(b[free].sum(), rel=1e-12)
    x = np.arange(1, dim + 1, dtype=float)
    full = red.expand(x)
    assert full.shape == (mesh.num_vertices,)
    assert np.array_equal(full, full[mirror])
    assert np.array_equal(np.unique(full[free]), x)
    assert np.all(full[pinned_vertices(mesh, ProblemKind.ND)] == 0.0)


def test_reduced_spd_dense_oracle(disc):
    for kind in ProblemKind:
        Khat = disc.system(kind).K
        evals = np.linalg.eigvalsh(dense(Khat))
        assert evals.min() > 0.0
        # inverse-iteration probe agrees that the matrix is invertible SPD
        x = np.ones(Khat.shape[0])
        for _ in range(3):
            x = np.linalg.solve(dense(Khat), x)
            x /= np.linalg.norm(x)
        assert float(x @ (Khat @ x)) > 0.0


def test_reduced_quadratic_form_matches_full(disc, assembled):
    _, K, M, _ = assembled
    rng = np.random.default_rng(0)
    for kind in ProblemKind:
        red = disc.system(kind)
        w_hat = rng.standard_normal(red.K.shape[0])
        w = red.expand(w_hat)
        assert quadratic_form(red.K, w_hat) == pytest.approx(
            quadratic_form(K, w), rel=1e-12
        )
        assert quadratic_form(disc.reduced_mass(kind), w_hat) == pytest.approx(
            quadratic_form(M, w), rel=1e-12
        )


def test_assembly_bit_deterministic():
    d = AnnularDomain(1.0, 5.0, 1.3)
    first = Discretization(build_mesh(d, Resolution(32, 6, 1.2)))
    second = Discretization(build_mesh(d, Resolution(32, 6, 1.2)))
    pairs = [(first.assemble_stiffness(), second.assemble_stiffness()),
             (first.assemble_mass(), second.assemble_mass())]
    for kind in ProblemKind:
        pairs += [(first.system(kind).K, second.system(kind).K),
                  (first.reduced_mass(kind), second.reduced_mass(kind))]
    for a, b in pairs:
        assert_bitwise_equal(a, b)


def test_reduction_reads_the_numbering_off_the_lattice(disc):
    # the same mesh with its vertices renumbered at random: vertex v becomes
    # perm[v], and every reduced operator is bitwise the same
    mesh = disc.mesh
    perm = np.random.default_rng(1).permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    shuffled = Discretization(dataclasses.replace(
        mesh, vertices=vertices, triangles=perm[mesh.triangles], lattice=perm[mesh.lattice],
        inner_edges=perm[mesh.inner_edges]))
    assert np.array_equal(shuffled.b[perm], disc.b)
    rng = np.random.default_rng(2)
    for kind in ProblemKind:
        want, got = disc.system(kind), shuffled.system(kind)
        assert_bitwise_equal(want.K, got.K)
        assert_bitwise_equal(disc.reduced_mass(kind), shuffled.reduced_mass(kind))
        assert np.array_equal(want.b.view(np.uint64), got.b.view(np.uint64)), kind
        w = rng.standard_normal(want.b.size)
        assert np.array_equal(got.expand(w)[perm], want.expand(w)), kind


def test_half_space_matches_full_free_space_dense_oracle():
    d = AnnularDomain(1.0, 5.0, 2.0)
    disc = Discretization(build_mesh(d, Resolution(32, 6, 1.5)))
    K, M, b = full_stiffness(disc.mesh).toarray(), full_mass(disc.mesh).toarray(), disc.b
    for kind in ProblemKind:
        free = free_vertices(disc.mesh, kind)
        want = scipy.linalg.eigh(K[np.ix_(free, free)], M[np.ix_(free, free)],
                                 eigvals_only=True)[0]
        got = solve_eigenproblem(disc, kind).value
        assert got == pytest.approx(want, rel=1e-10), kind
    free = free_vertices(disc.mesh, ProblemKind.ND)
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


def test_reduced_mass_is_folded_once_from_a_live_discretization(monkeypatch):
    # the first eigen-solve folds the mass, and every later one on the same
    # discretization eliminates its kind's rows from that fold
    folds = []
    assemble = Discretization.assemble_mass
    monkeypatch.setattr(Discretization, "assemble_mass",
                        lambda self: folds.append(self) or assemble(self))
    disc = discretize(AnnularDomain(1.0, 5.0, 2.0), Resolution(32, 6, 1.5))
    first = solve_eigenproblem(disc, ProblemKind.DD)
    assert folds == [disc]
    again = solve_eigenproblem(disc, ProblemKind.DD)
    solve_eigenproblem(disc, ProblemKind.ND)
    assert folds == [disc]
    assert again.value == first.value


@pytest.mark.parametrize("n_theta", [16, 18, 66, 128])
@pytest.mark.parametrize("s_frac", [0.0, 0.5, 0.999])
def test_reduced_stiffness_is_banded_by_rays(n_theta, s_frac):
    # the band Cholesky's cost and memory rest on this half-bandwidth
    res = Resolution(n_theta, 8, 1.5)
    disc = Discretization(build_mesh(AnnularDomain(1.0, 5.0, s_frac * 4.0), res))
    for kind in ProblemKind:
        # L free layers per ray
        L = res.n_rad - (kind is ProblemKind.DD)
        assert set(disc.system(kind).K.offsets) <= {0, 1, L - 1, L, L + 1}, kind
        assert set(disc.reduced_mass(kind).offsets) <= {0, 1, L - 1, L, L + 1}, kind
        assert disc.system(kind).factor.band.shape[0] <= res.n_rad + 2, kind


# -- reference: the sparse-matrix route that the fold replaces -------------


def reference_exactly_symmetric(a):
    a = a.tocsr()
    if a.nnz:
        a.data[np.abs(a.data) < 1e-300] = 0.0
        a.eliminate_zeros()
    diff = a - a.T
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    return a


def reference_transpose_average(a):
    return (0.5 * (a + a.T)).tocsr()


def reference_local_stiffness(coords):
    b, c, area = p1_coefficients(coords)
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]


def reference_operator(mesh, local):
    """COO to CSR scatter, then the transpose and mirror averages."""
    a = full_matrix(mesh, local)
    a.sum_duplicates()
    a = reference_transpose_average(a)
    mirror = vertex_mirror(mesh)
    a = (0.5 * (a + a[mirror][:, mirror])).tocsr()
    a.sort_indices()
    return reference_exactly_symmetric(a)


def reference_system(mesh, K, M, b, kind):
    """``(K, M, b, P)`` of ``kind`` by ``P^T A P`` products, with ``P`` the
    0/1 expansion of the mirror orbits of the free vertices, numbered by
    their smaller vertex."""
    n = mesh.num_vertices
    free = free_vertices(mesh, kind)
    pos = np.full(n, -1)
    pos[free] = np.arange(free.size)
    image = pos[vertex_mirror(mesh)[free]]
    _, orbit = np.unique(np.minimum(np.arange(free.size), image), return_inverse=True)
    P = sp.csr_matrix((np.ones(free.size), (free, orbit)), shape=(n, int(orbit.max()) + 1))
    Pt = P.T.tocsr()
    fold = [reference_exactly_symmetric(reference_transpose_average(Pt @ A @ P))
            for A in (K, M)]
    return fold[0], fold[1], Pt @ b, P


def assert_close_by_rows(band, want):
    """Entrywise within 8 ulp of the largest entry of the row."""
    got, want = dense(band), want.toarray()
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(scale))


def assert_matches_reference(disc):
    """Every kind's reduced K, M, b and expansion against the reference;
    returns the reference's full K and M."""
    mesh = disc.mesh
    K = reference_operator(mesh, reference_local_stiffness(mesh.vertices[mesh.triangles]))
    M = reference_operator(mesh, p1_local_mass(mesh.areas))
    for kind in ProblemKind:
        want = reference_system(mesh, K, M, disc.b, kind)
        system = disc.system(kind)
        assert_close_by_rows(system.K, want[0])
        assert_close_by_rows(disc.reduced_mass(kind), want[1])
        assert np.array_equal(system.b.view(np.uint64), want[2].view(np.uint64))
        x = np.arange(1.0, system.b.size + 1)
        assert np.array_equal(system.expand(x), want[3] @ x)
    return K, M


@pytest.mark.parametrize("n_theta", [32, 66])
@pytest.mark.parametrize("ratio", [0.01, 0.2, 0.9])
@pytest.mark.parametrize("s_frac", [0.0, 0.4, 0.999])
def test_fold_matches_sparse_matrix_route(n_theta, ratio, s_frac):
    R1 = 5.0
    R0 = ratio * R1
    assert_matches_reference(Discretization(build_mesh(
        AnnularDomain(R0, R1, s_frac * (R1 - R0)), Resolution(n_theta, 8, 1.5))))


def test_plan_covers_stiffness_entries_pruned_to_zero():
    # at s = 0 with n_theta = 2 mod 4 some stiffness entries cancel exactly:
    # the reference prunes them, and the fold keeps their sums
    disc = Discretization(build_mesh(AnnularDomain(4.5, 5.0, 0.0), Resolution(66, 8, 1.5)))
    K, M = assert_matches_reference(disc)
    assert K.nnz < M.nnz
