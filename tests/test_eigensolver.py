import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import annulab.eigensolver as es
from annulab.eigensolver import (
    NotPositiveDefiniteError,
    SolverConvergenceError,
    SymmetricBand,
    factorize,
    smallest_eigenpair,
)


def band_of(A):
    """The SymmetricBand of a dense symmetric matrix: its nonzero lower diagonals."""
    n = A.shape[0]
    offsets = [k for k in range(n) if k == 0 or np.any(np.diag(A, -k))]
    return SymmetricBand(offsets, [np.diag(A, -k).copy() for k in offsets])


def path_laplacian(n):
    return band_of(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


def identity(n):
    return SymmetricBand([0], [np.ones(n)])


def test_band_product_matches_dense():
    rng = np.random.default_rng(4)
    A = band_spd(30, 6, seed=5)
    A[np.abs(np.subtract.outer(np.arange(30), np.arange(30))) == 3] = 0.0
    band = band_of(A)
    assert band.offsets == (0, 1, 2, 4, 5, 6)
    x = rng.standard_normal(30)
    assert np.abs(band @ x - A @ x).max() <= 1e-13 * np.abs(A @ x).max()


def test_eigen_iteration_cap():
    n = 30
    K, M = path_laplacian(n), identity(n)
    with pytest.raises(SolverConvergenceError) as exc:
        smallest_eigenpair(K, M, factorize(K), max_outer=1)
    assert exc.value.residual > 0


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_eigen_rejects_a_nonpositive_tolerance_before_the_first_step(tol):
    K = path_laplacian(10)
    # a factor that fails on use: the tolerance is checked before any solve
    with pytest.raises(ValueError, match="tolerance must be positive"):
        smallest_eigenpair(K, identity(10), None, tol=tol)


def test_eigen_diag_example():
    K = SymmetricBand([0], [np.array([2.0, 5.0])])
    M = identity(2)
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-12)
    assert pair.value == pytest.approx(2.0, rel=1e-12)
    v = pair.vector / np.linalg.norm(pair.vector)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-10)


def test_eigen_k_equals_m():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((12, 12))
    A = band_of(B @ B.T + 12 * np.eye(12))
    pair = smallest_eigenpair(A, A, factorize(A), tol=1e-12)
    assert pair.value == pytest.approx(1.0, rel=1e-12)


def test_eigen_path_laplacian_vs_dense_oracle():
    n = 10
    K, M = path_laplacian(n), identity(n)
    want = float(np.linalg.eigvalsh(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)).min())
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-12)
    assert pair.value == pytest.approx(want, rel=1e-10)


def test_eigen_rayleigh_identity_and_history():
    n = 40
    K = path_laplacian(n)
    M = SymmetricBand([0], [1.0 + 0.01 * np.arange(n)])
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-11)
    # value is the Rayleigh quotient of the returned vector
    num = float(pair.vector @ (K @ pair.vector))
    den = float(pair.vector @ (M @ pair.vector))
    assert pair.value == pytest.approx(num / den, rel=1e-12)
    assert den == pytest.approx(1.0, rel=1e-12)  # M-normalized
    hist = np.array(pair.rayleigh_history)
    assert np.all(np.diff(hist) <= 1e-12 * hist[:-1])  # monotone decrease
    assert pair.residual <= 1e-11


def test_eigen_sign_convention():
    n = 20
    K, M = path_laplacian(n), identity(n)
    pair = smallest_eigenpair(K, M, factorize(K))
    assert float((M @ pair.vector).sum()) > 0.0
    assert pair.vector.min() > 0.0  # first mode of an SPD tridiagonal


def test_eigen_deterministic():
    n = 25
    K, M = path_laplacian(n), identity(n)
    a = smallest_eigenpair(K, M, factorize(K))
    b = smallest_eigenpair(K, M, factorize(K))
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)


def count_factorizations(monkeypatch):
    """Counts every band Cholesky attempted from here on, failed ones too."""
    calls = []

    class Counting(es.BandCholesky):
        def __init__(self, band):
            calls.append(band.shape)
            super().__init__(band)

    monkeypatch.setattr(es, "BandCholesky", Counting)
    return calls


def test_shift_backs_off_when_the_first_theta_overshoots(monkeypatch):
    # tau_2 / tau_1 = 1.02, so the plain steps crawl; after 3 of them the
    # Rayleigh quotient is near 1.02, 0.99 rho lies above tau_1 = 1 and the
    # next theta, 0.95, gives the factor
    K = SymmetricBand([0], [np.r_[1.0, np.full(99, 1.02)]])
    M = identity(100)
    calls = count_factorizations(monkeypatch)
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-10)
    assert len(calls) == 3  # K, then 0.99 (not definite), then 0.95
    assert pair.value == pytest.approx(1.0, rel=1e-12)
    assert pair.lower_bound == 0.95 * pair.rayleigh_history[3]
    assert 0.0 < pair.lower_bound < 1.0
    # the plain steps alone contract by 1 / 1.02 and run into the cap
    monkeypatch.setattr(es, "SHIFT_THETAS", ())
    with pytest.raises(SolverConvergenceError):
        smallest_eigenpair(K, M, factorize(K), tol=1e-10)


def test_shift_falls_back_to_the_plain_factor_when_every_theta_fails(monkeypatch):
    # after 3 plain steps rho is near 1.25, so even 0.9 rho lies above tau_1
    K = SymmetricBand([0], [np.r_[1.0, np.full(999, 1.25)]])
    M = identity(1000)
    calls = count_factorizations(monkeypatch)
    pair = smallest_eigenpair(K, M, factorize(K))
    assert len(calls) == 1 + len(es.SHIFT_THETAS)
    assert pair.value == pytest.approx(1.0, rel=1e-12)
    assert pair.lower_bound == 0.0
    # the failed attempts leave the plain iteration as it was
    monkeypatch.setattr(es, "SHIFT_THETAS", ())
    alone = smallest_eigenpair(K, M, factorize(K))
    assert (pair.iterations, pair.value) == (alone.iterations, alone.value)
    assert np.array_equal(pair.vector, alone.vector)


def test_shifted_iteration_keeps_the_rayleigh_history_monotone(monkeypatch):
    # a shifted path Laplacian: tau_2 / tau_1 is about 1.03
    n = 30
    dense = 3.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    K, M = band_of(dense), identity(n)
    want = float(np.linalg.eigvalsh(dense).min())
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-11)
    assert pair.value == pytest.approx(want, rel=1e-12)
    assert 0.0 < pair.lower_bound < want
    hist = np.array(pair.rayleigh_history)
    assert np.all(np.diff(hist) <= 1e-12 * hist[:-1])
    monkeypatch.setattr(es, "SHIFT_THETAS", ())
    assert smallest_eigenpair(K, M, factorize(K), tol=1e-11).iterations > 3 * pair.iterations


def test_shifted_band_holds_the_offsets_of_m_that_k_lacks():
    # K is diagonal and M tridiagonal, so K - sigma M has M's band
    n = 40
    dense_m = np.eye(n) + 0.2 * (np.eye(n, k=1) + np.eye(n, k=-1))
    K = SymmetricBand([0], [np.linspace(1.0, 1.1, n)])
    M = band_of(dense_m)
    want = float(np.linalg.eigvals(np.linalg.solve(dense_m, np.diag(K.diagonals[0]))).real.min())
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-11)
    assert pair.lower_bound > 0.0
    assert pair.value == pytest.approx(want, rel=1e-12)


def test_fast_convergence_makes_one_factorization(monkeypatch):
    # tau_1 / tau_2 = 0.01: after 3 steps the residual ratio predicts two
    # more, too few to repay a second factorization
    K, M = SymmetricBand([0], [np.r_[1.0, np.full(19, 100.0)]]), identity(20)
    calls = count_factorizations(monkeypatch)
    pair = smallest_eigenpair(K, M, factorize(K))
    assert len(calls) == 1
    assert pair.lower_bound == 0.0


def band_spd(n, kd, seed):
    """Seeded SPD matrix with half-bandwidth kd (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for k in range(1, kd + 1):
        off = rng.standard_normal(n - k)
        A += np.diag(off, k) + np.diag(off, -k)
    A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return A


@pytest.mark.parametrize("n, kd", [(1, 0), (9, 0), (9, 2), (9, 8), (40, 5), (40, 39)])
def test_factorize_solves_band_spd_against_dense(n, kd):
    A = band_spd(n, kd, seed=n + 100 * kd)
    b = np.random.default_rng(n).standard_normal(n)
    factor = factorize(band_of(A))
    assert factor.band.shape == (kd + 1, n)
    want = np.linalg.solve(A, b)
    got = factor.solve(b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the right-hand side is left as it was
    assert np.array_equal(b, np.random.default_rng(n).standard_normal(n))


def test_factorize_shifted_solves_against_dense():
    # K is tridiagonal and M has offsets 0 and 3, so K - sigma M has the union
    n, sigma = 30, 0.4
    K = band_spd(n, 1, seed=7)
    M = np.eye(n) + 0.1 * (np.eye(n, k=3) + np.eye(n, k=-3))
    b = np.random.default_rng(n).standard_normal(n)
    factor = factorize(band_of(K), band_of(M), sigma)
    assert factor.band.shape == (4, n)
    want = np.linalg.solve(K - sigma * M, b)
    assert np.abs(factor.solve(b) - want).max() <= 1e-13 * np.abs(want).max()


def test_factorize_reports_the_first_nonpositive_pivot():
    A = band_spd(12, 2, seed=3)
    A[6, 6] = -1.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factorize(band_of(A))
    assert exc.value.pivot == 7
    assert "pivot 7 of 12" in str(exc.value)
    assert isinstance(exc.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("exc, attr", [
    (SolverConvergenceError("iteration cap reached", 2.5e-8), "residual"),
    (NotPositiveDefiniteError(7, 12), "pivot"),
])
def test_solver_errors_survive_pickling(exc, attr):
    # a sweep's worker process sends its error back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, attr) == getattr(exc, attr)


@pytest.mark.parametrize("n, kd", [(1, 0), (9, 0), (9, 3), (9, 8), (40, 39)])
def test_band_cholesky_is_bitwise_scipy_lapack(n, kd):
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    A = band_spd(n, kd, seed=n + 100 * kd)
    # the lower band in LAPACK storage: band[i - j, j] = A[i, j]
    band = np.zeros((kd + 1, n), order="F")
    for k in range(kd + 1):
        band[k, : n - k] = np.diag(A, -k)
    b = np.random.default_rng(n).standard_normal(n)
    want, info = dpbtrf(band, lower=1)
    assert info == 0
    factor = es.BandCholesky(band.copy())
    assert np.array_equal(factor.band, want)
    assert np.array_equal(factor.solve(b), dpbtrs(want, b, lower=1)[0])


def test_missing_flapack_names_module_and_scipy_version(monkeypatch):
    import scipy

    finder = es.importlib.machinery.PathFinder
    find_spec = finder.find_spec

    def no_flapack(name, *args):
        return None if name == "scipy.linalg._flapack" else find_spec(name, *args)

    monkeypatch.setattr(finder, "find_spec", no_flapack)
    with pytest.raises(ImportError, match=f"scipy.linalg._flapack not found in "
                                          f"scipy {scipy.__version__}"):
        es._load_flapack()


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.fixture(scope="module")
def cli_imports():
    code = "import sys, annulab.cli; print(' '.join(sys.modules))"
    return set(run_python(code).split())


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.sparse", "scipy.integrate",
                                    "numpy.f2py", "numpy.testing"])
def test_cli_import_leaves_out(cli_imports, module):
    # every solve is the LAPACK band Cholesky, loaded without scipy.linalg's
    # package init, whose array-API layer imports numpy.f2py and numpy.testing
    assert module not in cli_imports


def test_band_cholesky_coexists_with_scipy_linalg():
    code = """if True:
        import numpy as np, annulab.cli
        from annulab.eigensolver import BandCholesky
        from scipy.linalg.lapack import dpbtrf, dpbtrs
        band = np.asfortranarray([[4.0, 5.0, 6.0], [1.0, 2.0, 0.0]])
        b = np.array([1.0, 2.0, 3.0])
        want = dpbtrs(dpbtrf(band, lower=1)[0], b, lower=1)[0]
        print(np.array_equal(BandCholesky(band.copy()).solve(b), want))
    """
    assert run_python(code).strip() == "True"
