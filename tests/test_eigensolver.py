import numpy as np
import pytest
import scipy.sparse as sp

from annulab.eigensolver import SolverConvergenceError, factorize, smallest_eigenpair


def test_eigen_iteration_cap():
    n = 30
    K = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)],
                 [0, -1, 1]).tocsr()
    M = sp.eye(n, format="csr")
    with pytest.raises(SolverConvergenceError) as exc:
        smallest_eigenpair(K, M, factorize(K), max_outer=1)
    assert exc.value.residual > 0


def test_eigen_diag_example():
    K = sp.diags([2.0, 5.0]).tocsr()
    M = sp.eye(2, format="csr")
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-12)
    assert pair.value == pytest.approx(2.0, rel=1e-12)
    v = pair.vector / np.linalg.norm(pair.vector)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-10)


def test_eigen_k_equals_m():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((12, 12))
    A = sp.csr_matrix(B @ B.T + 12 * np.eye(12))
    pair = smallest_eigenpair(A, A, factorize(A), tol=1e-12)
    assert pair.value == pytest.approx(1.0, rel=1e-12)


def test_eigen_path_laplacian_vs_dense_oracle():
    n = 10
    K = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)],
                 [0, -1, 1]).tocsr()
    M = sp.eye(n, format="csr")
    want = float(np.linalg.eigvalsh(K.toarray()).min())
    pair = smallest_eigenpair(K, M, factorize(K), tol=1e-12)
    assert pair.value == pytest.approx(want, rel=1e-10)


def test_eigen_rayleigh_identity_and_history():
    n = 40
    K = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)],
                 [0, -1, 1]).tocsr()
    M = sp.diags(1.0 + 0.01 * np.arange(n)).tocsr()
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
    K = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)],
                 [0, -1, 1]).tocsr()
    M = sp.eye(n, format="csr")
    pair = smallest_eigenpair(K, M, factorize(K))
    assert float((M @ pair.vector).sum()) > 0.0
    assert pair.vector.min() > 0.0  # first mode of an SPD tridiagonal


def test_eigen_deterministic():
    n = 25
    K = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)],
                 [0, -1, 1]).tocsr()
    M = sp.eye(n, format="csr")
    a = smallest_eigenpair(K, M, factorize(K))
    b = smallest_eigenpair(K, M, factorize(K))
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)
