"""Symmetric band matrices, their factorization and the smallest
generalized eigenpair.

The reduced systems are :class:`SymmetricBand` matrices: a few nonzero lower
diagonals.  Every linear solve goes through :func:`factorize`: one LAPACK
band Cholesky (``dpbtrf``, lower storage), computed once per matrix and
reused for every right-hand side.  :mod:`annulab.fem` numbers the reduced
unknowns by the mesh lattice, ray by ray, so the half-bandwidth is at most
``n_rad + 1``: the band needs no ordering and no pivoting, and holds
``(kd + 1) n`` doubles.

The eigenpair comes from inverse power iteration on ``K y = M x`` with
M-normalization.  It stops when the residual ``r`` is at most ``tol`` times
the Rayleigh quotient ``rho``: since ``|rho - tau| <= |r|^2 / gap`` (Parlett,
*The Symmetric Eigenvalue Problem*, ch. 4), a test relative to ``rho`` is
the same test on every scaled copy of a domain.  Plain steps converge at the
ratio ``tau_1 / tau_2``, which tends to 1 on thin annuli.  So after each
plain step from the third on, the ratio of the last two residuals predicts
how many plain steps are left until ``r <= tol rho``.  When that exceeds
``kd / 8 + 4`` (one more band Cholesky priced in steps, plus the shifted
steps that still follow), the iteration factors ``K - sigma M`` once, with
``sigma = theta rho`` just below ``rho``, backing ``theta`` off along
:data:`SHIFT_THETAS` until the factorization succeeds, and goes on from its
current vector with that factor; if none succeeds it keeps the factor of
``K``.  By Sylvester's law of inertia a successful Cholesky proves ``sigma``
below the smallest eigenvalue, so ``[sigma, value]`` brackets it; the
factor of ``K`` alone proves 0.  Everything is deterministic: the start
vector is all ones and there is no randomness, and every inner product is
summed by :func:`dot` in one fixed order, never by BLAS, so the outputs do
not depend on the number of cores.  Mirror symmetry is not
enforced here; the reduced systems are already posed on the symmetric
functions.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, field

import numpy as np
import scipy

# residual tolerance of the inverse iteration relative to the Rayleigh
# quotient, the default of every solve
TOL = 1e-9
# sigma / rho of the shifted factor, tried in order until one is definite
SHIFT_THETAS = (0.99, 0.95, 0.9)


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``."""
    # Importing scipy.linalg runs its package init, which imports numpy.f2py,
    # numpy.testing and more: over half of the CLI's start-up.
    name = "scipy.linalg._flapack"
    linalg = importlib.util.find_spec("scipy.linalg")
    spec = linalg and importlib.machinery.PathFinder.find_spec(
        name, linalg.submodule_search_locations
    )
    if spec is None:
        raise ImportError(f"{name} not found in scipy {scipy.__version__}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def lapack_thread_control():
    """``(get, set)`` of the thread count of the OpenBLAS behind
    :data:`dpbtrf`, or ``None`` when its LAPACK exports neither."""
    import ctypes

    # dlsym on the extension's handle also searches the libraries it links
    lib = ctypes.CDLL(_flapack.__file__)
    for prefix in ("scipy_openblas", "openblas"):  # scipy's wheels, a system OpenBLAS
        try:
            return (getattr(lib, f"{prefix}_get_num_threads"),
                    getattr(lib, f"{prefix}_set_num_threads"))
        except AttributeError:
            pass
    return None


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` in a fixed summation order.

    numpy's ``@`` and ``np.linalg.norm`` call BLAS, which on long vectors
    splits the sum across threads, so their last bits depend on the number
    of cores; ``einsum`` sums in one thread.
    """
    return float(np.einsum("i,i->", a, b))


class SolverConvergenceError(RuntimeError):
    """Iteration cap exceeded; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.message = message
        self.residual = residual

    def __reduce__(self):
        return type(self), (self.message, self.residual)


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A Cholesky pivot is not positive; ``pivot`` is its 1-based index."""

    def __init__(self, pivot: int, dim: int):
        super().__init__(
            f"matrix is not positive definite: pivot {pivot} of {dim} is not positive"
        )
        self.pivot = pivot
        self.dim = dim

    def __reduce__(self):
        return type(self), (self.pivot, self.dim)


class SymmetricBand:
    """A symmetric matrix stored as its nonzero lower diagonals.

    ``diagonals[k][j] = A[j + offsets[k], j]`` for ``j < n - offsets[k]``;
    ``offsets`` increase from 0.  ``A @ x`` applies each off-diagonal below
    and above the main one.
    """

    def __init__(self, offsets, diagonals):
        self.offsets = tuple(int(k) for k in offsets)
        self.diagonals = tuple(diagonals)
        self.shape = (self.diagonals[0].size,) * 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.diagonals[0] * x
        for k, d in zip(self.offsets[1:], self.diagonals[1:]):
            y[k:] += d * x[:-k]
            y[:-k] += d * x[k:]
        return y


class BandCholesky:
    """Cholesky factor of a symmetric positive definite band matrix.

    ``band`` is the lower band of ``A`` in LAPACK storage: ``band[i - j, j]
    = A[i, j]`` for ``j <= i <= j + kd``, as an F-ordered ``(kd + 1, n)``
    array.  It is factored in place.  Raises
    :class:`NotPositiveDefiniteError` at the first non-positive pivot.
    """

    def __init__(self, band: np.ndarray):
        self.band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise NotPositiveDefiniteError(info, band.shape[1])
        if info < 0:
            raise ValueError(f"dpbtrf: illegal argument {-info}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^-1 b``, in a new array."""
        x, info = dpbtrs(self.band, b, lower=1)
        if info != 0:
            raise ValueError(f"dpbtrs: illegal argument {-info}")
        return x


def factorize(k: SymmetricBand, m: SymmetricBand | None = None,
              sigma: float = 0.0) -> BandCholesky:
    """Band Cholesky of ``k - sigma m``, or of ``k`` alone without ``m``.

    The band is the union of the offsets of ``k`` and ``m``: either may
    leave out a diagonal that is zero throughout.  Its largest offset is the
    half-bandwidth ``kd``, so the factor costs ``O(n kd^2)`` time and ``(kd +
    1) n`` doubles; the unknown order is kept.
    """
    kd = k.offsets[-1] if m is None else max(k.offsets[-1], m.offsets[-1])
    band = np.zeros((kd + 1, k.shape[0]), order="F")
    for o, d in zip(k.offsets, k.diagonals):
        band[o, : d.size] = d
    if m is not None:
        for o, d in zip(m.offsets, m.diagonals):
            band[o, : d.size] -= sigma * d
    return BandCholesky(band)


def _shifted_factor(k, m, rho: float):
    """``(factor, sigma)`` for the first ``sigma = theta rho`` of
    :data:`SHIFT_THETAS` at which ``k - sigma m`` is positive definite, or
    ``None`` if it is at none."""
    for theta in SHIFT_THETAS:
        try:
            return factorize(k, m, theta * rho), theta * rho
        except NotPositiveDefiniteError:
            continue
    return None


@dataclass
class EigenPair:
    """Smallest eigenpair with solver diagnostics.

    ``vector`` is M-normalized, its sign fixed so the M-weighted mean is
    positive; ``residual`` is ``||K u - value M u|| / ||M u||``.
    ``lower_bound`` is the shift of the last factor the iterates used, 0.0
    for the factor of ``K``: its Cholesky proves it below the smallest
    eigenvalue, so ``[lower_bound, value]`` brackets that eigenvalue.
    """

    value: float
    vector: np.ndarray
    residual: float
    lower_bound: float
    iterations: int
    rayleigh_history: tuple = field(default=(), repr=False)


def smallest_eigenpair(
    k, m, factor: BandCholesky, tol: float = TOL, max_outer: int = 400
) -> EigenPair:
    """Smallest eigenpair of ``k u = value m u`` by inverse power iteration.

    ``k`` and ``m`` are :class:`SymmetricBand` matrices and ``factor`` is
    the :func:`factorize` factor of ``k``; each step is one pair of
    triangular solves with the current factor, one ``m`` and one ``k``
    product.  It stops once ``residual <= tol * value``.  The iteration
    switches at most once to the factor of ``k - sigma m`` (module
    docstring); the Rayleigh quotient, the residual and the stopping rule
    stay on ``k`` and ``m``.  Raises
    :class:`SolverConvergenceError` after ``max_outer`` steps, and
    ``ValueError`` before the first unless ``tol > 0``.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    x = np.ones(k.shape[0])
    x = x / math.sqrt(dot(x, m @ x))
    mx = m @ x
    rho = dot(x, k @ x)
    if rho <= 0.0:
        raise SolverConvergenceError("nonpositive Rayleigh quotient", rho)
    history = [rho]
    residual = np.inf
    sigma = 0.0
    # one more band Cholesky, priced in plain steps, plus the shifted steps
    # that still follow it
    shift_worth = k.offsets[-1] / 8 + 4
    may_shift = True
    for it in range(1, max_outer + 1):
        y = factor.solve(mx)
        my = m @ y
        nrm = math.sqrt(dot(y, my))
        y /= nrm
        my /= nrm
        ky = k @ y
        rho = dot(y, ky)
        if rho <= 0.0:
            raise SolverConvergenceError("nonpositive Rayleigh quotient", rho)
        history.append(rho)
        residual_prev = residual
        r = ky - rho * my
        residual = math.sqrt(dot(r, r)) / math.sqrt(dot(my, my))
        # the next step's m @ x is the m @ y just computed
        mx = my
        if residual <= tol * rho:
            if float(my.sum()) < 0.0:
                y = -y
            return EigenPair(
                value=rho,
                vector=y,
                residual=residual,
                lower_bound=sigma,
                iterations=it,
                rayleigh_history=tuple(history),
            )
        if may_shift and it >= 3:
            rate = residual / residual_prev
            if rate >= 1.0 or np.log(tol * rho / residual) / np.log(rate) > shift_worth:
                may_shift = False
                shifted = _shifted_factor(k, m, rho)
                if shifted is not None:
                    factor, sigma = shifted
    raise SolverConvergenceError(
        f"inverse iteration did not converge in {max_outer} steps", residual
    )
