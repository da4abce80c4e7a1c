"""Independent 1D solver for the concentric annulus.

Validates the 2D code at ``s = 0``.  With ``rho = log r`` the radial
eigenvalue problem ``-(r u')' / r = value * u`` on ``(R0, R1)`` becomes
``-u_rho_rho = value * r^2 * u`` on ``(log R0, log R1)``, which is
collocated at :data:`CHEBYSHEV_POINTS` Chebyshev points (Trefethen,
*Spectral Methods in MATLAB*, SIAM 2000, ch. 6 and 13).  A Dirichlet end
is dropped; a Neumann end is eliminated through its row of the
differentiation matrix, since ``u_rho = r u_r`` vanishes exactly when
``u_r`` does.  No machinery is shared with the 2D eigensolver on purpose.

The torsion counterpart is closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .fem import ProblemKind

# enough for 1e-10 relative accuracy from R0/R1 = 0.01 to 0.998; more
# points only add round-off
CHEBYSHEV_POINTS = 32


def _check_radii(R0: float, R1: float):
    if not (0.0 < R0 < R1 and math.isfinite(R1)):
        raise ValueError(f"need 0 < R0 < R1 < inf, got R0={R0}, R1={R1}")


def _chebyshev(n: int):
    """Increasing Chebyshev points ``x_j = -cos(pi j / (n - 1))`` on [-1, 1]
    and their differentiation matrix (diagonal by the negative-sum rule)."""
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c[1::2] *= -1.0
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n))
    d -= np.diag(d.sum(axis=1))
    return x, d


def _radial_eigenvalue(kind: ProblemKind, R0: float, R1: float, n: int) -> float:
    """Smallest eigenvalue of the ``n``-point collocation (module docstring)."""
    x, d = _chebyshev(n)
    a, b = math.log(R0), math.log(R1)
    r = np.exp(a + 0.5 * (b - a) * (x + 1.0))
    d *= 2.0 / (b - a)
    d2 = d @ d
    # point 0 is R0 and point n - 1 is R1, so the kind's free layers of an
    # (n - 1)-layer lattice are the free points; the free ends are Neumann
    free = np.arange(n)[kind.layers(n - 1)]
    ends = np.isin(free, (0, n - 1))
    nb, ni = free[ends], free[~ends]
    # u[nb] from the Neumann rows d[nb] u = 0
    elim = -np.linalg.solve(d[np.ix_(nb, nb)], d[np.ix_(nb, ni)])
    op = -(d2[np.ix_(ni, ni)] + d2[np.ix_(ni, nb)] @ elim) / r[ni, None] ** 2
    values = np.linalg.eigvals(op)
    return float(values[values.imag == 0.0].real.min())


def concentric_eigenvalue(kind: ProblemKind, R0: float, R1: float) -> float:
    """First eigenvalue of ``kind`` on the concentric annulus ``R0 < r < R1``."""
    _check_radii(R0, R1)
    return _radial_eigenvalue(kind, R0, R1, CHEBYSHEV_POINTS)


def concentric_torsion(R0: float, R1: float):
    """Closed-form radial torsion profile and rigidity at s = 0.

    ``v(r) = (R0^2 - r^2)/4 + (R1^2 / 2) log(r / R0)`` satisfies
    ``-(v'' + v'/r) = 1`` with ``v(R0) = 0`` and ``v'(R1) = 0``; the rigidity
    is ``2 pi * integral of v(r) r dr``, which is
    ``2 pi [(R1^2 - R0^2)(R0^2 - 3 R1^2)/16 + R1^4 L/4]`` with
    ``L = log(R1/R0)``.  ``L`` is taken as ``log1p((R1^2 - R0^2)/R0^2)/2``,
    which keeps its relative accuracy for a thin annulus, where the two
    terms nearly cancel.
    """
    _check_radii(R0, R1)

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = (R0**2 - r**2) / 4.0 + (R1**2 / 2.0) * np.log(r / R0)
        return float(out) if out.ndim == 0 else out

    a, b = R0 * R0, R1 * R1
    log_ratio = 0.5 * math.log1p((b - a) / a)
    return profile, 2.0 * math.pi * ((b - a) * (a - 3.0 * b) / 16.0 + b * b * log_ratio / 4.0)
