"""Independent 1D solver for the concentric annulus.

Validates the 2D code at ``s = 0``: the radial eigenvalue problem
``-(r u')' / r = value * u`` on ``(R0, R1)`` is discretized with second-order
finite differences on a uniform grid (Dirichlet ends pinned, the Neumann end
closed with a reflected half cell) and the smallest eigenvalue of the
resulting symmetric tridiagonal pencil is found by bisection on the Sturm
sign count.  No machinery is shared with the 2D eigensolver on purpose.

The torsion counterpart is closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .fem import ProblemKind


def _radial_pencil(kind: ProblemKind, R0: float, R1: float, n: int):
    """Symmetric tridiagonal pencil (diag, off, mass) for the radial problem."""
    h = (R1 - R0) / n
    r = R0 + h * np.arange(n + 1)
    r_face = R0 + h * (np.arange(n) + 0.5)  # r at midpoints, length n

    # flux form: node i couples to faces i-1/2 and i+1/2 with weight r_face/h;
    # boundary nodes own a half cell
    diag = np.zeros(n + 1)
    diag[:-1] += r_face / h
    diag[1:] += r_face / h
    off = -r_face / h
    mass = r * h
    mass[0] *= 0.5
    mass[-1] *= 0.5

    keep = np.ones(n + 1, dtype=bool)
    if kind in (ProblemKind.ND, ProblemKind.DD):
        keep[0] = False  # Dirichlet at R0
    if kind in (ProblemKind.DN, ProblemKind.DD):
        keep[-1] = False  # Dirichlet at R1
    idx = np.nonzero(keep)[0]
    d = diag[idx]
    m = mass[idx]
    # off-diagonal survives only between consecutive kept nodes
    e = off[idx[:-1]]
    return d, e, m


def _sturm_count(d, e, m, sigma: float) -> int:
    """Number of pencil eigenvalues below sigma (LDL^T sign count)."""
    tiny = 1e-300
    count = 0
    piv = d[0] - sigma * m[0]
    if piv == 0.0:
        piv = -tiny
    if piv < 0.0:
        count += 1
    for i in range(1, d.size):
        piv = (d[i] - sigma * m[i]) - e[i - 1] * e[i - 1] / piv
        if piv == 0.0:
            piv = -tiny
        if piv < 0.0:
            count += 1
    return count


def _smallest_pencil_eigenvalue(d, e, m) -> float:
    lo = 0.0
    hi = float(np.max((d + np.abs(np.concatenate([[0.0], e]))
                       + np.abs(np.concatenate([e, [0.0]]))) / m))
    # widen until at least one eigenvalue lies below hi (Gershgorin may be tight)
    while _sturm_count(d, e, m, hi) < 1:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _sturm_count(d, e, m, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def concentric_eigenvalue_raw(kind: ProblemKind, R0: float, R1: float, n: int) -> float:
    """Unextrapolated grid eigenvalue; exposed for convergence diagnostics."""
    return _smallest_pencil_eigenvalue(*_radial_pencil(kind, R0, R1, n))


def concentric_eigenvalue(kind: ProblemKind, R0: float, R1: float, n: int = 2000) -> float:
    """First eigenvalue at s = 0, Richardson-extrapolated over n and 2n grids.

    ``n`` must be at least 200; the discretization error is O(h^2), so the
    (4 v_{2n} - v_n)/3 combination cancels the leading term.
    """
    if n < 200:
        raise ValueError(f"need n >= 200 grid cells, got {n}")
    if not 0.0 < R0 < R1:
        raise ValueError("need 0 < R0 < R1")
    v1 = concentric_eigenvalue_raw(kind, R0, R1, n)
    v2 = concentric_eigenvalue_raw(kind, R0, R1, 2 * n)
    return (4.0 * v2 - v1) / 3.0


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
    if not 0.0 < R0 < R1:
        raise ValueError("need 0 < R0 < R1")

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = (R0**2 - r**2) / 4.0 + (R1**2 / 2.0) * np.log(r / R0)
        return float(out) if out.ndim == 0 else out

    a, b = R0 * R0, R1 * R1
    log_ratio = 0.5 * math.log1p((b - a) / a)
    return profile, 2.0 * math.pi * ((b - a) * (a - 3.0 * b) / 16.0 + b * b * log_ratio / 4.0)
