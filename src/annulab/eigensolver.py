"""Sparse SPD factorization and the smallest generalized eigenpair.

Every linear solve in the package goes through :func:`factorize`: one sparse
LU in symmetric mode, computed once per matrix by
:class:`annulab.fem.Discretization` and reused for every right-hand side.
The eigenpair comes from inverse power iteration on ``K y = M x`` with
M-normalization and a Rayleigh-quotient stopping rule.  Everything is
deterministic: the start vector is all ones and there is no randomness.
Mirror symmetry is not enforced here; the reduced systems are already posed
on the symmetric functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

RAYLEIGH_RTOL = 1e-12


class SolverConvergenceError(RuntimeError):
    """Iteration cap exceeded; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def factorize(A):
    """Sparse LU of a symmetric positive definite matrix; ``.solve(b)`` solves.

    Symmetric mode orders by minimum degree on the pattern of ``A + A^T`` and
    takes diagonal pivots, which is safe for SPD matrices and keeps roughly
    half the fill of the default column ordering.
    """
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


@dataclass
class EigenPair:
    """Smallest eigenpair with solver diagnostics.

    ``vector`` is M-normalized, its sign fixed so the M-weighted mean is
    positive; ``residual`` is ``||K u - value M u|| / ||M u||``.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    rayleigh_history: tuple = field(default=(), repr=False)


def smallest_eigenpair(
    k, m, lu: spla.SuperLU, tol: float = 1e-9, max_outer: int = 400
) -> EigenPair:
    """Smallest eigenpair of ``k u = value m u`` by inverse power iteration.

    ``lu`` is the :func:`factorize` LU of ``k``; each step is one pair of
    triangular solves with it.  Raises :class:`SolverConvergenceError` after
    ``max_outer`` steps.
    """
    x = np.ones(k.shape[0])
    x = x / np.sqrt(float(x @ (m @ x)))
    rho = float(x @ (k @ x))
    if rho <= 0.0:
        raise SolverConvergenceError("nonpositive Rayleigh quotient", rho)
    history = [rho]
    residual = np.inf
    for it in range(1, max_outer + 1):
        y = lu.solve(m @ x)
        my = m @ y
        nrm = np.sqrt(float(y @ my))
        y /= nrm
        my /= nrm
        rho_prev = rho
        ky = k @ y
        rho = float(y @ ky)
        if rho <= 0.0:
            raise SolverConvergenceError("nonpositive Rayleigh quotient", rho)
        history.append(rho)
        residual = float(np.linalg.norm(ky - rho * my) / np.linalg.norm(my))
        change = abs(rho - rho_prev) / rho
        x = y
        if change < RAYLEIGH_RTOL and residual <= tol:
            if float(my.sum()) < 0.0:
                y = -y
            return EigenPair(
                value=rho,
                vector=y,
                residual=residual,
                iterations=it,
                rayleigh_history=tuple(history),
            )
    raise SolverConvergenceError(
        f"inverse iteration did not converge in {max_outer} steps", residual
    )
