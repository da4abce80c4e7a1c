"""Parameter sweeps: offset translations, the outer-Dirichlet family, and
mesh convergence studies.

Sweep points are independent solves merged by parameter value, so results do
not depend on evaluation order or worker count.  Monotonicity expectations
(first mixed eigenvalue strictly decreasing in the offset, rigidity strictly
increasing) are checked on the assembled records by
:func:`monotonicity_violations`, whose list the caller reports once, never
raised mid-sweep.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .checks import geometry_reports
from .eigensolver import TOL
from .export import svg_line_chart, write_csv
from .fem import Field, ProblemKind
from .geometry import AnnularDomain
from .mesh import Resolution
from .shape import (
    default_fd_step,
    dirichlet_normal_derivative,
    finite_difference_tau_prime,
    hadamard_tau_prime,
    half_boundary_tau_prime,
    max_fd_step,
)
from .spectral import discretize, solve_eigenproblem
from .torsion import rigidity_derivative, solve_torsion

# default size of the sweep thread pool
WORKERS = os.cpu_count() or 1
# sweep points per radius ratio of the outer-Dirichlet family analysis
S_POINTS = 12
# target width of the critical-ratio bracket
BRACKET_WIDTH = 0.05


@dataclass
class SweepRecord:
    """One row of a translation sweep, and optionally its two fields."""

    s: float
    tau1: float
    lambda1: float
    nu1: float
    T: float
    dtau_hadamard: float
    dtau_half: float
    dtau_fd: float
    dT_boundary: float
    checks_pass: bool
    u: Field | None = field(default=None, repr=False, compare=False)
    v: Field | None = field(default=None, repr=False, compare=False)

    def row(self):
        return tuple(getattr(self, name) for name in SWEEP_COLUMNS)


# the sweep CSV's columns: every field but the fields kept on request
SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord) if f.compare)


def _solve_record(
    R0, R1, s, res: Resolution, fd_step, tol, keep_fields, exclusion
) -> SweepRecord:
    d = AnnularDomain(R0, R1, s)
    disc = discretize(d, res)
    nd = solve_eigenproblem(disc, ProblemKind.ND, tol)
    dd = solve_eigenproblem(disc, ProblemKind.DD, tol)
    dn = solve_eigenproblem(disc, ProblemKind.DN, tol)
    tor = solve_torsion(disc)
    # its factorizations are most of a record's memory: free them before the
    # finite-difference re-solves and the geometry reports
    del disc

    trace = dirichlet_normal_derivative(nd.u)
    had = hadamard_tau_prime(trace)
    halfb = half_boundary_tau_prime(trace, d)
    h = default_fd_step(d) if fd_step is None else min(fd_step, max_fd_step(d))
    fd = finite_difference_tau_prime(d, h, res, ProblemKind.ND, tol)
    dT = rigidity_derivative(dirichlet_normal_derivative(tor.v))

    # the reflected points are located once for both reports
    rep_u, rep_v = geometry_reports([nd.u, tor.v], exclusion)
    checks = rep_u.all_passed and rep_v.passed(
        ("affine_radial", "axial_cap", "outer_axial")
    )
    return SweepRecord(
        s=s, tau1=nd.value, lambda1=dd.value, nu1=dn.value, T=tor.T,
        dtau_hadamard=had, dtau_half=halfb, dtau_fd=fd, dT_boundary=dT,
        checks_pass=checks,
        u=nd.u if keep_fields else None,
        v=tor.v if keep_fields else None,
    )


def sweep_translation(
    R0: float,
    R1: float,
    s_grid,
    resolution: Resolution = Resolution(),
    fd_step: float | None = None,
    tol: float = TOL,
    threads: int = WORKERS,
    keep_fields: bool = False,
    exclusion: float | None = None,
) -> list[SweepRecord]:
    """One record per offset, in the order of ``s_grid``;
    :func:`monotonicity_violations` tells which expected trends fail.

    ``fd_step`` is the finite-difference step, clamped to the room at each
    offset; the default is :func:`~annulab.shape.default_fd_step`.
    """
    AnnularDomain(R0, R1)  # the radii are checked before the grid
    s_grid = [float(s) for s in s_grid]
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("s_grid must be strictly increasing")
    if s_grid and not (0.0 <= s_grid[0] and s_grid[-1] < R1 - R0):
        raise ValueError("s_grid must lie inside [0, R1 - R0)")
    if fd_step is not None and not fd_step > 0.0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")

    def work(s):
        return _solve_record(
            R0, R1, s, resolution, fd_step, tol, keep_fields, exclusion
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, s_grid))
    return [work(s) for s in s_grid]


def monotonicity_violations(records) -> list[str]:
    """Expected trends over the sweep; empty when everything holds."""
    out = []
    for a, b in zip(records, records[1:]):
        if not b.tau1 < a.tau1:
            out.append(f"tau1 not strictly decreasing between s={a.s} and s={b.s}")
        if not b.T > a.T:
            out.append(f"T not strictly increasing between s={a.s} and s={b.s}")
    for r in records:
        if r.s > 0.0 and not r.dtau_hadamard < 0.0:
            out.append(f"dtau_hadamard not negative at s={r.s}")
        if r.s > 0.0 and not r.dT_boundary > 0.0:
            out.append(f"dT_boundary not positive at s={r.s}")
        if not r.checks_pass:
            out.append(f"geometry checks failed at s={r.s}")
    return out


def write_sweep_csv(records, path):
    write_csv(path, SWEEP_COLUMNS, (r.row() for r in records))


def write_sweep_svg(records, path):
    s = [r.s for r in records]
    svg_line_chart(
        path,
        [
            ("tau1", s, [r.tau1 for r in records]),
            ("lambda1", s, [r.lambda1 for r in records]),
            ("nu1", s, [r.nu1 for r in records]),
        ],
        title="first eigenvalues vs offset",
        xlabel="s",
        ylabel="eigenvalue",
    )


# -- outer-Dirichlet family analysis -------------------------------------


@dataclass
class DNAnalysis:
    """Shape of nu1(s) for one radius ratio.

    ``classification`` is one of ``interior_minimum``, ``monotone_decreasing``
    or ``inconclusive``; ``s0`` is the refined minimizer when one exists.
    """

    ratio: float
    classification: str
    s0: float | None
    s_points: np.ndarray
    nu_values: np.ndarray


def _nu1(R0, R1, s, res: Resolution, tol) -> float:
    return solve_eigenproblem(
        discretize(AnnularDomain(R0, R1, s), res), ProblemKind.DN, tol
    ).value


def _golden_minimize(f, a, b, tol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def analyze_dn_ratio(
    R1: float,
    ratio: float,
    s_points: int = S_POINTS,
    resolution: Resolution = Resolution(),
    tol: float = TOL,
) -> DNAnalysis:
    """Classify nu1(s) for ``R0 = ratio R1`` on a uniform interior grid.

    An interior minimum is detected from the sign change of successive
    differences and refined by golden section to a window of
    ``(R1 - R0)/200``; a non-unimodal difference pattern is reported as
    inconclusive rather than forced into either class.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    if s_points < 3:
        raise ValueError("need at least 3 sweep points")
    R0 = ratio * R1
    width = R1 - R0
    # midpoint grid: uniform over the open interval with end coverage
    # 0.5 dx from either endpoint, where the shallow minimum tends to sit
    grid = (np.arange(s_points) + 0.5) * (width / s_points)
    nu = np.array([_nu1(R0, R1, s, resolution, tol) for s in grid])

    diffs = np.diff(nu)
    signs = np.sign(diffs)
    if np.all(signs < 0):
        return DNAnalysis(ratio, "monotone_decreasing", None, grid, nu)
    # admissible unimodal pattern: some negatives then some positives
    pos = np.nonzero(signs > 0)[0]
    first_pos = int(pos[0]) if pos.size else len(signs)
    unimodal = np.all(signs[:first_pos] < 0) and np.all(signs[first_pos:] > 0)
    if not unimodal or first_pos == 0:
        return DNAnalysis(ratio, "inconclusive", None, grid, nu)
    lo = grid[max(first_pos - 1, 0)]
    hi = grid[min(first_pos + 1, len(grid) - 1)]
    s0 = _golden_minimize(
        lambda s: _nu1(R0, R1, s, resolution, tol), lo, hi, width / 200.0
    )
    return DNAnalysis(ratio, "interior_minimum", float(s0), grid, nu)


def bracket_critical_ratio(
    R1: float,
    lo: float,
    hi: float,
    width: float = BRACKET_WIDTH,
    s_points: int = S_POINTS,
    resolution: Resolution = Resolution(),
    tol: float = TOL,
):
    """Bisect the ratio axis for the crossover between the two behaviors.

    ``lo`` must classify as interior minimum and ``hi`` as monotone
    decreasing; returns ``(lo, hi, analyses)`` with ``hi - lo <= width``, or
    with adjacent doubles ``lo``, ``hi`` for a ``width`` below their spacing.
    An inconclusive midpoint is retried once at doubled grid density, then
    assigned to the monotone side (the dip, if any, is below resolution).
    """
    if not width > 0.0:
        raise ValueError(f"bracket width must be positive, got {width}")
    analyses = {}

    def classify(ratio):
        a = analyze_dn_ratio(R1, ratio, s_points, resolution, tol)
        if a.classification == "inconclusive":
            a = analyze_dn_ratio(R1, ratio, 2 * s_points, resolution, tol)
        analyses[ratio] = a
        return a.classification

    c_lo = classify(lo)
    c_hi = classify(hi)
    if c_lo != "interior_minimum" or c_hi == "interior_minimum":
        raise ValueError(
            f"bracket endpoints do not straddle the crossover: {lo}→{c_lo}, {hi}→{c_hi}"
        )
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no double lies between lo and hi
            break
        if classify(mid) == "interior_minimum":
            lo = mid
        else:
            hi = mid
    return lo, hi, analyses


# -- convergence ----------------------------------------------------------


@dataclass
class ConvergenceRow:
    h: float
    res: Resolution
    value: float
    observed_order: float | None
    error: float | None


def check_levels(levels: int) -> None:
    """``ValueError`` unless ``levels`` refinement levels give an observed order."""
    if levels < 3:
        raise ValueError("need at least 3 levels for an observed order")


def convergence_study(
    domain: AnnularDomain,
    kind: ProblemKind,
    base: Resolution,
    levels: int = 3,
    tol: float = TOL,
    reference: float | None = None,
) -> list[ConvergenceRow]:
    """Eigenvalue at dyadic refinements of ``base`` with observed orders.

    Orders come from Richardson triplets of computed values; when an
    independent ``reference`` is supplied (the radial solver at s = 0),
    per-level errors and error-based orders are reported instead.
    """
    check_levels(levels)
    values = []
    rows = []
    for lvl in range(levels):
        res = replace(base, n_theta=base.n_theta * 2**lvl, n_rad=base.n_rad * 2**lvl)
        val = solve_eigenproblem(discretize(domain, res), kind, tol).value
        values.append(val)
        rows.append(ConvergenceRow(1.0 / 2**lvl, res, val, None, None))
    if reference is not None:
        for row in rows:
            row.error = abs(row.value - reference)
        for i in range(1, levels):
            e0, e1 = rows[i - 1].error, rows[i].error
            if e0 > 0 and e1 > 0:
                rows[i].observed_order = math.log2(e0 / e1)
    else:
        for i in range(2, levels):
            d0 = values[i - 1] - values[i - 2]
            d1 = values[i] - values[i - 1]
            if d0 != 0.0 and d1 != 0.0 and d0 / d1 > 0:
                rows[i].observed_order = math.log2(abs(d0 / d1))
    return rows


def richardson_limit(rows) -> float:
    """Extrapolated limit from the two finest levels and the observed order."""
    p = rows[-1].observed_order or 2.0
    v1, v2 = rows[-2].value, rows[-1].value
    return v2 + (v2 - v1) / (2.0**p - 1.0)

