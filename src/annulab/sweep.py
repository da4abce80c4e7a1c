"""Parameter sweeps: offset translations, the outer-Dirichlet family, and
mesh convergence studies.

Sweep points are independent solves.  :func:`sweep_translation` and the
grid of :func:`analyze_dn_ratio` hand them out as tasks to forked worker
processes (Linux) and the calling process, each on a CPU of its own,
whichever process is free taking the next task.  Every task is computed
whole in one process and the results come back in task order, so they do
not depend on the number of workers.  The CLI's ``solve`` and ``torsion``
run the same map over two tasks, the solve and the mesh half of the field
files, on two processes when the mesh is fine enough to gain by it.  A
worker that dies raises :class:`WorkerDiedError`.  Monotonicity expectations (first mixed
eigenvalue strictly decreasing in the offset, rigidity strictly increasing)
are checked on the assembled records by :func:`monotonicity_violations`,
whose list the caller reports once, never raised mid-sweep.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .checks import geometry_reports
from .eigensolver import TOL, lapack_thread_control
from .export import svg_line_chart, write_csv
from .fem import Field, ProblemKind
from .geometry import AnnularDomain
from .mesh import Resolution
from .shape import (
    default_fd_step,
    dirichlet_normal_derivative,
    hadamard_tau_prime,
    half_boundary_tau_prime,
    max_fd_step,
    offset_difference,
    offset_eigenvalue,
    offset_points,
)
from .spectral import discretize, solve_eigenproblem
from .torsion import rigidity_derivative, solve_torsion

# default number of sweep processes: the CPUs this process may run on
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
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


class WorkerDiedError(RuntimeError):
    """A worker process of :func:`_parallel_map` ended without sending its
    results back: it was killed, ran out of memory or called ``os._exit``."""


def _process_count(threads: int, tasks: int) -> int:
    """Processes of a map over ``tasks`` tasks: at most ``threads``, and at
    most :data:`WORKERS`, the CPUs this process may run on."""
    return max(1, min(threads, tasks, WORKERS))


class _TaskQueue:
    """Task indices ``1, 2, ...`` for the processes of a map, each handed out
    once and in order.

    The next index is 8 bytes of a memfd under a POSIX record lock, which
    its holder's kernel releases if the holder dies; taking an index never
    waits for a reader, and the count of tasks is not capped.
    """

    def __init__(self, count: int):
        self.count = count
        self.fd = os.memfd_create("annulab-tasks")
        self._put(1)

    def _put(self, i: int) -> None:
        os.pwrite(self.fd, i.to_bytes(8, "little"), 0)

    @contextmanager
    def _locked(self):
        import fcntl

        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)

    def take(self) -> int | None:
        """The next index, or ``None`` when every task is out."""
        with self._locked():
            i = int.from_bytes(os.pread(self.fd, 8, 0), "little")
            if i >= self.count:
                return None
            self._put(i + 1)
            return i

    def close(self) -> None:
        """Hand out no more tasks."""
        with self._locked():
            self._put(self.count)


def _run_queue(fn, args, queue: _TaskQueue):
    """Run the tasks taken from ``queue`` until it is empty or one raises:
    ``([(index, result), ...], (index, exception) or None)``.  A raising
    task closes the queue, since no task after it can change the outcome."""
    done = []
    while (i := queue.take()) is not None:
        try:
            done.append((i, fn(args[i])))
        except Exception as exc:
            queue.close()
            return done, (i, exc)
    return done, None


def _parallel_map(fn, args, threads: int) -> list:
    """``[fn(a) for a in args]`` on :func:`_process_count` processes.

    Process 0 is the caller, the others are forked children.  The caller
    runs task 0; every other task goes, in index order, to whichever
    process asks next (:class:`_TaskQueue`), so tasks of unequal cost
    balance.  A child pickles its results back through a pipe and leaves by
    ``os._exit``.  While the map lasts each process is pinned to a CPU of
    its own, since a kernel that does not balance load across CPUs keeps a
    forked child on its parent's CPU, and runs LAPACK on one thread (so it
    does from the package's import, unless the host set
    ``OPENBLAS_NUM_THREADS`` or loaded scipy first), since processes that
    each spin an OpenBLAS pool on a CPU they share slow each other down
    many times over.  A failing task re-raises the exception of the lowest
    failing index, as the serial loop does: indices go out in order, and
    every task taken runs to its end.  Task 0's exception is raised at once; the others once every
    child is reaped.  A child that dies raises :class:`WorkerDiedError`.
    With one process, or without ``sched_setaffinity``, ``memfd_create`` or
    a LAPACK whose threads can be set, the map is that loop.
    """
    args = list(args)
    n = _process_count(threads, len(args))
    lapack = (n > 1 and hasattr(os, "sched_setaffinity")
              and hasattr(os, "memfd_create") and lapack_thread_control())
    if not lapack:
        return [fn(a) for a in args]
    import pickle
    import signal

    get_threads, set_threads = lapack
    lapack_threads = get_threads()
    cpus = sorted(os.sched_getaffinity(0))
    queue = _TaskQueue(len(args))
    children = []  # (pid, read end of its pipe)
    try:
        set_threads(1)
        for w in range(1, n):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.sched_setaffinity(0, {cpus[w % len(cpus)]})
                    os.close(r)
                    data = pickle.dumps(_run_queue(fn, args, queue), -1)
                    with open(wr, "wb") as fh:
                        fh.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((pid, open(r, "rb")))
        os.sched_setaffinity(0, {cpus[0]})
        results = [None] * len(args)
        results[0] = fn(args[0])
        shares = [_run_queue(fn, args, queue)]
        while children:
            pid, fh = children[0]
            data = fh.read()
            fh.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise WorkerDiedError(
                    f"worker process exited with code {os.waitstatus_to_exitcode(status)}"
                )
            shares.append(pickle.loads(data))
    finally:
        set_threads(lapack_threads)
        os.sched_setaffinity(0, cpus)
        os.close(queue.fd)
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = []
    for done, failure in shares:
        for i, value in done:
            results[i] = value
        if failure is not None:
            failed.append(failure)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def _solve_record(
    R0, R1, s, res: Resolution, tol, keep_fields, exclusion
) -> SweepRecord:
    """The record at offset ``s`` but its ``dtau_fd``, which is NaN:
    :func:`sweep_translation` solves the finite-difference points as tasks
    of their own."""
    d = AnnularDomain(R0, R1, s)
    disc = discretize(d, res)
    nd = solve_eigenproblem(disc, ProblemKind.ND, tol)
    dd = solve_eigenproblem(disc, ProblemKind.DD, tol)
    dn = solve_eigenproblem(disc, ProblemKind.DN, tol)
    tor = solve_torsion(disc)
    # its factorizations are most of a record's memory: free them before the
    # geometry reports
    del disc

    trace = dirichlet_normal_derivative(nd.u)
    had = hadamard_tau_prime(trace)
    halfb = half_boundary_tau_prime(trace, d)
    dT = rigidity_derivative(dirichlet_normal_derivative(tor.v))

    # the reflected points are located once for both reports
    rep_u, rep_v = geometry_reports([nd.u, tor.v], exclusion)
    checks = rep_u.all_passed and rep_v.passed(
        ("affine_radial", "axial_cap", "outer_axial")
    )
    return SweepRecord(
        s=s, tau1=nd.value, lambda1=dd.value, nu1=dn.value, T=tor.T,
        dtau_hadamard=had, dtau_half=halfb, dtau_fd=math.nan, dT_boundary=dT,
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
    ``threads`` caps the processes that compute the records
    (:func:`_parallel_map`); the records do not depend on it.  The map's
    tasks are one :func:`_solve_record` per offset, then one re-solve per
    point of :func:`~annulab.shape.offset_points`, so that a free process
    always has work; ``dtau_fd`` is combined from their values afterwards.
    """
    AnnularDomain(R0, R1)  # the radii are checked before the grid
    s_grid = [float(s) for s in s_grid]
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("s_grid must be strictly increasing")
    if s_grid and not (0.0 <= s_grid[0] and s_grid[-1] < R1 - R0):
        raise ValueError("s_grid must lie inside [0, R1 - R0)")
    if fd_step is not None and not fd_step > 0.0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")

    domains = [AnnularDomain(R0, R1, s) for s in s_grid]
    steps = [default_fd_step(d) if fd_step is None else min(fd_step, max_fd_step(d))
             for d in domains]
    points = [offset_points(d, h) for d, h in zip(domains, steps)]
    tasks = [partial(_solve_record, R0, R1, s, resolution, tol, keep_fields, exclusion)
             for s in s_grid]
    tasks += [partial(offset_eigenvalue, d, p, resolution, ProblemKind.ND, tol)
              for d, pts in zip(domains, points) for p in pts]
    results = _parallel_map(lambda task: task(), tasks, threads)
    fd_values = iter(results[len(s_grid):])
    records = []
    for rec, d, h, pts in zip(results[:len(s_grid)], domains, steps, points):
        at = {p: next(fd_values) for p in pts}
        fd = offset_difference(at.__getitem__, d, h, rec.tau1)
        records.append(replace(rec, dtau_fd=fd))
    return records


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
    nu = np.array(
        _parallel_map(lambda s: _nu1(R0, R1, s, resolution, tol), grid, WORKERS)
    )

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

