"""Command line front end for the annulus laboratory.

Subcommands: ``solve``, ``torsion``, ``symmetry-check``, ``shape-derivative``,
``sweep``, ``dn-analyze``, ``converge``.  Exit codes: 0 success, 2 validation
error or unusable output directory, 3 solver non-convergence, 4 failed
assertion suite, 5 a system matrix that is not positive definite, 6 a worker
process that died (killed, out of memory) before it sent its results.  A
JSON config file may preload the flag defaults of the chosen subcommand;
explicit flags win.

On meshes of at least :data:`FORK_VERTICES` vertices, ``solve`` and
``torsion`` format the mesh half of their field files in a forked process
while the field is solved (:func:`_solve_field`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .checks import EXCLUSION, exclusion_radius, geometry_report
from .eigensolver import TOL, NotPositiveDefiniteError, SolverConvergenceError
from .export import mesh_text, write_json, write_values
from .fem import Discretization, ProblemKind
from .geometry import AnnularDomain, DomainError
from .mesh import MeshQualityError, Resolution, build_mesh
from .radial_oracle import concentric_eigenvalue
from .shape import (
    FD_STEPS,
    check_fd_step,
    default_fd_step,
    dirichlet_normal_derivative,
    finite_difference_tau_prime,
    hadamard_tau_prime,
    half_boundary_tau_prime,
)
from .spectral import discretize, solve_eigenproblem
from .sweep import (
    BRACKET_WIDTH,
    S_POINTS,
    WORKERS,
    WorkerDiedError,
    _parallel_map,
    analyze_dn_ratio,
    bracket_critical_ratio,
    check_levels,
    convergence_study,
    monotonicity_violations,
    richardson_limit,
    sweep_translation,
    write_sweep_csv,
    write_sweep_svg,
)
from .symmetrize import (
    RING_SAMPLES,
    RINGS,
    check_ring_counts,
    deviation,
    foliated_schwarz,
    sample_rings,
    worst_polarization_deviation,
)
from .torsion import solve_torsion, torsional_rigidity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_ASSERTIONS = 4
EXIT_NOT_POSITIVE_DEFINITE = 5
EXIT_WORKER_DIED = 6

# vertices from which solve and torsion format the mesh half of their field
# files in a forked process; on coarser meshes the fork costs more than the
# overlap saves (2-vCPU Xeon, medians of interleaved calls: a fork lost
# 5-7 ms a call at 32x6 and 128x32, broke even at 224x56, 12768 vertices,
# and gained 4-17 ms at 256x64, 16640 vertices)
FORK_VERTICES = 16384

# the first eigenvalue of each kind, as the sweep CSV names it
EIGENVALUE_NAMES = {ProblemKind.ND: "tau1", ProblemKind.DD: "lambda1", ProblemKind.DN: "nu1"}


def _parse_grid(text: str):
    """``start:step:end`` inclusive of both endpoints within half a step.

    Each point is rounded to 12 decimal places below the step's leading
    digit, so that ``0:0.4:1.2`` ends at 1.2, not 1.2000000000000002, at any
    scale of the step.
    """
    try:
        start, step, end = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:step:end, got {text!r}"
        )
    if not (math.isfinite(start) and math.isfinite(end) and 0.0 < step < math.inf
            and start <= end):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    digits = 12 - math.floor(math.log10(step))
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > end + step / 2:
            break
        out.append(round(v, digits))
        k += 1
    return out


def _parse_ratios(text: str):
    try:
        ratios = [float(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError("ratios must be comma-separated floats")
    if not ratios:
        raise argparse.ArgumentTypeError(f"no ratios in {text!r}")
    bad = [r for r in ratios if not 0.0 < r < 1.0]
    if bad:
        raise argparse.ArgumentTypeError(f"ratios must lie in (0, 1), got {bad[0]:g}")
    return ratios


def _add_domain(p, with_s=True):
    p.add_argument("--R0", type=float, default=1.0, help="inner radius (default 1)")
    p.add_argument("--R1", type=float, default=5.0, help="outer radius (default 5)")
    if with_s:
        p.add_argument("--s", type=float, default=0.0,
                       help="inner center offset (default 0)")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_solver_flags(p, res=Resolution(), with_tol=True):
    """Resolution flags defaulting to ``res``, and the eigensolver tolerance."""
    p.add_argument("--n-theta", type=int, default=res.n_theta,
                   help=f"angular resolution (default {res.n_theta})")
    p.add_argument("--n-rad", type=int, default=res.n_rad,
                   help=f"radial layers (default {res.n_rad})")
    p.add_argument("--grading", type=float, default=res.grading,
                   help="radial grading exponent in [0.5, 2]; >1 refines the "
                        f"inner circle (default {res.grading:g})")
    if with_tol:
        p.add_argument("--tol", type=_positive_float, default=TOL,
                       help=f"eigensolver residual tolerance (default {TOL:g})")


def _add_fd_step(p):
    p.add_argument("--fd-step", type=_positive_float, default=None,
                   help=f"finite difference step (default (R1 - R0)/{FD_STEPS}, "
                        "less where the offset leaves less room)")


def _add_out_dir(p):
    p.add_argument("--out-dir", default="out", help="output directory (default out)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="annulab",
        description="Mixed, Dirichlet and torsion problems on eccentric annuli",
    )
    ap.add_argument("--config", help="JSON file with flag defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="first eigenpair of one configuration")
    _add_domain(p)
    _add_solver_flags(p)
    _add_out_dir(p)
    p.add_argument("--vtk", action="store_true", help="also write a VTK file")
    p.add_argument("--kind", choices=("nd", "dn", "dd"), default="nd",
                   help="boundary configuration (default nd)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("torsion", help="torsion function and rigidity")
    _add_domain(p)
    _add_solver_flags(p, with_tol=False)
    _add_out_dir(p)
    p.add_argument("--vtk", action="store_true", help="also write a VTK file")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("symmetry-check",
                       help="geometry report and rearrangement deviations")
    _add_domain(p)
    _add_solver_flags(p)
    _add_out_dir(p)
    p.add_argument("--exclusion", type=float, default=None,
                   help=f"exclusion radius around (+-R1, 0); default {EXCLUSION:g} R1")
    p.add_argument("--rings", type=int, default=RINGS,
                   help=f"sample rings for rearrangements (default {RINGS})")
    p.add_argument("--ring-samples", type=int, default=RING_SAMPLES,
                   help=f"samples per ring (default {RING_SAMPLES})")
    p.set_defaults(func=cmd_symmetry_check)

    p = sub.add_parser("shape-derivative",
                       help="three derivative estimates at one offset")
    _add_domain(p)
    _add_solver_flags(p)
    _add_fd_step(p)
    p.set_defaults(func=cmd_shape_derivative)

    p = sub.add_parser("sweep", help="translation sweep of the inner hole")
    _add_domain(p, with_s=False)
    _add_solver_flags(p)
    _add_out_dir(p)
    p.add_argument("--svg", action="store_true", help="also write an SVG chart")
    p.add_argument("--s-grid", type=_parse_grid, default=_parse_grid("0:0.4:3.6"),
                   help="offset grid start:step:end (default 0:0.4:3.6)")
    _add_fd_step(p)
    p.add_argument("--threads", type=_positive_int, default=WORKERS,
                   help="most worker processes, the caller included (default: "
                        "the CPUs this process may run on)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dn-analyze",
                       help="minimum structure of the outer-Dirichlet family")
    p.add_argument("--R1", type=float, default=5.0, help="outer radius (default 5)")
    p.add_argument("--ratios", type=_parse_ratios, default=_parse_ratios("0.1,0.6"),
                   help="comma separated R0/R1 ratios (default 0.1,0.6)")
    p.add_argument("--s-points", type=int, default=S_POINTS,
                   help=f"sweep points per ratio (default {S_POINTS})")
    _add_solver_flags(p, Resolution(128, 32))
    p.add_argument("--bracket", action="store_true",
                   help="also bisect for the critical ratio")
    p.add_argument("--bracket-width", type=float, default=BRACKET_WIDTH,
                   help=f"target bracket width (default {BRACKET_WIDTH:g})")
    _add_out_dir(p)
    p.set_defaults(func=cmd_dn_analyze)

    p = sub.add_parser("converge", help="mesh convergence study from the coarsest "
                                        "level --n-theta x --n-rad")
    _add_domain(p)
    _add_solver_flags(p, Resolution(64, 16))
    p.add_argument("--kind", choices=("nd", "dn", "dd"), default="nd")
    p.add_argument("--levels", type=int, default=3,
                   help="number of dyadic refinement levels (default 3)")
    p.set_defaults(func=cmd_converge)
    return ap


def _ensure_outdir(args):
    os.makedirs(args.out_dir, exist_ok=True)


def _resolution(args) -> Resolution:
    return Resolution(args.n_theta, args.n_rad, args.grading)


def _solve_field(args, solve, prefix: str, name: str):
    """Solve on the mesh of ``args`` and write the field files
    ``<prefix>_s<offset>``, the field's values under ``name``.

    ``solve(disc)`` returns ``(field, result)`` for the discretization of
    the mesh.  The mesh is built first; then :func:`_parallel_map` runs two
    tasks: the solve in this process and :func:`~annulab.export.mesh_text`,
    which needs no values, in a forked child when the mesh has at least
    :data:`FORK_VERTICES` vertices, after the solve otherwise.  The
    discretization lives only inside its task, so its factorizations are
    freed before the child's text is read.  Returns ``result`` and the base
    path of the files.
    """
    mesh = build_mesh(AnnularDomain(args.R0, args.R1, args.s), _resolution(args))

    def task(i):
        return solve(Discretization(mesh)) if i == 0 else mesh_text(mesh, args.vtk)

    processes = 2 if mesh.num_vertices >= FORK_VERTICES else 1
    (field, result), text = _parallel_map(task, (0, 1), processes)
    _ensure_outdir(args)
    base = os.path.join(args.out_dir, f"{prefix}_s{args.s:g}")
    write_values(text, field.values, base, name)
    return result, base


def cmd_solve(args) -> int:
    kind = ProblemKind.parse(args.kind)

    def solve(disc):
        sol = solve_eigenproblem(disc, kind, args.tol)
        return sol.u, sol

    sol, base = _solve_field(args, solve, f"eig_{kind.value}", "u")
    print(f"first eigenvalue ({kind.value}, s={args.s:g}): {sol.value!r}")
    pair = sol.pair
    print(f"residual {pair.residual:.3e} after {pair.iterations} iterations; "
          f"{EIGENVALUE_NAMES[kind]} in [{pair.lower_bound!r}, {pair.value!r}]")
    print(f"field written to {base}.csv")
    return EXIT_OK


def cmd_torsion(args) -> int:
    def solve(disc):
        sol = solve_torsion(disc)
        # free the factorization before the rigidity's per-triangle arrays
        del disc
        return sol.v, (sol.T, *torsional_rigidity(sol.v))

    (T, t_energy, t_integral), base = _solve_field(args, solve, "torsion", "v")
    print(f"torsional rigidity (s={args.s:g}): {T!r}")
    print(f"energy/integral mismatch: {abs(t_energy - t_integral) / t_integral:.3e}")
    print(f"field written to {base}.csv")
    return EXIT_OK


def cmd_symmetry_check(args) -> int:
    d = AnnularDomain(args.R0, args.R1, args.s)
    exclusion = exclusion_radius(args.exclusion, d.R1)
    check_ring_counts(args.ring_samples, args.rings)
    sol = solve_eigenproblem(discretize(d, _resolution(args)), ProblemKind.ND, args.tol)
    report = geometry_report(sol.u, exclusion=exclusion)
    rings = sample_rings(sol.u, m=args.ring_samples, n_rings=args.rings)
    star = foliated_schwarz(rings)
    dev_star = deviation(rings, star)
    dev_pol = worst_polarization_deviation(rings)
    payload = report.to_payload()
    payload["rearrangement_deviation"] = dev_star
    payload["worst_polarization_deviation"] = dev_pol
    _ensure_outdir(args)
    path = os.path.join(args.out_dir, f"symmetry_s{args.s:g}.json")
    write_json(path, payload)
    print(f"geometry checks: {'pass' if report.all_passed else 'FAIL'}")
    print(f"rearrangement deviation: {dev_star:.4e}")
    print(f"worst polarization deviation: {dev_pol:.4e}")
    print(f"report written to {path}")
    return EXIT_OK if report.all_passed else EXIT_ASSERTIONS


def cmd_shape_derivative(args) -> int:
    d = AnnularDomain(args.R0, args.R1, args.s)
    h = default_fd_step(d) if args.fd_step is None else args.fd_step
    check_fd_step(d, h)
    res = _resolution(args)
    sol = solve_eigenproblem(discretize(d, res), ProblemKind.ND, args.tol)
    trace = dirichlet_normal_derivative(sol.u)
    had = hadamard_tau_prime(trace)
    halfb = half_boundary_tau_prime(trace, d)
    fd = finite_difference_tau_prime(d, h, res, tol=args.tol, center=sol.value)
    print(f"eigenvalue:        {sol.value!r}")
    print(f"boundary integral: {had!r}")
    print(f"half boundary:     {halfb!r}")
    print(f"finite difference: {fd!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    records = sweep_translation(
        args.R0, args.R1, args.s_grid, resolution=_resolution(args),
        fd_step=args.fd_step, tol=args.tol, threads=args.threads,
    )
    _ensure_outdir(args)
    path = os.path.join(args.out_dir, "sweep.csv")
    write_sweep_csv(records, path)
    if args.svg:
        write_sweep_svg(records, os.path.join(args.out_dir, "sweep.svg"))
    print(f"{len(records)} records written to {path}")
    violations = monotonicity_violations(records)
    for msg in violations:
        print(f"assertion failed: {msg}", file=sys.stderr)
    return EXIT_OK if not violations else EXIT_ASSERTIONS


def cmd_dn_analyze(args) -> int:
    res = _resolution(args)
    if args.bracket and not args.bracket_width > 0.0:
        raise ValueError(f"bracket width must be positive, got {args.bracket_width}")
    payload = {"R1": args.R1, "ratios": []}
    inconclusive = False
    for ratio in args.ratios:
        a = analyze_dn_ratio(
            args.R1, ratio, s_points=args.s_points, resolution=res, tol=args.tol
        )
        print(f"ratio {a.ratio:g}: {a.classification}"
              + (f", s0 = {a.s0:.4f}" if a.s0 is not None else ""))
        payload["ratios"].append({
            "ratio": a.ratio,
            "classification": a.classification,
            "s0": a.s0,
            "s": [float(x) for x in a.s_points],
            "nu1": [float(x) for x in a.nu_values],
        })
        inconclusive |= a.classification == "inconclusive"
    if args.bracket:
        lo, hi, _ = bracket_critical_ratio(
            args.R1, min(args.ratios), max(args.ratios),
            width=args.bracket_width, s_points=args.s_points, resolution=res,
            tol=args.tol,
        )
        payload["critical_ratio_bracket"] = [lo, hi]
        print(f"critical ratio bracket: [{lo:.4f}, {hi:.4f}]")
    _ensure_outdir(args)
    path = os.path.join(args.out_dir, "dn_analysis.json")
    write_json(path, payload)
    print(f"analysis written to {path}")
    return EXIT_OK if not inconclusive else EXIT_ASSERTIONS


def cmd_converge(args) -> int:
    check_levels(args.levels)
    d = AnnularDomain(args.R0, args.R1, args.s)
    kind = ProblemKind.parse(args.kind)
    reference = None
    if args.s == 0.0:
        reference = concentric_eigenvalue(kind, args.R0, args.R1)
        print(f"radial reference: {reference!r}")
    rows = convergence_study(
        d, kind, _resolution(args), levels=args.levels, tol=args.tol,
        reference=reference,
    )
    print("h        n_theta  n_rad   value             order")
    for r in rows:
        order = f"{r.observed_order:.3f}" if r.observed_order is not None else "-"
        print(f"{r.h:<8g} {r.res.n_theta:<8d} {r.res.n_rad:<7d} "
              f"{r.value:<17.12f} {order}")
    print(f"extrapolated limit: {richardson_limit(rows)!r}")
    if not all(a.value >= b.value for a, b in zip(rows, rows[1:])):
        print("warning: eigenvalues did not decrease monotonically under refinement",
              file=sys.stderr)
    return EXIT_OK


def _config_value(parser, action, key, value):
    """A config file's ``value`` for the flag of ``action``, parsed as the
    flag parses its text: argparse converts only string defaults, so a value
    that skipped this would skip the flag's checks too."""
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise ValueError(f"config key {key}: expected true or false, "
                             f"got {json.dumps(value)}")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return parser._get_values(action, [text])
    except argparse.ArgumentError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def main(argv=None) -> int:
    ap = build_parser()
    # config file preloads defaults; explicit flags override
    try:
        pre, _ = ap.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    if getattr(pre, "config", None):
        try:
            with open(pre.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        # keys are checked against the flags of the chosen subcommand
        sp = ap._subparsers._group_actions[0].choices[pre.command]
        actions = {a.dest: a for a in ap._actions + sp._actions}
        bad = set(cfg) - set(actions)
        if bad:
            print(f"error: unknown config keys: {sorted(bad)}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            cfg = {k: _config_value(sp, actions[k], k, v) for k, v in cfg.items()}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        sp.set_defaults(**cfg)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    # an offset of -0.0, by flag or config, is +0.0, so that it names its
    # files _s0 as 0 does
    if getattr(args, "s", None) == 0:
        args.s = 0.0
    try:
        return args.func(args)
    # a LinAlgError is a ValueError: catch it before the validation errors
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_POSITIVE_DEFINITE
    except (DomainError, MeshQualityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED


if __name__ == "__main__":
    sys.exit(main())
