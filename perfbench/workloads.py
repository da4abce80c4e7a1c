"""Seeded workload definitions and their output checks.

Each workload is one ``annulab`` CLI invocation.  Seed 0 gives the canonical
argv; any other seed redraws exactly one parameter inside a fixed range and
leaves everything else alone.  The program only ever receives the resulting
argv plus ``--out-dir``.  No workload passes ``--linear-solver``,
``--threads`` or ``--tol``, so the shipped defaults are what gets measured.

The checks read the files the CLI wrote and test them against the paper's
claims, with the bounds of the acceptance criteria.  They import nothing from
``annulab`` except ``radial_oracle``, the independent 1D reference, which
runs outside the timed call.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# shared by every workload: the 128x32 baseline resolution of the paper's
# sweeps (fine-field overrides n-theta / n-rad)
_RES = ["--n-theta", "128", "--n-rad", "32", "--grading", "1.5"]

SWEEP_RECORDS = 5
GAP_BOUND = 0.05  # criterion 3: Hadamard vs finite differences
ORACLE_BOUND = 5e-3  # criterion 1: s = 0 against the radial solver
HALF_RTOL = 1e-10  # exact regrouping of the boundary integral
DEVIATION_BOUND = 0.02  # rearrangement deviations


@dataclass(frozen=True)
class Workload:
    name: str
    param: str  # the one parameter a non-zero seed redraws
    canonical: float
    lo: float
    hi: float
    argv: Callable[[float], list]
    check: Callable[[str, float], "CheckResult"]


@dataclass
class CheckResult:
    ok: bool
    problems: list
    values: dict  # accuracy figures worth reporting next to the timings


def draw(seed: int, canonical: float, lo: float, hi: float) -> float:
    """Parameter value for ``seed``: canonical at 0, else uniform in [lo, hi]."""
    if seed == 0:
        return canonical
    rng = random.Random(f"annulab-perfbench-{seed}")
    return round(lo + (hi - lo) * rng.random(), 3)


def _result(problems, values=None) -> CheckResult:
    return CheckResult(not problems, problems, values or {})


def _fmt(x: float) -> str:
    # drawn values carry at most three decimals, which %g keeps exactly
    return f"{x:g}"


# -- sweep ------------------------------------------------------------------


def _sweep_argv(step: float) -> list:
    grid = f"0:{_fmt(step)}:{_fmt(round((SWEEP_RECORDS - 1) * step, 12))}"
    return ["sweep", "--R0", "1", "--R1", "5", "--s-grid", grid, *_RES]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sweep(out_dir: str, step: float) -> CheckResult:
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    p = []
    if len(rows) != SWEEP_RECORDS:
        return _result([f"{len(rows)} sweep rows, expected {SWEEP_RECORDS}"])
    f = {k: [float(r[k]) for r in rows] for k in rows[0] if k != "checks_pass"}
    for a, b in zip(range(SWEEP_RECORDS), range(1, SWEEP_RECORDS)):
        if not f["tau1"][b] < f["tau1"][a]:
            p.append(f"tau1 not decreasing at s={f['s'][b]}")
        if not f["T"][b] > f["T"][a]:
            p.append(f"T not increasing at s={f['s'][b]}")
    gap = 0.0
    for i, r in enumerate(rows):
        s = f["s"][i]
        if not f["tau1"][i] < f["lambda1"][i]:
            p.append(f"tau1 >= lambda1 at s={s}")
        if r["checks_pass"] != "1":
            p.append(f"checks_pass is {r['checks_pass']} at s={s}")
        had, half = f["dtau_hadamard"][i], f["dtau_half"][i]
        if not abs(half - had) <= HALF_RTOL * abs(had):
            p.append(f"dtau_half differs from dtau_hadamard at s={s}")
        if s > 0.0:
            if not had < 0.0:
                p.append(f"dtau_hadamard >= 0 at s={s}")
            if not f["dT_boundary"][i] > 0.0:
                p.append(f"dT_boundary <= 0 at s={s}")
            fd = f["dtau_fd"][i]
            gap = max(gap, abs(had - fd) / abs(fd))
    if f["s"][0] != 0.0:
        return _result(p + ["sweep does not start at s=0"])
    from annulab.fem import ProblemKind
    from annulab.radial_oracle import concentric_eigenvalue

    ref = concentric_eigenvalue(ProblemKind.ND, 1.0, 5.0)
    err = abs(f["tau1"][0] - ref) / ref
    if not gap <= GAP_BOUND:
        p.append(f"dtau_gap_rel {gap:.4g} > {GAP_BOUND}")
    if not err <= ORACLE_BOUND:
        p.append(f"tau1_s0_err_rel {err:.4g} > {ORACLE_BOUND}")
    return _result(p, {"dtau_gap_rel": gap, "tau1_s0_err_rel": err})


# -- dn-family --------------------------------------------------------------


def _dn_argv(r1: float) -> list:
    return ["dn-analyze", "--R1", _fmt(r1), "--ratios", "0.1,0.6",
            "--s-points", "12", *_RES]


def _check_dn(out_dir: str, r1: float) -> CheckResult:
    with open(os.path.join(out_dir, "dn_analysis.json")) as fh:
        ratios = {r["ratio"]: r for r in json.load(fh)["ratios"]}
    p = []
    low, high = ratios.get(0.1), ratios.get(0.6)
    if low is None or high is None:
        return _result(["ratios 0.1 and 0.6 missing from dn_analysis.json"])
    if low["classification"] != "interior_minimum":
        p.append(f"ratio 0.1 classified {low['classification']}")
    elif not 0.0 < low["s0"] <= 0.9 * r1:
        p.append(f"ratio 0.1 minimizer s0={low['s0']} outside (0, 0.9 R1]")
    if high["classification"] != "monotone_decreasing":
        p.append(f"ratio 0.6 classified {high['classification']}")
    nu = high["nu1"]
    if not all(b < a for a, b in zip(nu, nu[1:])):
        p.append("ratio 0.6: nu1 not strictly decreasing")
    return _result(p)


# -- fine-field -------------------------------------------------------------

FINE_N_THETA, FINE_N_RAD = 512, 128


def _fine_argv(s: float) -> list:
    return ["solve", "--R0", "1", "--R1", "5", "--s", _fmt(s),
            "--n-theta", str(FINE_N_THETA), "--n-rad", str(FINE_N_RAD),
            "--grading", "1.5", "--kind", "nd", "--vtk"]


def _field_base(out_dir: str, s: float) -> str:
    # the CLI names field files eig_<kind>_s<offset:g>
    return os.path.join(out_dir, f"eig_nd_s{s:g}")


def _check_fine(out_dir: str, s: float) -> CheckResult:
    base = _field_base(out_dir, s)
    rows = _read_csv(base + ".csv")
    p = []
    # the structured mesh has n_rad + 1 vertices on each of n_theta rays
    expected = FINE_N_THETA * (FINE_N_RAD + 1)
    if len(rows) != expected:
        p.append(f"{len(rows)} field rows, expected {expected} vertices")
    u = [float(r["u"]) for r in rows]
    if min(u) < 0.0:
        p.append(f"negative eigenfunction value {min(u)}")
    k = max(range(len(u)), key=u.__getitem__)
    x, y = float(rows[k]["x"]), float(rows[k]["y"])
    if not (abs(x + 5.0) <= 1e-9 and abs(y) <= 1e-9):
        p.append(f"peak at ({x}, {y}), expected the vertex (-R1, 0)")
    vtk = base + ".vtk"
    if not os.path.isfile(vtk) or os.path.getsize(vtk) == 0:
        p.append("VTK file missing")
    else:
        with open(vtk) as fh:
            head = [next(fh) for _ in range(5)]
        if head[4].split()[:2] != ["POINTS", str(expected)]:
            p.append(f"VTK header {head[4].strip()!r} does not list {expected} points")
    return _result(p)


# -- rearrange --------------------------------------------------------------


def _rearrange_argv(s: float) -> list:
    return ["symmetry-check", "--R0", "1", "--R1", "5", "--s", _fmt(s), *_RES,
            "--rings", "256", "--ring-samples", "1024"]


def _check_rearrange(out_dir: str, s: float) -> CheckResult:
    with open(os.path.join(out_dir, f"symmetry_s{s:g}.json")) as fh:
        rep = json.load(fh)
    p = []
    if rep.get("all_passed") is not True:
        failed = sorted(k for k, c in rep["checks"].items() if not c["pass"])
        p.append(f"geometry checks failed: {failed}")
    dev = {k: rep[k] for k in ("rearrangement_deviation",
                               "worst_polarization_deviation")}
    for k, v in dev.items():
        if not v <= DEVIATION_BOUND:
            p.append(f"{k} {v:.4g} > {DEVIATION_BOUND}")
    return _result(p, dev)


# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "step", 0.9, 0.8, 0.9, _sweep_argv, _check_sweep),
        Workload("dn-family", "R1", 5.0, 4.0, 6.0, _dn_argv, _check_dn),
        Workload("fine-field", "s", 2.0, 1.5, 2.5, _fine_argv, _check_fine),
        Workload("rearrange", "s", 2.0, 1.5, 2.5, _rearrange_argv, _check_rearrange),
    )
}


def resolve(name: str, seed: int) -> tuple[list, float]:
    """CLI argv (without ``--out-dir``) and the drawn parameter for a seed."""
    w = WORKLOADS[name]
    value = draw(seed, w.canonical, w.lo, w.hi)
    return w.argv(value), value


def check(name: str, out_dir: str, value: float) -> CheckResult:
    try:
        return WORKLOADS[name].check(out_dir, value)
    except (OSError, ValueError, KeyError, TypeError, StopIteration, IndexError) as exc:
        return _result([f"unreadable output: {type(exc).__name__}: {exc}"])


def directory_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total

