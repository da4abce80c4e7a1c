"""Acceptance suite: one test per criterion, shared heavy solves.

The translation sweep at the baseline resolution (256 x 64, grading 1.5)
feeds most criteria; it runs once as a session fixture with fields retained.
Each test registers a one-line pass/fail record printed in the terminal
summary.
"""

import subprocess
import sys

import numpy as np
import pytest

from conftest import Timer, record_acceptance

from annulab.checks import geometry_report
from annulab.fem import ProblemKind
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution
from annulab.radial_oracle import concentric_eigenvalue, concentric_torsion
from annulab.shape import reflected_neumann_margin
from annulab.spectral import discretize, solve_eigenproblem
from annulab.sweep import analyze_dn_ratio, bracket_critical_ratio, convergence_study, sweep_translation
from annulab.symmetrize import deviation, foliated_schwarz, polarize, sample_rings, star_polarizers
from annulab.torsion import finite_difference_rigidity_prime, solve_torsion, torsional_rigidity

R0, R1 = 1.0, 5.0
BASE = Resolution(256, 64, 1.5)
S_GRID = [round(0.4 * k, 12) for k in range(10)]  # 0, 0.4, ..., 3.6
EXCLUSION = 0.05 * R1
RING_M, RING_N = 256, 64


@pytest.fixture(scope="session")
def sweep_data():
    with Timer() as t:
        records = sweep_translation(
            R0, R1, S_GRID, resolution=BASE, fd_step=0.05, tol=1e-9,
            keep_fields=True, exclusion=EXCLUSION,
        )
    return records, t.seconds


@pytest.fixture(scope="session")
def ring_samplings(sweep_data):
    records, _ = sweep_data
    return {r.s: sample_rings(r.u, m=RING_M, n_rings=RING_N, center="origin")
            for r in records}


def test_criterion_1_concentric_validation():
    ok = True
    with Timer() as t:
        for r1 in (2.0, 5.0):
            for kind in ProblemKind:
                oracle = concentric_eigenvalue(kind, R0, r1)
                rows = convergence_study(
                    AnnularDomain(R0, r1, 0.0), kind, levels=3,
                    base=Resolution(64, 16, BASE.grading), tol=1e-10,
                    reference=oracle,
                )
                rel = abs(rows[-1].value - oracle) / oracle
                order = rows[-1].observed_order
                ok &= rel <= 5e-3 and 1.7 <= order <= 2.3
                assert rel <= 5e-3, (r1, kind, rel)
                assert 1.7 <= order <= 2.3, (r1, kind, order)
    ok &= t.seconds <= 60.0
    record_acceptance(1, "concentric eigenvalues match the radial solver "
                         "(<=0.5%, order 2)", ok, t.seconds)
    assert t.seconds <= 60.0, f"criterion 1 took {t.seconds:.1f}s"


def test_criterion_2_eigenvalue_decreasing(sweep_data):
    records, seconds = sweep_data
    taus = [r.tau1 for r in records]
    assert all(b < a for a, b in zip(taus, taus[1:])), taus
    for r in records:
        if r.s > 0:
            assert r.dtau_hadamard < 0.0, r.s
    bound = 1e-3 * records[0].tau1 / R1
    assert abs(records[0].dtau_hadamard) <= bound
    assert seconds <= 300.0, f"sweep took {seconds:.1f}s"
    record_acceptance(2, "first mixed eigenvalue strictly decreasing, "
                         "derivative negative, zero slope at s=0", True, seconds)


def test_criterion_3_derivative_cross_validation(sweep_data):
    records, _ = sweep_data
    for r in records:
        if 0.0 < r.s < S_GRID[-1]:
            rel = abs(r.dtau_hadamard - r.dtau_fd) / abs(r.dtau_fd)
            assert rel <= 0.05, (r.s, rel)
        scale = max(abs(r.dtau_hadamard), abs(r.dtau_half))
        assert abs(r.dtau_hadamard - r.dtau_half) <= 1e-10 * scale, r.s
    record_acceptance(3, "boundary integral vs finite differences <=5%, "
                         "half-boundary form identical to 1e-10", True)


def test_criterion_4_strict_ordering(sweep_data):
    records, _ = sweep_data
    for r in records:
        assert r.tau1 < r.lambda1, r.s
    record_acceptance(4, "mixed eigenvalue strictly below Dirichlet at every s",
                      True)


def test_criterion_5_geometry_suite(sweep_data, ring_samplings):
    records, _ = sweep_data
    for r in records:
        rep = geometry_report(r.u, exclusion=EXCLUSION)
        assert rep.all_passed, (r.s, [n for n, c in rep.checks.items()
                                      if not c.passed])
    # rearrangement deviation at baseline, and under one refinement at s = 2
    for r in records:
        rings = ring_samplings[r.s]
        assert deviation(rings, foliated_schwarz(rings)) <= 0.02, r.s
    coarse = solve_eigenproblem(
        discretize(AnnularDomain(R0, R1, 2.0), Resolution(128, 32, BASE.grading)),
        ProblemKind.ND,
    )
    rings_c = sample_rings(coarse.u, m=RING_M, n_rings=RING_N)
    dev_c = deviation(rings_c, foliated_schwarz(rings_c))
    rings_f = ring_samplings[2.0]
    dev_f = deviation(rings_f, foliated_schwarz(rings_f))
    assert dev_f <= dev_c + 1e-12, (dev_c, dev_f)
    # bit-level equimeasurability of both rearrangements
    rings = ring_samplings[2.0]
    star = foliated_schwarz(rings)
    pol = star_polarizers(RING_M)[RING_M // 3]
    polarized = polarize(rings, pol)
    for k in range(RING_N):
        assert np.array_equal(np.sort(star.values[k]), np.sort(rings.values[k]))
        assert np.array_equal(np.sort(polarized.values[k]),
                              np.sort(rings.values[k]))
    record_acceptance(5, "geometry checks pass at every s; rearrangement "
                         "deviation <=2% and decreasing; equimeasurability "
                         "exact", True)


def test_criterion_6_polarization_characterization(ring_samplings):
    pols = star_polarizers(RING_M)
    for s, rings in ring_samplings.items():
        star = foliated_schwarz(rings)
        for pol in pols:
            assert np.array_equal(polarize(star, pol).values, star.values), (
                s, pol.h)
        worst = max(deviation(rings, polarize(rings, pol)) for pol in pols)
        assert worst <= 0.02, (s, worst)
    record_acceptance(6, "rearranged field is a fixed point of every "
                         "grid-aligned polarization; eigenfunction "
                         "polarization deviation below bound", True)


def test_criterion_7_torsion(sweep_data):
    records, _ = sweep_data
    with Timer() as t:
        # discrete energy/integral identity at every s
        for r in records:
            t_energy, t_integral = torsional_rigidity(r.v)
            assert abs(t_energy - t_integral) <= 1e-10 * t_integral, r.s
        # concentric profile and rigidity against the closed form
        conc = solve_torsion(discretize(AnnularDomain(R0, 2.0, 0.0), BASE))
        profile, t0_ref = concentric_torsion(R0, 2.0)
        rr = np.clip(np.hypot(*conc.mesh.vertices.T), R0, 2.0)
        err = np.abs(conc.v.values - profile(rr)).max()
        assert err <= 5e-3 * profile(2.0)
        _, t0_num = torsional_rigidity(conc.v)
        assert t0_num == pytest.approx(t0_ref, rel=5e-3)
        # monotone rigidity and derivative signs along the sweep
        ts = [r.T for r in records]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for r in records:
            if r.s > 0:
                assert r.dT_boundary > 0.0, r.s
        assert abs(records[0].dT_boundary) <= 1e-3 * records[0].T / R1
        # finite-difference agreement at s = 2
        fd = finite_difference_rigidity_prime(
            AnnularDomain(R0, R1, 2.0), 0.05, BASE
        )
        rec2 = next(r for r in records if r.s == 2.0)
        assert rec2.dT_boundary == pytest.approx(fd, rel=0.05)
        # monotonicity checks (a)-(c) for the torsion function
        for r in records:
            rep = geometry_report(r.v, exclusion=EXCLUSION)
            assert rep.passed(("affine_radial", "axial_cap", "outer_axial")), r.s
    record_acceptance(7, "torsion identity to 1e-10, closed-form match, "
                         "rigidity increasing with positive derivative",
                      True, t.seconds)


def test_criterion_8_dn_family():
    res = Resolution(128, 32, BASE.grading)
    fine = Resolution(256, 64, BASE.grading)
    with Timer() as t:
        a01 = analyze_dn_ratio(R1, 0.1, s_points=12, resolution=res)
        assert a01.classification == "interior_minimum"
        assert 0.0 < a01.s0 <= 4.5
        a01f = analyze_dn_ratio(R1, 0.1, s_points=12, resolution=fine)
        assert a01f.classification == "interior_minimum"
        assert abs(a01f.s0 - a01.s0) <= 4.5 / 40.0
        a06 = analyze_dn_ratio(R1, 0.6, s_points=12, resolution=res)
        assert a06.classification == "monotone_decreasing"
        assert a06.s_points.size >= 12
        assert np.all(np.diff(a06.nu_values) < 0.0)
        a06f = analyze_dn_ratio(R1, 0.6, s_points=12, resolution=fine)
        assert a06f.classification == "monotone_decreasing"
        lo, hi, _ = bracket_critical_ratio(R1, 0.1, 0.6, width=0.05,
                                           s_points=12, resolution=res)
        assert hi - lo <= 0.05
        lo_f = analyze_dn_ratio(R1, lo, s_points=12, resolution=fine)
        hi_f = analyze_dn_ratio(R1, hi, s_points=12, resolution=fine)
        assert lo_f.classification == "interior_minimum"
        assert hi_f.classification == "monotone_decreasing"
    assert t.seconds <= 900.0, f"criterion 8 took {t.seconds:.1f}s"
    record_acceptance(8, "outer-Dirichlet family: interior minimum at ratio "
                         "0.1, monotone at 0.6, stable critical-ratio bracket",
                      True, t.seconds)


def test_criterion_9_reflected_neumann(sweep_data):
    records, _ = sweep_data
    rec2 = next(r for r in records if r.s == 2.0)
    margin, ntested = reflected_neumann_margin(rec2.u, exclusion=EXCLUSION)
    assert ntested > 50
    assert margin > 0.0
    record_acceptance(9, "reflected outer-circle normal derivative positive "
                         "right of x1 = s", True)


def test_criterion_10_determinism(tmp_path):
    env_args = ["sweep", "--R0", "1", "--R1", "5", "--s-grid", "1:1:3",
                "--n-theta", "64", "--n-rad", "16", "--threads", "2"]
    sym_args = ["symmetry-check", "--R0", "1", "--R1", "5", "--s", "2",
                "--n-theta", "64", "--n-rad", "16", "--rings", "16",
                "--ring-samples", "64"]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cp = subprocess.run(
            [sys.executable, "-m", "annulab.cli"] + env_args
            + ["--out-dir", str(out)],
            capture_output=True,
        )
        assert cp.returncode == 0, cp.stderr
        cp = subprocess.run(
            [sys.executable, "-m", "annulab.cli"] + sym_args
            + ["--out-dir", str(out)],
            capture_output=True,
        )
        assert cp.returncode == 0, cp.stderr
        outputs.append(
            ((out / "sweep.csv").read_bytes(),
             (out / "symmetry_s2.json").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    record_acceptance(10, "repeated runs produce byte-identical CSV and JSON",
                      True)
