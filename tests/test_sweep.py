import dataclasses
import math

import numpy as np
import pytest

from annulab import sweep as sweep_mod
from annulab.fem import ProblemKind
from annulab.geometry import AnnularDomain
from annulab.mesh import Mesh, Resolution
from annulab.radial_oracle import concentric_eigenvalue
from annulab.sweep import (
    SWEEP_COLUMNS,
    _solve_record,
    analyze_dn_ratio,
    bracket_critical_ratio,
    convergence_study,
    monotonicity_violations,
    richardson_limit,
    sweep_translation,
    write_sweep_csv,
    write_sweep_svg,
)

QUICK = Resolution(128, 32, 1.5)


@pytest.fixture(scope="module")
def short_sweep():
    return sweep_translation(
        1.0, 5.0, [0.0, 1.2, 2.4, 3.4], resolution=QUICK
    )


def test_sweep_monotone_trends(short_sweep):
    assert monotonicity_violations(short_sweep) == []
    taus = [r.tau1 for r in short_sweep]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    ts = [r.T for r in short_sweep]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_sweep_record_identities(short_sweep):
    for r in short_sweep:
        assert r.tau1 < r.lambda1
        scale = max(abs(r.dtau_hadamard), abs(r.dtau_half), 1e-12)
        assert abs(r.dtau_hadamard - r.dtau_half) <= 1e-9 * scale
        assert r.checks_pass
        assert all(math.isfinite(x) for x in r.row()[:-1])


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_translation(1.0, 5.0, [0.0, 0.0], resolution=QUICK)
    with pytest.raises(ValueError):
        sweep_translation(1.0, 5.0, [0.0, 4.5], resolution=QUICK)


@pytest.mark.parametrize("fd_step", [0.0, -1.0, float("nan")])
def test_sweep_rejects_bad_fd_step_before_solving(monkeypatch, fd_step):
    def fail(*args, **kwargs):
        raise AssertionError("solved before validating fd_step")

    monkeypatch.setattr(sweep_mod, "discretize", fail)
    with pytest.raises(ValueError, match="fd_step must be positive"):
        sweep_translation(1.0, 5.0, [0.0, 1.0], resolution=QUICK, fd_step=fd_step,
                          threads=1)


# each column's power of the length scale c
SCALE_POWERS = {"tau1": -2, "lambda1": -2, "nu1": -2, "T": 4, "dtau_hadamard": -3,
                "dtau_half": -3, "dtau_fd": -3, "dT_boundary": 3}


@pytest.mark.parametrize("c", [2.0**-10, 2.0**10])
def test_sweep_is_scale_free(c):
    # the default finite-difference step scales with the annulus, so the
    # sweep on (c, 5c) is the (1, 5) sweep with every column rescaled
    res = Resolution(32, 8, 1.5)
    grid = [0.0, 0.9, 1.8, 2.7, 3.6]
    base = sweep_translation(1.0, 5.0, grid, resolution=res, threads=1)
    scaled = sweep_translation(c, 5.0 * c, [c * s for s in grid], resolution=res,
                               threads=1)
    for a, b in zip(base, scaled):
        assert b.s == c * a.s and b.checks_pass == a.checks_pass
        for name, p in SCALE_POWERS.items():
            assert getattr(b, name) / c**p == pytest.approx(
                getattr(a, name), rel=1e-12, abs=0.0
            ), (a.s, name)


def test_sweep_threading_matches_serial():
    grid = [0.0, 0.5, 1.5]
    threaded = sweep_translation(1.0, 5.0, grid, resolution=Resolution(48, 8, 1.5),
                                 threads=2)
    serial = sweep_translation(1.0, 5.0, grid, resolution=Resolution(48, 8, 1.5),
                               threads=1)
    assert len(threaded) == len(serial) == len(grid)
    for a, b in zip(serial, threaded):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, float):
                assert np.float64(x).view(np.uint64) == np.float64(y).view(np.uint64), f.name
            elif f.compare:
                assert x == y, f.name


def test_sweep_csv_format(tmp_path, short_sweep):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(short_sweep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS) == (
        "s,tau1,lambda1,nu1,T,dtau_hadamard,dtau_half,dtau_fd,dT_boundary,checks_pass"
    )
    assert len(lines) == len(short_sweep) + 1
    first = lines[1].split(",")
    assert float(first[0]) == short_sweep[0].s
    assert first[-1] in ("0", "1")


def test_sweep_svg(tmp_path, short_sweep):
    path = tmp_path / "sweep.svg"
    write_sweep_svg(short_sweep, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 3


def test_convergence_study_against_oracle():
    d = AnnularDomain(1.0, 2.0, 0.0)
    ref = concentric_eigenvalue(ProblemKind.ND, 1.0, 2.0)
    rows = convergence_study(d, ProblemKind.ND, levels=3,
                             base=Resolution(32, 8, 1.0), reference=ref)
    assert rows[-1].observed_order == pytest.approx(2.0, abs=0.3)
    values = [r.value for r in rows]
    assert values[0] >= values[1] >= values[2] >= ref - 1e-10
    limit = richardson_limit(rows)
    assert limit == pytest.approx(ref, rel=2e-4)


def test_convergence_study_without_reference():
    d = AnnularDomain(1.0, 2.0, 0.4)
    rows = convergence_study(d, ProblemKind.ND, levels=3,
                             base=Resolution(32, 8, 1.0))
    assert rows[-1].observed_order == pytest.approx(2.0, abs=0.5)


def test_dn_monotone_ratio():
    a = analyze_dn_ratio(5.0, 0.6, s_points=12, resolution=QUICK)
    assert a.classification == "monotone_decreasing"
    assert a.s0 is None
    assert np.all(np.diff(a.nu_values) < 0)


def test_dn_interior_minimum_ratio():
    a = analyze_dn_ratio(5.0, 0.1, s_points=12, resolution=QUICK)
    assert a.classification == "interior_minimum"
    assert 0.0 < a.s0 <= 4.5


def test_dn_validation():
    with pytest.raises(ValueError):
        analyze_dn_ratio(5.0, 1.5, resolution=QUICK)
    with pytest.raises(ValueError):
        analyze_dn_ratio(5.0, 0.5, s_points=2, resolution=QUICK)
    with pytest.raises(ValueError):
        bracket_critical_ratio(5.0, 0.5, 0.6, s_points=12, resolution=QUICK)


def fake_classifier(monkeypatch, critical):
    """Replace the dn analysis by a free one with its crossover at
    ``critical``; returns the list of classified ratios."""
    seen = []

    def analyze(R1, ratio, s_points, resolution, tol):
        seen.append(ratio)
        if len(seen) > 200:
            raise AssertionError("the bisection does not terminate")
        shape = "interior_minimum" if ratio < critical else "monotone_decreasing"
        return sweep_mod.DNAnalysis(ratio, shape, None, np.zeros(0), np.zeros(0))

    monkeypatch.setattr(sweep_mod, "analyze_dn_ratio", analyze)
    return seen


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_bracket_rejects_a_width_that_is_not_positive(monkeypatch, width):
    seen = fake_classifier(monkeypatch, 0.13)
    with pytest.raises(ValueError, match="bracket width must be positive"):
        bracket_critical_ratio(5.0, 0.1, 0.6, width=width)
    assert seen == []


def test_bracket_stops_at_adjacent_doubles(monkeypatch):
    seen = fake_classifier(monkeypatch, 0.13)
    lo, hi, _ = bracket_critical_ratio(5.0, 0.1, 0.6, width=1e-300)
    assert lo < 0.13 <= hi
    assert np.nextafter(lo, hi) == hi
    # one classification per bit of the bracket, and the two endpoints
    assert len(seen) <= 2 + 60


def test_record_locates_each_reflected_point_once(monkeypatch):
    located = []
    locate = Mesh.locate

    def counting(self, pts):
        located.append(len(pts))
        return locate(self, pts)

    monkeypatch.setattr(Mesh, "locate", counting)
    rec = _solve_record(1.0, 5.0, 2.0, QUICK, 0.05, 1e-9, False, None)
    assert rec.checks_pass
    # the nd and torsion reports share one location of the reflected points
    assert sum(located) == 22386
