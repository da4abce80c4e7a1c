import numpy as np
import pytest

from annulab.fem import ProblemKind
from annulab.radial_oracle import (
    concentric_eigenvalue,
    concentric_eigenvalue_raw,
    concentric_torsion,
)

# frozen regression values (extrapolated oracle, n = 2000); the mixed and
# Dirichlet values also agree with the transcendental characteristic roots
# to ~3e-10 relative
FROZEN = {
    (ProblemKind.ND, 1.0, 2.0): 1.8517150929844615,
    (ProblemKind.DN, 1.0, 2.0): 3.218475126999357,
    (ProblemKind.DD, 1.0, 2.0): 9.753322125304237,
    (ProblemKind.ND, 1.0, 5.0): 0.07972620551942013,
    (ProblemKind.DN, 1.0, 5.0): 0.2649434981206265,
    (ProblemKind.DD, 1.0, 5.0): 0.582460908655612,
}


@pytest.mark.parametrize("key", sorted(FROZEN, key=str))
def test_frozen_values(key):
    kind, r0, r1 = key
    assert concentric_eigenvalue(kind, r0, r1) == pytest.approx(
        FROZEN[key], rel=1e-8
    )


def test_second_order_self_convergence():
    # raw grid values approach the limit at second order
    vals = {n: concentric_eigenvalue_raw(ProblemKind.ND, 1.0, 2.0, n)
            for n in (400, 800, 1600)}
    r = (vals[400] - vals[800]) / (vals[800] - vals[1600])
    assert r == pytest.approx(4.0, rel=0.05)


def test_extrapolation_stable():
    a = concentric_eigenvalue(ProblemKind.ND, 1.0, 2.0, n=2000)
    b = concentric_eigenvalue(ProblemKind.ND, 1.0, 2.0, n=4000)
    assert abs(a - b) <= 1e-8 * a


def test_kind_ordering():
    for r0, r1 in ((1.0, 2.0), (1.0, 5.0), (0.5, 3.0)):
        nd = concentric_eigenvalue(ProblemKind.ND, r0, r1)
        dd = concentric_eigenvalue(ProblemKind.DD, r0, r1)
        assert nd < dd


def test_scaling_invariance():
    base = concentric_eigenvalue(ProblemKind.ND, 1.0, 2.0)
    scaled = concentric_eigenvalue(ProblemKind.ND, 3.0, 6.0)
    assert scaled == pytest.approx(base / 9.0, rel=1e-8)


def test_validation():
    with pytest.raises(ValueError):
        concentric_eigenvalue(ProblemKind.ND, 1.0, 2.0, n=50)
    with pytest.raises(ValueError):
        concentric_eigenvalue(ProblemKind.ND, 2.0, 1.0)


def test_torsion_profile_bcs_and_ode():
    profile, t0 = concentric_torsion(1.0, 2.0)
    assert profile(1.0) == pytest.approx(0.0, abs=1e-15)
    # v'(R1) = 0: central difference at the endpoint
    dv = (profile(2.0 + 1e-5) - profile(2.0 - 1e-5)) / 2e-5
    assert dv == pytest.approx(0.0, abs=1e-8)
    # -(v'' + v'/r) = 1 at sample radii; h large enough to avoid the
    # cancellation floor of the second difference
    h = 1e-4
    for r in np.linspace(1.1, 1.9, 9):
        d2 = (profile(r + h) - 2 * profile(r) + profile(r - h)) / h**2
        d1 = (profile(r + h) - profile(r - h)) / (2 * h)
        assert -(d2 + d1 / r) == pytest.approx(1.0, rel=1e-4)


def test_torsion_rigidity_frozen():
    _, t0 = concentric_torsion(1.0, 2.0)
    assert t0 == pytest.approx(4.4616190263709194, rel=1e-10)
    _, t5 = concentric_torsion(1.0, 5.0)
    assert t5 == pytest.approx(882.6284065630231, rel=1e-10)


@pytest.mark.parametrize("ratio", [0.002, 0.2, 0.5, 0.9, 0.98])
def test_torsion_rigidity_matches_50_digit_quadrature(ratio):
    mpmath = pytest.importorskip("mpmath")
    R1 = 5.0
    R0 = ratio * R1
    with mpmath.workdps(50):
        r0, r1 = mpmath.mpf(R0), mpmath.mpf(R1)
        want = 2 * mpmath.pi * mpmath.quad(
            lambda r: ((r0**2 - r**2) / 4 + r1**2 / 2 * mpmath.log(r / r0)) * r, [r0, r1]
        )
        _, got = concentric_torsion(R0, R1)
        assert abs((got - want) / want) <= 1e-12
