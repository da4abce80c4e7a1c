import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

from annulab.fem import ProblemKind
from annulab.radial_oracle import (
    _radial_eigenvalue,
    concentric_eigenvalue,
    concentric_torsion,
)

# frozen regression values, from an earlier second-order finite-difference
# oracle; they agree with the characteristic roots to ~3e-10 relative
FROZEN = {
    (ProblemKind.ND, 1.0, 2.0): 1.8517150929844615,
    (ProblemKind.DN, 1.0, 2.0): 3.218475126999357,
    (ProblemKind.DD, 1.0, 2.0): 9.753322125304237,
    (ProblemKind.ND, 1.0, 5.0): 0.07972620551942013,
    (ProblemKind.DN, 1.0, 5.0): 0.2649434981206265,
    (ProblemKind.DD, 1.0, 5.0): 0.582460908655612,
}


def characteristic(kind, R0, R1):
    """Bessel cross product whose positive roots k give the eigenvalues k^2.

    The radial eigenfunction is ``a J0(k r) + b Y0(k r)``; ``J0' = -J1`` and
    ``Y0' = -Y1``, so a Neumann circle pairs with J1 and Y1.
    """
    j0, j1, y0, y1 = special.j0, special.j1, special.y0, special.y1
    if kind is ProblemKind.ND:
        return lambda k: j1(k * R1) * y0(k * R0) - y1(k * R1) * j0(k * R0)
    if kind is ProblemKind.DN:
        return lambda k: j0(k * R1) * y1(k * R0) - y0(k * R1) * j1(k * R0)
    return lambda k: j0(k * R0) * y0(k * R1) - j0(k * R1) * y0(k * R0)


def first_eigenvalue(kind, R0, R1):
    """Square of the first sign change of the cross product, refined by Brent."""
    f = characteristic(kind, R0, R1)
    k = np.geomspace(1e-4 / R1, 4.0 * math.pi / (R1 - R0), 8000)
    i = np.flatnonzero(np.diff(np.sign(f(k))))[0]
    root = brentq(f, k[i], k[i + 1], xtol=1e-300, rtol=1e-15)
    return root * root


@pytest.mark.parametrize(
    "ratio, bound",
    [(0.1, 1e-10), (0.2, 1e-10), (0.5, 1e-10), (0.8, 1e-10), (0.9, 1e-10),
     (0.98, 1e-10), (0.998, 1e-10), (0.01, 1e-8), (0.002, 1e-7)],
)
def test_matches_the_bessel_cross_product_roots(ratio, bound):
    for R1 in (1.0, 2.0, 3.0, 5.0, 6.0, 20.0):
        for kind in ProblemKind:
            want = first_eigenvalue(kind, ratio * R1, R1)
            got = concentric_eigenvalue(kind, ratio * R1, R1)
            assert abs(got / want - 1.0) <= bound, (kind, R1)


@pytest.mark.parametrize("ratio", [0.17, 0.5, 0.9, 0.998])
def test_point_count_is_converged(ratio):
    for kind in ProblemKind:
        coarse = _radial_eigenvalue(kind, ratio * 5.0, 5.0, 24)
        fine = _radial_eigenvalue(kind, ratio * 5.0, 5.0, 40)
        assert abs(coarse / fine - 1.0) <= 1e-10, kind


@pytest.mark.parametrize("ratio", [0.8, 0.998])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_no_numeric_warning(kind, ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        concentric_eigenvalue(kind, ratio * 5.0, 5.0)


@pytest.mark.parametrize("key", sorted(FROZEN, key=str))
def test_frozen_values(key):
    kind, r0, r1 = key
    assert concentric_eigenvalue(kind, r0, r1) == pytest.approx(
        FROZEN[key], rel=1e-8
    )


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
        concentric_eigenvalue(ProblemKind.ND, 2.0, 1.0)


@pytest.mark.parametrize(
    "R0, R1", [(1.0, math.inf), (1.0, math.nan), (math.nan, 5.0), (0.0, 5.0)]
)
def test_oracles_reject_radii_outside_zero_to_infinity(R0, R1):
    with pytest.raises(ValueError, match="0 < R0 < R1 < inf"):
        concentric_eigenvalue(ProblemKind.ND, R0, R1)
    with pytest.raises(ValueError, match="0 < R0 < R1 < inf"):
        concentric_torsion(R0, R1)


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
