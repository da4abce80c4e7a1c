import math

import numpy as np
import pytest

from annulab.geometry import AnnularDomain, DomainError, reflect


def test_domain_validation():
    AnnularDomain(1.0, 5.0, 3.0)
    with pytest.raises(DomainError):
        AnnularDomain(1.0, 0.5)
    with pytest.raises(DomainError):
        AnnularDomain(0.0, 5.0)
    with pytest.raises(DomainError):
        AnnularDomain(1.0, 5.0, 4.0)
    with pytest.raises(DomainError):
        AnnularDomain(1.0, 5.0, -0.1)
    # the radius range is closed
    AnnularDomain(1e-50, 1e50)
    with pytest.raises(DomainError, match="1e-50 <= R0 and R1 <= 1e"):
        AnnularDomain(0.99e-50, 1.0)
    with pytest.raises(DomainError, match="1e-50 <= R0 and R1 <= 1e"):
        AnnularDomain(1.0, 1.01e50)


@pytest.mark.parametrize(
    "R0, R1, s",
    [(1.0, math.inf, 0.0), (1.0, math.inf, 2.0), (1.0, math.nan, 0.0),
     (math.nan, 5.0, 0.0), (1.0, 5.0, math.nan), (1.0, 1e308, 0.0)],
)
def test_domain_rejects_non_finite_parameters(R0, R1, s):
    # R1 = 1e308 is finite, but lies outside the radius range
    with pytest.raises(DomainError):
        AnnularDomain(R0, R1, s)


def test_contains_examples():
    d = AnnularDomain(1.0, 5.0, 3.0)
    assert d.contains((0.0, 0.0))
    assert not d.contains((3.0, 0.0))
    assert not d.contains((5.0, 0.0))


def test_contains_broadcast():
    d = AnnularDomain(1.0, 5.0, 3.0)
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [5.0, 0.0], [-4.0, 0.5]])
    assert np.array_equal(d.contains(pts), [True, False, False, True])


def exit_distance(d, phi):
    """Distance from the inner center to the outer circle along angle ``phi``."""
    return d.exit_distance_from_direction(np.cos(phi), np.sin(phi))


def test_ray_exit_examples():
    d = AnnularDomain(1.0, 5.0, 3.0)
    assert exit_distance(d, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert exit_distance(d, math.pi) == pytest.approx(8.0, abs=1e-14)
    d0 = AnnularDomain(1.0, 5.0, 0.0)
    for phi in np.linspace(0, 2 * math.pi, 17):
        assert exit_distance(d0, phi) == pytest.approx(5.0, abs=1e-14)


def test_ray_exit_bounds_and_symmetry():
    d = AnnularDomain(1.0, 5.0, 2.5)
    phi = np.linspace(-math.pi, math.pi, 101)
    t = exit_distance(d, phi)
    assert np.all(t >= d.R1 - d.s - 1e-12)
    assert np.all(t <= d.R1 + d.s + 1e-12)
    assert np.allclose(t, exit_distance(d, -phi), atol=1e-14)


@pytest.mark.parametrize("s", [0.0, 2.0, 3.99])
def test_ray_exit_distance_is_the_direction_formula_bitwise(s):
    d = AnnularDomain(1.0, 5.0, s)
    phi = np.linspace(-math.pi, 3 * math.pi, 1001)
    c, sn = np.cos(phi), np.sin(phi)
    want = -s * c + np.sqrt(d.R1**2 - (s * sn) ** 2)
    got = d.exit_distance_from_direction(c, sn)
    assert got.tobytes() == want.tobytes()
    assert d.exit_distance_from_direction(c[7], sn[7]) == want[7]


def test_ray_containment_interval():
    # points on a ray are inside exactly for R0 < t < exit distance
    d = AnnularDomain(1.0, 5.0, 2.0)
    rng = np.random.default_rng(7)
    for phi in rng.uniform(0, 2 * math.pi, 25):
        ell = exit_distance(d, phi)
        direction = np.array([math.cos(phi), math.sin(phi)])
        for t, expect in [
            (0.5 * d.R0, False),
            (d.R0 * 1.001, True),
            (0.5 * (d.R0 + ell), True),
            (ell * 0.999, True),
            (ell * 1.001, False),
        ]:
            p = d.inner_center + t * direction
            assert d.contains(p) == expect


def test_reflect_examples():
    assert np.allclose(reflect((2.0, 1.0), (1.0, 0.0)), [-2.0, 1.0], atol=1e-15)
    diag = (math.cos(math.pi / 4), math.sin(math.pi / 4))
    assert np.allclose(reflect((1.0, 0.0), diag), [0.0, -1.0], atol=1e-15)


def test_reflect_involution_and_fixed_points():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma = rng.uniform(-math.pi, math.pi)
        h = np.array([math.cos(gamma), math.sin(gamma)])
        p = rng.standard_normal((8, 2)) * 3
        assert np.allclose(reflect(reflect(p, h), h), p, atol=1e-14)
        # points on the line are fixed
        onb = np.outer(rng.standard_normal(5), [-h[1], h[0]])
        assert np.allclose(reflect(onb, h), onb, atol=1e-13)
