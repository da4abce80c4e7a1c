import math

import numpy as np
import pytest

from annulab.geometry import AnnularDomain, DomainError, Polarizer


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


@pytest.mark.parametrize(
    "R0, R1, s",
    [(1.0, math.inf, 0.0), (1.0, math.inf, 2.0), (1.0, math.nan, 0.0),
     (math.nan, 5.0, 0.0), (1.0, 5.0, math.nan), (1.0, 1e308, 0.0)],
)
def test_domain_rejects_non_finite_parameters(R0, R1, s):
    # R1 = 1e308 is finite, but R1**2 overflows in every area and distance
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


def test_ray_exit_examples():
    d = AnnularDomain(1.0, 5.0, 3.0)
    assert d.ray_exit_distance(0.0) == pytest.approx(2.0, abs=1e-14)
    assert d.ray_exit_distance(math.pi) == pytest.approx(8.0, abs=1e-14)
    d0 = AnnularDomain(1.0, 5.0, 0.0)
    for phi in np.linspace(0, 2 * math.pi, 17):
        assert d0.ray_exit_distance(phi) == pytest.approx(5.0, abs=1e-14)


def test_ray_exit_bounds_and_symmetry():
    d = AnnularDomain(1.0, 5.0, 2.5)
    phi = np.linspace(-math.pi, math.pi, 101)
    t = d.ray_exit_distance(phi)
    assert np.all(t >= d.R1 - d.s - 1e-12)
    assert np.all(t <= d.R1 + d.s + 1e-12)
    assert np.allclose(d.ray_exit_distance(phi), d.ray_exit_distance(-phi), atol=1e-14)


@pytest.mark.parametrize("s", [0.0, 2.0, 3.99])
def test_ray_exit_distance_is_the_direction_formula_bitwise(s):
    d = AnnularDomain(1.0, 5.0, s)
    phi = np.linspace(-math.pi, 3 * math.pi, 1001)
    c, sn = np.cos(phi), np.sin(phi)
    want = -s * c + np.sqrt(d.R1**2 - (s * sn) ** 2)
    got = d.ray_exit_distance(phi)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == d.exit_distance_from_direction(c, sn).tobytes()
    one = d.ray_exit_distance(phi[7])
    assert type(one) is float and one == want[7]


def test_ray_containment_interval():
    # points on a ray are inside exactly for R0 < t < exit distance
    d = AnnularDomain(1.0, 5.0, 2.0)
    rng = np.random.default_rng(7)
    for phi in rng.uniform(0, 2 * math.pi, 25):
        ell = d.ray_exit_distance(phi)
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
    h_e1 = Polarizer(h=(1.0, 0.0))
    assert np.allclose(h_e1.reflect((2.0, 1.0)), [-2.0, 1.0], atol=1e-15)
    diag = Polarizer.from_angle(math.pi / 4)
    assert np.allclose(diag.reflect((1.0, 0.0)), [0.0, -1.0], atol=1e-15)


def test_reflect_involution_and_fixed_points():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma = rng.uniform(-math.pi, math.pi)
        b = rng.standard_normal(2)
        pol = Polarizer.from_angle(gamma, b=b)
        p = rng.standard_normal((8, 2)) * 3
        assert np.allclose(pol.reflect(pol.reflect(p)), p, atol=1e-14)
        # points on the boundary line are fixed
        tang = np.array([-pol.h[1], pol.h[0]])
        onb = b + np.outer(rng.standard_normal(5), tang)
        assert np.allclose(pol.reflect(onb), onb, atol=1e-13)


def test_polarizer_side_and_contains():
    pol = Polarizer(h=(1.0, 0.0))
    assert pol.contains((-1.0, 2.0))
    assert pol.contains((0.0, 5.0))  # closed half plane
    assert not pol.contains((0.1, 0.0))
    assert pol.side((2.0, 0.0)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        Polarizer(h=(1.0, 1.0))  # normal must be a unit vector
