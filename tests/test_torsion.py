import numpy as np
import pytest

from conftest import vertex_mirror

from annulab.checks import geometry_report
from annulab.geometry import AnnularDomain
from annulab.mesh import Resolution
from annulab.radial_oracle import concentric_torsion
from annulab.shape import dirichlet_normal_derivative
from annulab.spectral import discretize
from annulab.torsion import (
    finite_difference_rigidity_prime,
    rigidity_derivative,
    solve_torsion,
    torsional_rigidity,
)

QUICK = Resolution(128, 32, 1.5)


@pytest.fixture(scope="module")
def concentric12():
    return solve_torsion(discretize(AnnularDomain(1.0, 2.0, 0.0), QUICK))


def test_energy_integral_identity(concentric12, torsion_s2_128):
    for sol in (concentric12, torsion_s2_128):
        t_energy, t_integral = torsional_rigidity(sol.v)
        assert abs(t_energy - t_integral) <= 1e-10 * t_integral
        assert sol.T == pytest.approx(t_integral, rel=1e-12)


def test_concentric_profile_match(concentric12):
    profile, t0 = concentric_torsion(1.0, 2.0)
    mesh = concentric12.mesh
    r = np.clip(np.hypot(*mesh.vertices.T), 1.0, 2.0)
    err = np.abs(concentric12.v.values - profile(r))
    assert err.max() <= 5e-3 * profile(2.0)
    _, t_integral = torsional_rigidity(concentric12.v)
    assert t_integral == pytest.approx(t0, rel=5e-3)


def test_nonnegative_and_pinned(concentric12, torsion_s2_128):
    for sol in (concentric12, torsion_s2_128):
        assert sol.v.values.min() >= -1e-12
        assert np.all(sol.v.values[sol.mesh.lattice[:, 0]] == 0.0)


def test_peak_toward_far_side(torsion_s2_128):
    mesh = torsion_s2_128.mesh
    peak = mesh.vertices[np.argmax(torsion_s2_128.v.values)]
    assert np.hypot(peak[0] + 5.0, peak[1]) < 0.5


def test_geometry_checks_for_torsion(torsion_s2_128):
    rep = geometry_report(torsion_s2_128.v)
    assert rep.passed(("affine_radial", "axial_cap", "outer_axial"))


def test_rigidity_derivative_signs(concentric12, torsion_s2_128):
    d_conc = rigidity_derivative(dirichlet_normal_derivative(concentric12.v))
    _, t0 = torsional_rigidity(concentric12.v)
    assert abs(d_conc) <= 1e-3 * t0 / 2.0
    d_ecc = rigidity_derivative(dirichlet_normal_derivative(torsion_s2_128.v))
    assert d_ecc > 0.0


def test_rigidity_derivative_fd_agreement(torsion_s2_128):
    d = torsion_s2_128.mesh.domain
    boundary = rigidity_derivative(dirichlet_normal_derivative(torsion_s2_128.v))
    fd = finite_difference_rigidity_prime(d, 0.05, QUICK)
    assert boundary == pytest.approx(fd, rel=0.05)


def test_mirror_symmetry_exact(torsion_s2_128):
    v = torsion_s2_128.v.values
    assert np.array_equal(v, v[vertex_mirror(torsion_s2_128.mesh)])


def test_fd_step_validation():
    with pytest.raises(ValueError):
        finite_difference_rigidity_prime(AnnularDomain(1.0, 5.0, 0.1), 0.5, QUICK)


def test_torsion_symmetric_arrangement_deviation(torsion_s2_128):
    from annulab.symmetrize import deviation, foliated_schwarz, sample_rings

    rings = sample_rings(torsion_s2_128.v, m=256, n_rings=64, center="origin")
    assert deviation(rings, foliated_schwarz(rings)) <= 0.02
