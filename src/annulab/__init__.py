"""Numerical laboratory for Laplace problems on eccentric planar annuli.

Solves the mixed (inner Dirichlet / outer Neumann), reversed-mixed and pure
Dirichlet eigenvalue problems plus the torsion problem on the annulus
``B_{R1}(0) \\ closure(B_{R0}((s, 0)))``, checks the monotonicity and
symmetry structure of the computed first eigenfunctions, and evaluates the
derivative of the first eigenvalue in the offset ``s`` by a boundary
integral, its half-boundary regrouping and finite differences.

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise:
nothing here gains from a threaded BLAS, and an OpenBLAS pool thread, which
spins before it sleeps, takes CPU time from the process's own work.  The
variable is set before numpy loads its OpenBLAS, so no pool thread starts,
and removed again once numpy's and scipy's OpenBLAS are loaded, so that
the host's environment and its subprocesses keep their default.
"""

import os

_SET_BLAS_THREADS = "OPENBLAS_NUM_THREADS" not in os.environ
if _SET_BLAS_THREADS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .geometry import AnnularDomain, DomainError
from .mesh import Mesh, MeshQualityError, Resolution, build_mesh
from .fem import Discretization, Field, ProblemKind
from .eigensolver import EigenPair, SolverConvergenceError, smallest_eigenpair
from .export import write_field
from .spectral import EigenSolution, discretize, solve_eigenproblem
from .symmetrize import (
    RingSampling,
    deviation,
    foliated_schwarz,
    polarize,
    sample_rings,
    star_polarizers,
    worst_polarization_deviation,
)
from .checks import (
    GeometryReport,
    geometry_report,
    geometry_reports,
    recover_gradient,
)
from .shape import (
    BoundaryTrace,
    dirichlet_normal_derivative,
    finite_difference_tau_prime,
    hadamard_tau_prime,
    half_boundary_tau_prime,
    reflected_neumann_margin,
)
from .torsion import rigidity_derivative, solve_torsion, torsional_rigidity
from .radial_oracle import concentric_eigenvalue, concentric_torsion
from .sweep import (
    DNAnalysis,
    SweepRecord,
    analyze_dn_ratio,
    analyze_dn_ratios,
    bracket_critical_ratio,
    convergence_study,
    monotonicity_violations,
    sweep_translation,
    write_sweep_csv,
)

# eigensolver has loaded scipy's LAPACK, and numpy its BLAS, by now
if _SET_BLAS_THREADS:
    del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

__all__ = [
    "AnnularDomain", "DomainError",
    "Mesh", "MeshQualityError", "Resolution", "build_mesh",
    "Discretization", "Field", "ProblemKind",
    "EigenPair", "SolverConvergenceError", "smallest_eigenpair",
    "EigenSolution", "discretize", "solve_eigenproblem", "write_field",
    "RingSampling", "deviation", "foliated_schwarz", "polarize",
    "sample_rings", "star_polarizers", "worst_polarization_deviation",
    "GeometryReport", "geometry_report", "geometry_reports", "recover_gradient",
    "BoundaryTrace", "dirichlet_normal_derivative",
    "finite_difference_tau_prime", "hadamard_tau_prime",
    "half_boundary_tau_prime", "reflected_neumann_margin",
    "rigidity_derivative", "solve_torsion", "torsional_rigidity",
    "concentric_eigenvalue", "concentric_torsion",
    "DNAnalysis", "SweepRecord",
    "analyze_dn_ratio", "analyze_dn_ratios", "bracket_critical_ratio",
    "convergence_study", "monotonicity_violations", "sweep_translation",
    "write_sweep_csv",
]
