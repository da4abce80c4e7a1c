"""Analytic geometry of eccentric annuli and of reflections across lines
through the origin.

The domain is the open set ``B_{R1}(0) \\ closure(B_{R0}((s, 0)))`` in the
plane: the outer disk is centered at the origin, the excised inner disk at
``(s, 0)``.  Mesh rays from the inner center are parameterized by ``phi``,
measured counter-clockwise from the positive x-axis.

Everything here is pure and operates on immutable values; point arguments
broadcast over trailing ``(..., 2)`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Parameter set does not describe a valid eccentric annulus."""


# the radii the lab accepts: within them, quantities that scale as R^4, such
# as the torsional rigidity, stay normal floats
R_MIN, R_MAX = 1e-50, 1e50


@dataclass(frozen=True)
class AnnularDomain:
    """Eccentric annulus with outer radius R1, inner radius R0, offset s.

    Valid parameters satisfy ``R_MIN <= R0 < R1 <= R_MAX`` and ``0 <= s <
    R1 - R0`` so the closed inner disk stays strictly inside the outer disk.
    """

    R0: float
    R1: float
    s: float = 0.0

    def __post_init__(self):
        if not (R_MIN <= self.R0 and self.R1 <= R_MAX):
            raise DomainError(
                f"need {R_MIN:g} <= R0 and R1 <= {R_MAX:g}, got R0={self.R0}, R1={self.R1}"
            )
        if not (self.R0 < self.R1):
            raise DomainError(f"need R0 < R1, got R0={self.R0}, R1={self.R1}")
        if not (0.0 <= self.s < self.R1 - self.R0):
            raise DomainError(
                f"need 0 <= s < R1 - R0 = {self.R1 - self.R0}, got s={self.s}"
            )

    @property
    def inner_center(self) -> np.ndarray:
        return np.array([self.s, 0.0])

    @property
    def area(self) -> float:
        return math.pi * (self.R1**2 - self.R0**2)

    def contains(self, p):
        """Open-set membership: ``|p| < R1`` and ``|p - (s,0)| > R0``."""
        p = np.asarray(p, dtype=float)
        q = p - self.inner_center
        inside = np.einsum("...i,...i->...", p, p) < self.R1**2
        off_hole = np.einsum("...i,...i->...", q, q) > self.R0**2
        out = inside & off_hole
        return bool(out) if out.ndim == 0 else out

    def exit_distance_from_direction(self, cos_phi, sin_phi):
        """Distance from (s, 0) to the outer circle along (cos phi, sin phi).

        Rays from the inner center cross the annulus in a single segment, so
        the exit parameter ``t = -s cos(phi) + sqrt(R1^2 - s^2 sin^2(phi))``
        is unique and lies in ``[R1 - s, R1 + s]``.  Takes cos/sin directly
        so that callers with exactly mirror-symmetric direction tables get
        bitwise mirror-symmetric distances.
        """
        c = np.asarray(cos_phi, dtype=float)
        sn = np.asarray(sin_phi, dtype=float)
        return -self.s * c + np.sqrt(self.R1**2 - (self.s * sn) ** 2)


def reflect(p, h) -> np.ndarray:
    """Mirror images of the points ``p`` across the line through the origin
    normal to the unit vector ``h``; an involution."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    return p - 2.0 * np.einsum("...i,i->...", p, h)[..., None] * h
