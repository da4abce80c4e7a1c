"""Analytic geometry of eccentric annuli and half-plane polarizers.

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


@dataclass(frozen=True)
class AnnularDomain:
    """Eccentric annulus with outer radius R1, inner radius R0, offset s.

    Valid parameters satisfy ``0 < R0 < R1`` and ``0 <= s < R1 - R0`` so the
    closed inner disk stays strictly inside the outer disk; R0, R1, s and
    ``R1 * R1`` must be finite.
    """

    R0: float
    R1: float
    s: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.R0, self.R1, self.s, self.R1 * self.R1)):
            raise DomainError(
                f"need finite R0, R1, s and R1^2, got R0={self.R0}, R1={self.R1}, s={self.s}"
            )
        if not (0.0 < self.R0 < self.R1):
            raise DomainError(f"need 0 < R0 < R1, got R0={self.R0}, R1={self.R1}")
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

    def ray_exit_distance(self, phi):
        """Distance from (s, 0) to the outer circle along (cos phi, sin phi).

        Rays from the inner center cross the annulus in a single segment, so
        the exit parameter ``t = -s cos(phi) + sqrt(R1^2 - s^2 sin^2(phi))``
        is unique and lies in ``[R1 - s, R1 + s]``.
        """
        phi = np.asarray(phi, dtype=float)
        t = self.exit_distance_from_direction(np.cos(phi), np.sin(phi))
        return float(t) if t.ndim == 0 else t

    def exit_distance_from_direction(self, cos_phi, sin_phi):
        """Same as :meth:`ray_exit_distance` but from an explicit direction.

        Takes cos/sin directly so that callers with exactly mirror-symmetric
        direction tables get bitwise mirror-symmetric distances.
        """
        c = np.asarray(cos_phi, dtype=float)
        sn = np.asarray(sin_phi, dtype=float)
        return -self.s * c + np.sqrt(self.R1**2 - (self.s * sn) ** 2)


@dataclass(frozen=True)
class Polarizer:
    """Closed half plane ``H = {x : h . (x - b) <= 0}`` with unit normal h.

    ``h`` points out of H.  H belongs to the centered family when its
    boundary line passes through the origin; the star subfamily additionally
    has ``h . e1 > 0``, which places ``-e1`` strictly inside H.
    """

    h: tuple[float, float]
    b: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        nrm = math.hypot(self.h[0], self.h[1])
        if abs(nrm - 1.0) > 1e-14:
            raise ValueError(f"polarizer normal must be unit length, |h| = {nrm}")

    @classmethod
    def from_angle(cls, gamma: float, b=(0.0, 0.0)) -> "Polarizer":
        """Polarizer whose outward normal makes angle ``gamma`` with +x.

        Right angles snap to exact axis vectors so that axis-aligned
        reflections are exact in floating point.
        """
        k = gamma / (math.pi / 2)
        if k == round(k):
            c, sn = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][int(round(k)) % 4]
        else:
            c, sn = math.cos(gamma), math.sin(gamma)
        return cls(h=(c, sn), b=(float(b[0]), float(b[1])))

    def side(self, p):
        """Signed side value ``h . (p - b)``; nonpositive inside H."""
        p = np.asarray(p, dtype=float)
        h = np.asarray(self.h)
        b = np.asarray(self.b)
        out = np.einsum("...i,i->...", p - b, h)
        return float(out) if out.ndim == 0 else out

    def contains(self, p):
        out = np.asarray(self.side(p)) <= 0.0
        return bool(out) if out.ndim == 0 else out

    def reflect(self, p):
        """Mirror image across the boundary line of H; an involution."""
        p = np.asarray(p, dtype=float)
        h = np.asarray(self.h)
        b = np.asarray(self.b)
        proj = np.einsum("...i,i->...", p - b, h)
        return p - 2.0 * proj[..., None] * h

