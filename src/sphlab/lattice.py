"""Exact counting and enumeration of lattice points on spheres in Z^d.

The number of representations of lam as a sum of d squares is read off as
the z^lam coefficient of the d-th power of the truncated theta series
sum_k z^(k^2), computed with exact integer arithmetic.  Enumeration is a
fallback for small spheres, gated by a caller-supplied cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DomainError, EmptySphere

__all__ = [
    "SphereSpec",
    "theta_coefficients",
    "sphere_counts",
    "representation_count",
    "enumerate_sphere",
    "surface_measure",
    "density_ratio",
]


@dataclass(frozen=True)
class SphereSpec:
    """A lattice sphere: dimension d and exact squared radius lam (= t^2)."""

    d: int
    lam: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.lam < 0:
            raise DomainError(f"squared radius must be >= 0, got {self.lam}")

    @property
    def radius(self) -> float:
        return math.sqrt(self.lam)


def theta_coefficients(lam: int) -> list[int]:
    """Coefficients 0..lam of sum_{k in Z} z^(k^2) truncated at degree lam.

    coefficient[0] = 1 and coefficient[m] = 2 exactly when m is a positive
    perfect square.
    """
    if lam < 0:
        raise DomainError("truncation degree must be >= 0")
    out = [0] * (lam + 1)
    out[0] = 1
    k = 1
    while k * k <= lam:
        out[k * k] = 2
        k += 1
    return out


@lru_cache(maxsize=None)
def sphere_counts(d: int, lam_max: int) -> tuple[int, ...]:
    """r_d(m) for m = 0..lam_max, exact.

    Built by slice-adding the truncated theta polynomial into the (d-1)-table
    on exact Python-int (``object``) arrays; lower dimensions are cached too.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if d == 1:
        return tuple(theta_coefficients(lam_max))
    prev = np.array(sphere_counts(d - 1, lam_max), dtype=object)
    out = prev.copy()  # k = 0 term
    for k in range(1, math.isqrt(lam_max) + 1):
        out[k * k :] += 2 * prev[: lam_max + 1 - k * k]
    return tuple(out.tolist())


def representation_count(spec: SphereSpec) -> int:
    """r_d(lam) = #{x in Z^d : |x|^2 = lam}; 0 means the sphere is empty."""
    return sphere_counts(spec.d, spec.lam)[spec.lam]


def enumerate_sphere(spec: SphereSpec, cap: int) -> list[tuple[int, ...]]:
    """All x in Z^d with |x|^2 = lam, in lexicographic order.

    Raises CapExceeded when the exact count is above ``cap`` (the caller
    should switch to coefficient extraction instead of enumeration).
    """
    count = representation_count(spec)
    if count > cap:
        raise CapExceeded(f"sphere holds {count} points, cap is {cap}")
    out: list[tuple[int, ...]] = []
    point = [0] * spec.d

    def descend(j: int, rem: int) -> None:
        if j == spec.d:
            if rem == 0:
                out.append(tuple(point))
            return
        if j == spec.d - 1:
            k = math.isqrt(rem)
            if k * k == rem:
                if k == 0:
                    point[j] = 0
                    out.append(tuple(point))
                else:
                    point[j] = -k
                    out.append(tuple(point))
                    point[j] = k
                    out.append(tuple(point))
            return
        bound = math.isqrt(rem)
        for k in range(-bound, bound + 1):
            point[j] = k
            descend(j + 1, rem - k * k)

    descend(0, spec.lam)
    return out


def surface_measure(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 2:
        raise DomainError(f"surface measure needs d >= 2, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def density_ratio(spec: SphereSpec) -> float:
    """lam^(d/2 - 1) / r_d(lam), the quantity that tracks 1/surface_measure(d).

    Raises EmptySphere when r_d(lam) = 0.
    """
    count = representation_count(spec)
    if count == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    exponent = spec.d / 2.0 - 1.0
    if spec.lam == 0 and exponent < 0:
        return math.inf
    return float(spec.lam) ** exponent / count
