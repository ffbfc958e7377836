"""Exact counting and enumeration of lattice points on spheres in Z^d.

The number of representations of lam as a sum of d squares is read off as
the z^lam coefficient of the d-th power of the truncated theta series
sum_k z^(k^2), computed with exact integer arithmetic.  Enumeration is a
fallback for small spheres.  A table of more than ``MAX_COUNT_WORK``
slice-add steps, or a sphere of more than ``MAX_SPHERE_POINTS`` points,
raises ``InfeasibleScale`` before any allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EmptySphere, InfeasibleScale

__all__ = [
    "MAX_COUNT_WORK",
    "MAX_SPHERE_POINTS",
    "SphereSpec",
    "theta_coefficients",
    "sphere_counts",
    "representation_count",
    "nonempty_count",
    "enumerate_sphere",
    "surface_measure",
    "density_ratio",
]

MAX_COUNT_WORK = 1 << 33  # max(d - 1, 1) (isqrt(lam_max) + 1) (lam_max + 1), the slice-add steps of a count table
MAX_SPHERE_POINTS = 2_000_000  # points of the largest sphere that enumerate_sphere lists


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


def _count_dtype(d: int, lam_max: int):
    """int64 while the ball |x|^2 <= lam_max provably holds fewer than 2^63 points of Z^d.

    The count is at most the box count (2 isqrt(lam_max) + 1)^d and the
    volume of the ball of radius sqrt(lam_max) + sqrt(d)/2, which holds the
    disjoint unit cubes centred on the points.  That volume is compared in
    logarithms with a margin of 1e-12 of the terms' sizes plus 1e-9, far
    above their few ulps of rounding; past both bounds, exact Python ints.
    """
    if (2 * math.isqrt(lam_max) + 1) ** d < 2**63:
        return np.int64
    radius = math.sqrt(lam_max) + math.sqrt(d) / 2
    terms = (d / 2 * math.log(math.pi), d * math.log(radius), -math.lgamma(d / 2 + 1))
    margin = 1e-12 * sum(abs(t) for t in terms) + 1e-9
    return np.int64 if sum(terms) + margin < 63 * math.log(2) else object


def _count_table(d: int, lam_max: int) -> np.ndarray:
    """r_d(m) for m = 0..lam_max, exact, uncached; ``sphere_counts`` caches it as Python ints.

    Built one dimension at a time by slice-adding the truncated theta
    polynomial into the previous dimension's table.  Every entry in
    dimension j <= d, and every partial sum of the slice-adds, is at most
    the number of points of Z^j, and so of Z^d, in the ball |x|^2 <=
    lam_max, so the table is ``int64`` while ``_count_dtype`` bounds that
    number below 2^63 and an exact Python-int (``object``) array beyond.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    work = max(d - 1, 1) * (math.isqrt(lam_max) + 1) * (lam_max + 1)
    if work > MAX_COUNT_WORK:
        raise InfeasibleScale(f"a count table of Z^{d} to {lam_max} takes {work} slice-adds, over {MAX_COUNT_WORK}")
    out = np.array(theta_coefficients(lam_max), dtype=_count_dtype(d, lam_max))
    for _ in range(d - 1):
        prev = out
        out = prev.copy()  # k = 0 term
        for k in range(1, math.isqrt(lam_max) + 1):
            out[k * k :] += 2 * prev[: lam_max + 1 - k * k]
    return out


@lru_cache(maxsize=4)
def sphere_counts(d: int, lam_max: int) -> tuple[int, ...]:
    """r_d(m) for m = 0..lam_max, exact, as Python ints; the last four (d, lam_max) tables are cached."""
    return tuple(_count_table(d, lam_max).tolist())


def representation_count(spec: SphereSpec) -> int:
    """r_d(lam) = #{x in Z^d : |x|^2 = lam}; 0 means the sphere is empty."""
    return sphere_counts(spec.d, spec.lam)[spec.lam]


def nonempty_count(spec: SphereSpec) -> int:
    """r_d(lam), which is positive; raises EmptySphere when the sphere holds no lattice point."""
    count = representation_count(spec)
    if count == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    return count


def _ragged_arange(starts, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.arange(offsets[-1] + counts[-1]) + np.repeat(starts - offsets, counts)


def _check_enumerable(spec: SphereSpec, count: int) -> None:
    """Raise InfeasibleScale when the sphere's point count r_d(lam) is above ``MAX_SPHERE_POINTS``."""
    if count > MAX_SPHERE_POINTS:
        raise InfeasibleScale(
            f"the sphere |x|^2 = {spec.lam} in Z^{spec.d} holds {count} points, over the cap {MAX_SPHERE_POINTS}"
        )


def enumerate_sphere(spec: SphereSpec) -> np.ndarray:
    """All x in Z^d with |x|^2 = lam, as an (r_d(lam), d) int64 array in lexicographic order.

    Raises InfeasibleScale before any allocation when the exact count is
    above ``MAX_SPHERE_POINTS`` (the caller should switch to coefficient
    extraction).  Built from the last coordinate up: the points with
    |y|^2 = m in Z^j are the rows (k, z), k = -isqrt(m)..isqrt(m), z over
    the shell m - k^2 in Z^(j-1); one layer of array operations per
    coordinate builds every remainder m that the leading coordinates
    leave, and no other.
    """
    _check_enumerable(spec, representation_count(spec))
    # top down: each leading coordinate k pairs a remainder m with m - k^2 one layer
    # below; float sqrt floors exactly for m < 2^52, past any count table that fits
    remainders = np.array([spec.lam], dtype=np.int64)
    layers = []
    for _ in range(spec.d - 1):
        width = 2 * np.sqrt(remainders).astype(np.int64) + 1
        k = _ragged_arange(-(width // 2), width)
        remainders, child = np.unique(np.repeat(remainders, width) - k * k, return_inverse=True)
        layers.append((width, k, child))
    # the last coordinate: -isqrt(m) and isqrt(m) for a positive square m, 0 for m = 0
    root = np.sqrt(remainders).astype(np.int64)
    sizes = np.where(root * root == remainders, np.where(remainders == 0, 1, 2), 0)
    points = (np.repeat(root, sizes) * (2 * _ragged_arange(0, sizes) - 1))[:, np.newaxis]
    # bottom up: a remainder's shell is its pairs' rows (k, shell of m - k^2), in k order
    for width, k, child in reversed(layers):
        counts = sizes[child]
        rows = points[_ragged_arange((np.cumsum(sizes) - sizes)[child], counts)]
        points = np.column_stack([np.repeat(k, counts), rows])
        sizes = np.add.reduceat(counts, np.cumsum(width) - width)
    return points


def surface_measure(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2).

    Gamma(d/2) overflows a float from d = 344 on, which raises
    ``InfeasibleScale``.
    """
    if d < 2:
        raise DomainError(f"surface measure needs d >= 2, got {d}")
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:
        raise InfeasibleScale(f"the surface measure of the unit sphere in R^{d} overflows a float") from None


def _ratio_from_count(d: int, lam: int, count: int) -> float:
    """lam^(d/2 - 1) / count for a count >= 1, correctly rounded from exact integers.

    The square lam^(d - 2) / count^2 is an exact fraction.  Its integer
    square root, scaled to at least 55 bits and rounded to odd, rounds to
    the float nearest the true ratio, so nothing overflows or rounds before
    the last step.  A ratio past the float range raises InfeasibleScale.
    """
    if lam == 0 and d == 1:
        return math.inf
    num, den = (lam ** (d - 2), count * count) if d >= 2 else (1, lam * count * count)
    shift = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    root |= root * root * den != scaled
    try:
        return root / (1 << shift)
    except OverflowError:
        raise InfeasibleScale(f"the density ratio {lam}^({d}/2 - 1) / r_{d}({lam}) overflows a float") from None


def density_ratio(spec: SphereSpec) -> float:
    """lam^(d/2 - 1) / r_d(lam), the quantity that tracks 1/surface_measure(d).

    Correctly rounded, so it is finite wherever the true ratio is.  Raises
    EmptySphere when r_d(lam) = 0.
    """
    return _ratio_from_count(spec.d, spec.lam, nonempty_count(spec))
