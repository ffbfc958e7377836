"""Gaussian sums, Farey fractions, smooth cutoffs, and arc decompositions.

The sphere symbol at large radius splits into a sum of arc terms indexed by
reduced fractions p/q, a tail term over large denominators, and an error
term; everything here evaluates those pieces pointwise so the bookkeeping
identity can be checked numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EmptySphere, InfeasibleScale, RangeError
from .lattice import SphereSpec, representation_count, surface_measure
from .symbols import (
    eval_continuous_sphere_symbol,
    eval_sphere_multiplier,
    nearest_lattice,
)

__all__ = [
    "FareyFraction",
    "farey_set",
    "gauss_sum_1d",
    "gauss_sum",
    "GaussIdentityReport",
    "verify_gauss_identities",
    "BumpCutoff",
    "THETA_CUTOFF",
    "PHI_CUTOFF",
    "eval_cutoff",
    "eval_major_arc_term",
    "eval_minor_term",
    "DecompositionReport",
    "decomposition_error",
    "COEFF_COST_BUDGET",
]

COEFF_COST_BUDGET = 1e10


@dataclass(frozen=True, order=True)
class FareyFraction:
    """A reduced fraction p/q with 0 <= p <= q."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError(f"denominator must be >= 1, got {self.q}")
        if not 0 <= self.p <= self.q:
            raise DomainError(f"need 0 <= p <= q, got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError(f"{self.p}/{self.q} is not reduced")

    @property
    def value(self) -> float:
        return self.p / self.q


def farey_set(n: int) -> set[FareyFraction]:
    """All reduced p/q with 0 <= p <= q <= n."""
    if n < 1:
        raise DomainError(f"Farey order must be >= 1, got {n}")
    out = {FareyFraction(0, 1), FareyFraction(1, 1)}
    for q in range(2, n + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.add(FareyFraction(p, q))
    return out


def gauss_sum_1d(p: int, q: int, x: int) -> complex:
    """q^-1 sum_{n=1}^{q} e^(2 pi i (n^2 p + x n)/q).

    The exponent is reduced mod q in exact integer arithmetic before the
    complex exponential, so the phases stay small.
    """
    if q < 1:
        raise DomainError(f"denominator must be >= 1, got {q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"gauss_sum_1d needs gcd(p, q) = 1, got p={p}, q={q}")
    total = 0.0 + 0.0j
    tau = 2.0 * math.pi / q
    for n in range(1, q + 1):
        total += cmath.exp(1j * tau * ((n * n * p + x * n) % q))
    return total / q


def gauss_sum(p: int, q: int, x) -> complex:
    """The d-dimensional normalized quadratic Gauss sum at integer offset x.

    Separates over coordinates as a product of 1-d sums; equals the direct
    q^-d-normalized sum over the full residue grid.
    """
    out = 1.0 + 0.0j
    for xj in np.asarray(x, dtype=object).ravel():
        out *= gauss_sum_1d(p, q, int(xj))
    return out


@dataclass(frozen=True)
class GaussIdentityReport:
    """Worst deviations of the two Gauss-sum identities over a (q, d) grid."""

    rows: tuple[tuple[int, int, int, float, float], ...]  # (q, p, d, sum_dev, bound_excess)

    @property
    def max_sum_deviation(self) -> float:
        return max(r[3] for r in self.rows)

    @property
    def max_bound_excess(self) -> float:
        return max(r[4] for r in self.rows)


def verify_gauss_identities(q_max: int, d: int) -> GaussIdentityReport:
    """Check |G| <= (2/q)^(d/2) and sum over the residue grid of |G|^2 = 1.

    Both quantities factor over coordinates, so the d-dimensional sup and sum
    are exact powers of their 1-d counterparts; the factorization itself is
    covered by direct-sum tests at small (q, d).
    """
    if q_max < 1 or d < 1:
        raise DomainError("need q_max >= 1 and d >= 1")
    rows = []
    for q in range(1, q_max + 1):
        for p in range(0 if q == 1 else 1, q):
            if math.gcd(p, q) != 1:
                continue
            mags = [abs(gauss_sum_1d(p, q, x)) for x in range(1, q + 1)]
            sum_sq_1d = sum(m * m for m in mags)
            sup_1d = max(mags)
            sum_dev = abs(sum_sq_1d**d - 1.0)
            bound_excess = max(0.0, sup_1d**d - (2.0 / q) ** (d / 2.0))
            rows.append((q, p, d, sum_dev, bound_excess))
    return GaussIdentityReport(tuple(rows))


def _smooth_step(u: float) -> float:
    """C^infinity ramp from 0 at u <= 0 to 1 at u >= 1, glued from e^(-1/u)."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b)


@dataclass(frozen=True)
class BumpCutoff:
    """Product of 1-d smooth bumps: 1 on [-plateau, plateau], 0 outside (-support, support)."""

    plateau: float
    support: float

    def __post_init__(self) -> None:
        if not 0.0 < self.plateau < self.support:
            raise DomainError("need 0 < plateau < support")

    def profile(self, x: float) -> float:
        return _smooth_step((self.support - abs(x)) / (self.support - self.plateau))


THETA_CUTOFF = BumpCutoff(plateau=0.125, support=0.25)
PHI_CUTOFF = BumpCutoff(plateau=0.25, support=0.5)


def eval_cutoff(cut: BumpCutoff, x) -> float:
    """Coordinate product of the 1-d bump profile; values in [0, 1]."""
    out = 1.0
    for xj in np.asarray(x, dtype=float).ravel():
        out *= cut.profile(float(xj))
        if out == 0.0:
            break
    return out


def _radial_sigma_hat(d: int, radius: float) -> float:
    """Unnormalized sphere-measure transform: surface measure times the normalized symbol."""
    return surface_measure(d) * eval_continuous_sphere_symbol(d, radius)


def eval_major_arc_term(spec: SphereSpec, frac: FareyFraction, xi) -> complex:
    """Single arc contribution at the fraction p/q.

    lam^(d/2-1)/(2 r) * e^(-2 pi i lam p/q) * G(p/q; [[q xi]])
    * sigma_hat(t ([[q xi]]/q - xi)).
    """
    count = representation_count(spec)
    if count == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    xi = np.asarray(xi, dtype=float)
    d, lam = spec.d, spec.lam
    nearest = nearest_lattice(frac.q * xi)
    offset = nearest / frac.q - xi
    prefactor = float(lam) ** (d / 2.0 - 1.0) / (2.0 * count)
    phase = cmath.exp(-2j * math.pi * ((lam * frac.p) % frac.q) / frac.q)
    return (
        prefactor
        * phase
        * gauss_sum(frac.p, frac.q, nearest)
        * _radial_sigma_hat(d, spec.radius * float(np.linalg.norm(offset)))
    )


@lru_cache(maxsize=None)
def _farey_sorted(n: int) -> tuple[FareyFraction, ...]:
    """The arc fractions p/q with 1 <= p <= q <= n, ordered by (q, p).

    farey_set holds both 0/1 and 1/1, which index the same q = 1 arc; the
    Magyar-Stein-Wainger convention 1 <= p <= q keeps each arc once.
    """
    return tuple(sorted((f for f in farey_set(n) if f.p >= 1), key=lambda f: (f.q, f.p)))


def eval_minor_term(spec: SphereSpec, n: int, xi) -> complex:
    """Tail over fractions with denominator >= n, cut off by the narrow bump.

    The inner lattice sum collapses to the single candidate [[q xi]]: the
    cutoff support has half-width 1/4, so no other integer vector can land
    inside it.
    """
    count = representation_count(spec)
    if count == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    if spec.lam == 0:
        raise DomainError("tail term needs lam >= 1")
    big_n = math.isqrt(spec.lam)
    if not 1 <= n <= big_n + 1:
        raise RangeError(f"need 1 <= n <= floor(t) + 1 = {big_n + 1}, got {n}")
    xi = np.asarray(xi, dtype=float)
    d, lam = spec.d, spec.lam
    prefactor = float(lam) ** (d / 2.0 - 1.0) / (2.0 * count)
    total = 0.0 + 0.0j
    for frac in _farey_sorted(big_n):
        if frac.q < n:
            continue
        scaled = frac.q * xi
        x_vec = nearest_lattice(scaled)
        window = eval_cutoff(THETA_CUTOFF, scaled - x_vec)
        if window == 0.0:
            continue
        offset = x_vec / frac.q - xi
        phase = cmath.exp(-2j * math.pi * ((lam * frac.p) % frac.q) / frac.q)
        total += (
            phase
            * gauss_sum(frac.p, frac.q, x_vec)
            * window
            * _radial_sigma_hat(d, spec.radius * float(np.linalg.norm(offset)))
        )
    return prefactor * total


@dataclass(frozen=True)
class DecompositionReport:
    """Arc decomposition of the sphere symbol at one frequency."""

    spec: SphereSpec
    cutoff_index: int
    xi: tuple[float, ...]
    major_sum: complex
    minor_term: complex
    total_error: complex
    paper_bound: float

    @property
    def multiplier_value(self) -> complex:
        return self.major_sum + self.minor_term + self.total_error


def decomposition_error(
    spec: SphereSpec, n: int, xi, budget: float = COEFF_COST_BUDGET
) -> DecompositionReport:
    """Exact symbol minus arcs with denominator < n minus the tail at n.

    The error term is defined by the difference, so the report satisfies
    major + minor + error = multiplier identically; the recorded envelope is
    d^(3d/4) / lam^(d/4 - 1).
    """
    if spec.d < 2:
        raise DomainError("decomposition needs d >= 2")
    cost = spec.d * float(spec.lam) ** 2
    if cost > budget:
        raise InfeasibleScale(
            f"coefficient extraction estimate {cost:.3e} exceeds budget {budget:.3e}"
        )
    xi = np.asarray(xi, dtype=float)
    m_val = eval_sphere_multiplier(spec, xi, method="coeff")
    big_n = math.isqrt(spec.lam)
    major = 0.0 + 0.0j
    for frac in _farey_sorted(big_n):
        if frac.q < n:
            major += eval_major_arc_term(spec, frac, xi)
    minor = eval_minor_term(spec, n, xi)
    bound = float(spec.d) ** (0.75 * spec.d) / float(spec.lam) ** (spec.d / 4.0 - 1.0)
    return DecompositionReport(
        spec=spec,
        cutoff_index=n,
        xi=tuple(xi),
        major_sum=major,
        minor_term=minor,
        total_error=m_val - major - minor,
        paper_bound=bound,
    )
