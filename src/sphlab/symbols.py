"""Pointwise evaluation of the Fourier symbols on the torus.

Covers the normalized exponential sum over a lattice sphere, its two
Gaussian approximants, the discrete heat-semigroup symbol, the Fourier
transform of the normalized surface measure of the continuous sphere (in
its Bessel closed form), and sampled surveys of how well the approximants
track the exact symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma, jv

from .errors import DomainError, EmptySphere, RegimeViolation
from .lattice import SphereSpec, representation_count

__all__ = [
    "periodic_norm",
    "nearest_lattice",
    "reduce_to_torus",
    "sphere_multiplier_batch",
    "eval_gaussian_approximant",
    "eval_semigroup_symbol",
    "continuous_sphere_symbol_batch",
    "eval_continuous_sphere_symbol",
    "eval_folded_symbol",
    "count_negative_cos",
    "SymbolSample",
    "residual_survey",
    "fit_small_scale_constant",
]

def nearest_lattice(x) -> np.ndarray:
    """The integer vector [[x]] with x - [[x]] in the half-open cube [-1/2, 1/2)^d."""
    x = np.asarray(x, dtype=float)
    return np.floor(x + 0.5).astype(np.int64)


def reduce_to_torus(x) -> np.ndarray:
    """x - [[x]], the representative of x in [-1/2, 1/2)^d."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


def periodic_norm(x) -> float:
    """(sum_j dist(x_j, Z)^2)^(1/2); equals |x| for x already in the unit cube."""
    x = np.asarray(x, dtype=float)
    frac = np.abs(x - np.round(x))
    return float(np.sqrt(np.sum(frac * frac)))


def sphere_multiplier_batch(spec: SphereSpec, xis: np.ndarray) -> np.ndarray:
    """Normalized sphere exponential sums at a batch of frequencies.

    Rows of ``xis`` are frequency vectors.  The numerator of each value is the
    z^lam coefficient of prod_j sum_{k^2 <= lam} e^(2 pi i k xi_j) z^(k^2);
    pairing +-k makes every 1-d factor real, so the product is evaluated with
    real truncated-polynomial multiplications and Kahan compensation across
    the shifted adds.
    """
    count = representation_count(spec)
    if count == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if xis.shape[1] != spec.d:
        raise DomainError(f"frequency vectors must have length {spec.d}")
    nbatch = xis.shape[0]
    lam = spec.lam
    if lam == 0:
        return np.ones(nbatch)
    ks = np.arange(1, math.isqrt(lam) + 1)
    poly = np.zeros((nbatch, lam + 1))
    poly[:, 0] = 1.0
    for j in range(spec.d):
        weights = 2.0 * np.cos(2.0 * np.pi * np.outer(xis[:, j], ks))
        new = poly.copy()  # k = 0 contribution
        comp = np.zeros_like(new)
        for i, k in enumerate(ks):
            sq = k * k
            term = weights[:, i : i + 1] * poly[:, : lam + 1 - sq]
            y = term - comp[:, sq:]
            t = new[:, sq:] + y
            comp[:, sq:] = (t - new[:, sq:]) - y
            new[:, sq:] = t
        poly = new
    return poly[:, lam] / count


def eval_gaussian_approximant(spec: SphereSpec, xi, branch):
    """The Gaussian stand-in for the sphere symbol at proportionality lam/d.

    branch "sin": exp(-(lam/d) sum_j sin^2(pi xi_j)), accurate when few
    coordinates have cos(2 pi xi_j) < 0.  branch "cos": (-1)^lam times the
    cosine analogue, accurate when most coordinates do.  The sum runs over
    the last axis of ``xi``, so rows of an (N, d) array give N values;
    ``branch`` is one name for every row or an array of names, one per row.
    """
    xi = np.asarray(xi, dtype=float)
    branch = np.asarray(branch)
    is_cos = branch == "cos"
    if not np.all(is_cos | (branch == "sin")):
        raise DomainError(f"unknown branch in {branch!r}, expected 'sin' or 'cos'")
    trig = np.where(is_cos[..., np.newaxis], np.cos(np.pi * xi), np.sin(np.pi * xi))
    value = np.exp(-(spec.lam / spec.d) * np.sum(trig**2, axis=-1))
    return np.where(is_cos & (spec.lam % 2 == 1), -value, value)[()]


def eval_semigroup_symbol(time: float, xi):
    """Discrete heat-semigroup symbol exp(-t sum_k sin^2(pi xi_k)), over the last axis of xi."""
    if time <= 0:
        raise DomainError(f"semigroup time must be > 0, got {time}")
    xi = np.asarray(xi, dtype=float)
    return np.exp(-time * np.sum(np.sin(np.pi * xi) ** 2, axis=-1))


def _bessel_form(d: int, radius):
    """Gamma(d/2) (pi r)^(1 - d/2) J_(d/2 - 1)(2 pi r), elementwise, for r > 0."""
    order = d / 2.0 - 1.0
    return gamma(d / 2.0) * jv(order, 2.0 * math.pi * radius) / (math.pi * radius) ** order


def continuous_sphere_symbol_batch(d: int, radii) -> np.ndarray:
    """Fourier transform of the normalized surface measure at radial frequencies.

    Evaluated elementwise in the Bessel closed form
        Gamma(d/2) (pi r)^(1 - d/2) J_(d/2 - 1)(2 pi r)
    of Grafakos, Classical Fourier Analysis, App. B.4.  Below r = 1e-9 the
    value 1 - 2 pi^2 r^2 / d rounds to 1.0, which is returned directly; that
    keeps r = 0 exact and avoids underflow of both factors at tiny r.
    """
    if d < 2:
        raise DomainError(f"needs d >= 2, got {d}")
    radii = np.abs(np.asarray(radii, dtype=float))
    tiny = radii < 1e-9
    return np.where(tiny, 1.0, _bessel_form(d, np.where(tiny, 1.0, radii)))


@lru_cache(maxsize=65536)
def eval_continuous_sphere_symbol(d: int, radius: float) -> float:
    """continuous_sphere_symbol_batch at one radius, in plain float arithmetic."""
    if d < 2:
        raise DomainError(f"needs d >= 2, got {d}")
    radius = abs(float(radius))
    return 1.0 if radius < 1e-9 else float(_bessel_form(d, radius))


def eval_folded_symbol(spec: SphereSpec, xi) -> float:
    """The sphere-measure symbol folded onto the torus.

    Evaluates the continuous symbol at t (xi - [[xi]]); 1-periodic in each
    coordinate because only the distance of xi to Z^d enters.
    """
    return eval_continuous_sphere_symbol(spec.d, spec.radius * periodic_norm(xi))


def count_negative_cos(xi):
    """#{j : cos(2 pi xi_j) < 0} over the last axis of xi: the coordinates steering the branch."""
    xi = np.asarray(xi, dtype=float)
    return np.count_nonzero(np.cos(2.0 * np.pi * xi) < 0.0, axis=-1)


@dataclass(frozen=True)
class SymbolSample:
    """One surveyed frequency: exact value, approximant, and the target bound."""

    xi: tuple[float, ...]
    m_value: complex
    approx_value: float
    branch: str
    v_cardinality: int
    residual: float
    bound_value: float

    @property
    def ratio(self) -> float:
        """residual / bound, with the 0/0 corner (e.g. xi = 0) read as 0."""
        if self.bound_value > 0.0:
            return self.residual / self.bound_value
        return 0.0 if self.residual == 0.0 else math.inf


def _survey_points(d: int, samples: int, seed: int) -> np.ndarray:
    """xi = 0 followed by ``samples`` uniform draws from [-1/2, 1/2)^d.

    Philox is counter-based, so the stream is reproducible across platforms.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    pts = np.zeros((samples + 1, d))
    pts[1:] = rng.random((samples, d)) - 0.5
    return pts


def residual_survey(
    spec: SphereSpec, regime: str, samples: int, seed: int
) -> list[SymbolSample]:
    """Sampled comparison of the exact symbol against its regime approximant.

    regime "small" and "intermediate" compare the sphere symbol with the
    Gaussian approximants and record the corresponding error envelopes
    (the unknown absolute constants are reported as 1).  regime "folded"
    compares the folded continuous symbol with the semigroup symbol at time
    lam/d.  Draws are deterministic in ``seed`` and xi = 0 is always
    injected as the first sample.
    """
    d, lam = spec.d, spec.lam
    kappa = math.sqrt(lam / d)
    if regime == "small":
        if d < 5:
            raise RegimeViolation(f"small regime needs d >= 5, got d={d}")
        if kappa > 0.2:
            raise RegimeViolation(
                f"small regime needs sqrt(lam/d) <= 1/5, got sqrt({lam}/{d}) = {kappa:.4f}"
            )
    elif regime == "intermediate":
        if not (100 * d <= lam <= d**3):
            raise RegimeViolation(
                f"intermediate regime needs 100 d <= lam <= d^3, got d={d}, lam={lam}"
            )
    elif regime != "folded":
        raise DomainError(f"unknown regime {regime!r}")

    points = _survey_points(d, samples, seed)
    out: list[SymbolSample] = []

    if regime == "folded":
        heats = eval_semigroup_symbol(lam / d, points)
        v_cards = count_negative_cos(points)
        for xi, heat, v_card in zip(points, heats, v_cards):
            norm = periodic_norm(xi)
            folded = eval_folded_symbol(spec, xi)
            residual = abs(folded - heat)
            if norm == 0.0:
                bound = 0.0
            else:
                t = spec.radius
                bound = min(t**2 / d * norm**2, t**-0.5 * d**0.25 / math.sqrt(norm))
            out.append(
                SymbolSample(tuple(xi), complex(folded), float(heat), "sin", int(v_card), residual, bound)
            )
        return out

    m_values = sphere_multiplier_batch(spec, points)
    v_cards = count_negative_cos(points)
    branches = np.where(v_cards <= d / 2, "sin", "cos")
    approxes = eval_gaussian_approximant(spec, points, branches)
    for xi, m_val, approx, branch, v_card in zip(points, m_values, approxes, branches, v_cards):
        branch = str(branch)
        residual = abs(m_val - approx)
        if regime == "small":
            if branch == "sin":
                trig_sum = float(np.sum(np.sin(np.pi * xi) ** 2))
            else:
                trig_sum = float(np.sum(np.cos(np.pi * xi) ** 2))
            # unknown constant c in the exponential wing reported as 1
            bound = min(math.exp(-(kappa**2) * trig_sum / 400.0), kappa**2 * trig_sum)
        else:
            shift = xi if branch == "sin" else xi + 0.5
            norm = periodic_norm(shift)
            scaled = kappa * norm
            wings = min(scaled, 1.0 / scaled) if scaled > 0.0 else 0.0
            bound = wings + 1.0 / kappa
        out.append(
            SymbolSample(tuple(xi), complex(m_val), float(approx), branch, int(v_card), residual, bound)
        )
    return out


def fit_small_scale_constant(
    samples: list[SymbolSample], kappa_sq: float, tol: float = 1e-4
) -> float:
    """Largest c in (0, 1] whose exponential wing dominates wherever it binds.

    The small-scale envelope is min{e^(-c kappa^2 S/400), kappa^2 S} with S
    the sine or cosine square sum.  Growing c both shrinks the exponential
    wing and widens the region where it is the smaller side, so domination
    is monotone in c and bisection applies; 0 means not even the flattest
    wing dominates, 1 means the wing never binds or always dominates.
    """

    def dominated(c: float) -> bool:
        for s in samples:
            trig = np.asarray(s.xi)
            total = float(np.sum((np.sin if s.branch == "sin" else np.cos)(np.pi * trig) ** 2))
            wing = math.exp(-c * kappa_sq * total / 400.0)
            if wing <= kappa_sq * total and s.residual > wing:
                return False
        return True

    if not dominated(0.0):
        return 0.0
    if dominated(1.0):
        return 1.0
    low, high = 0.0, 1.0
    while high - low > tol:
        mid = (low + high) / 2.0
        if dominated(mid):
            low = mid
        else:
            high = mid
    return low
