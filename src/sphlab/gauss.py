"""Gaussian sums, Farey fractions, smooth cutoffs, and arc decompositions.

The sphere symbol at large radius splits into a sum of arc terms indexed by
reduced fractions p/q, a tail term over large denominators, and an error
term, so the bookkeeping identity can be checked numerically.  Each
normalized 1-d Gauss sum G(p/q; x), x = 0..q-1, is tabulated once per
(p, q) in each call that needs it, the tables of one denominator by one
inverse DFT, and nothing keeps the tables after the call; d-dimensional
sums are products of table entries.
``decompose_arcs`` evaluates every arc term of a block of frequencies once,
in one vectorized pass over the fractions, and reads each cutoff n off a
prefix sum (major arcs, q < n) and a suffix sum (tail, q >= n) of those
terms; the pointwise functions are thin wrappers over the same kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .errors import DomainError, InfeasibleScale, RangeError
from .lattice import SphereSpec, nonempty_count, surface_measure
from .symbols import continuous_sphere_symbol_batch, nearest_lattice, sphere_multiplier_batch

__all__ = [
    "FareyFraction",
    "farey_set",
    "gauss_sum",
    "GaussIdentityReport",
    "verify_gauss_identities",
    "BumpCutoff",
    "THETA_CUTOFF",
    "eval_major_arc_term",
    "eval_minor_term",
    "DecompositionReport",
    "decomposition_error",
    "ArcDecomposition",
    "decompose_arcs",
    "COEFF_COST_BUDGET",
]

COEFF_COST_BUDGET = 1e10  # d lam^2, the cost estimate of decompose_arcs' coefficient extraction


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


def _gauss_tables(ps, q: int) -> np.ndarray:
    """G(p/q; x) for each p in ps (0 <= p < q) and x = 0..q-1, as a (len(ps), q) array.

    q^-1 sum_n e((n^2 p + x n)/q) over n mod q is the inverse DFT of the
    chirp e(n^2 p / q); the exponent n^2 p is reduced mod q in exact integer
    arithmetic before the complex exponential, so the phases stay small.
    One inverse DFT along the rows serves every p of the denominator.  q
    must be a Python int: the phase step 2 pi / q is then rounded once, as
    a float, for every caller.
    """
    n = np.arange(q, dtype=np.int64)
    chirps = (np.asarray(ps, dtype=np.int64)[:, np.newaxis] * (n * n)) % q
    return fft.ifft(np.exp((2j * math.pi / q) * chirps), axis=-1)


def gauss_sum(p: int, q: int, x) -> complex:
    """The d-dimensional normalized quadratic Gauss sum at integer offset x.

    q^-d sum over n in (Z_q)^d of e((|n|^2 p + <x, n>)/q), for gcd(p, q) = 1.
    Separates over coordinates as a product of 1-d sums read from the (p, q)
    table; a 1-d sum is the case of a one-entry x.
    """
    if q < 1:
        raise DomainError(f"denominator must be >= 1, got {q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"gauss_sum needs gcd(p, q) = 1, got p={p}, q={q}")
    table = _gauss_tables([p % q], q)[0]
    residues = [int(xj) % q for xj in np.asarray(x, dtype=object).ravel()]
    return complex(np.prod(table[residues]))


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
    covered by direct-sum tests at small (q, d).  A bound that overflows a
    float (q = 1 from d = 2048 on) raises ``InfeasibleScale``.
    """
    if q_max < 1 or d < 1:
        raise DomainError("need q_max >= 1 and d >= 1")
    rows = []
    for q in range(1, q_max + 1):
        ps = [p for p in range(0 if q == 1 else 1, q) if math.gcd(p, q) == 1]
        mags = np.abs(_gauss_tables(ps, q))
        sums_sq_1d = np.sum(mags * mags, axis=-1).tolist()
        sups_1d = mags.max(axis=-1).tolist()
        try:
            bound = (2.0 / q) ** (d / 2.0)
        except OverflowError:
            raise InfeasibleScale(f"the bound (2/q)^(d/2) overflows a float at q = {q}, d = {d}") from None
        for p, sum_sq_1d, sup_1d in zip(ps, sums_sq_1d, sups_1d):
            rows.append((q, p, d, abs(sum_sq_1d**d - 1.0), max(0.0, sup_1d**d - bound)))
    return GaussIdentityReport(tuple(rows))


def _smooth_step(u):
    """C^infinity ramp from 0 at u <= 0 to 1 at u >= 1, glued from e^(-1/u); elementwise."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    v = np.where(inside, u, 0.5)
    a = np.exp(-1.0 / v)
    b = np.exp(-1.0 / (1.0 - v))
    return np.where(inside, a / (a + b), np.where(u >= 1.0, 1.0, 0.0))[()]


@dataclass(frozen=True)
class BumpCutoff:
    """Product of 1-d smooth bumps: 1 on [-plateau, plateau], 0 outside (-support, support)."""

    plateau: float
    support: float

    def __post_init__(self) -> None:
        if not 0.0 < self.plateau < self.support:
            raise DomainError("need 0 < plateau < support")

    def profile(self, x):
        """The 1-d bump at each entry of x."""
        return _smooth_step((self.support - np.abs(x)) / (self.support - self.plateau))


THETA_CUTOFF = BumpCutoff(plateau=0.125, support=0.25)


def _farey_sorted(n: int) -> tuple[FareyFraction, ...]:
    """The arc fractions p/q with 1 <= p <= q <= n, ordered by (q, p).

    farey_set holds both 0/1 and 1/1, which index the same q = 1 arc; the
    Magyar-Stein-Wainger convention 1 <= p <= q keeps each arc once.
    """
    return tuple(sorted((f for f in farey_set(n) if f.p >= 1), key=lambda f: (f.q, f.p)))


def _arc_terms(spec: SphereSpec, fracs, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arc term and tail window of every fraction at every frequency, each (F, N).

    The arc term at p/q is
        lam^(d/2-1)/(2 r) * e^(-2 pi i lam p/q) * G(p/q; [[q xi]])
        * sigma_hat(t ([[q xi]]/q - xi)),
    with sigma_hat the surface measure times the continuous symbol; the
    window is THETA(q xi - [[q xi]]).  Only the lattice point [[q xi]] can
    fall inside the window: its support has half-width 1/4.
    """
    count = nonempty_count(spec)
    d, lam = spec.d, spec.lam
    ps = np.array([f.p % f.q for f in fracs], dtype=np.int64)
    qs = np.array([f.q for f in fracs], dtype=np.int64)
    q_col = qs[:, None, None]
    scaled = q_col * xis
    nearest = nearest_lattice(scaled)
    offset = nearest / q_col - xis
    radius = spec.radius * np.linalg.norm(offset, axis=-1)
    sigma_hat = surface_measure(d) * continuous_sphere_symbol_batch(d, radius)
    prefactor = float(lam) ** (d / 2.0 - 1.0) / (2.0 * count)
    phase = np.exp(-2j * math.pi * ((lam * ps) % qs) / qs)
    # each fraction's Gauss factors are one gather from its 1-d table, and each
    # run of fractions with one denominator shares one batch of tables
    residues = nearest % q_col
    factors = np.empty(residues.shape, dtype=complex)
    start = 0
    for q, run in itertools.groupby(fracs, key=lambda f: f.q):
        run_ps = [f.p % q for f in run]
        stop = start + len(run_ps)
        rows = np.arange(len(run_ps))[:, np.newaxis, np.newaxis]
        factors[start:stop] = _gauss_tables(run_ps, q)[rows, residues[start:stop]]
        start = stop
    terms = (prefactor * phase)[:, None] * factors.prod(axis=-1) * sigma_hat
    windows = THETA_CUTOFF.profile(scaled - nearest).prod(axis=-1)
    return terms, windows


def _cutoff_sums(spec: SphereSpec, xis: np.ndarray, cutoffs) -> tuple[np.ndarray, np.ndarray]:
    """Major-arc sums (q < n) and tails (q >= n) at each cutoff n, each (C, N).

    Every arc term is evaluated once; the fractions are ordered by q, so the
    major-arc sum at n is a prefix sum of the terms and the tail a suffix
    sum of the windowed terms.
    """
    if spec.lam == 0:
        raise DomainError("tail term needs lam >= 1")
    big_n = math.isqrt(spec.lam)
    for n in cutoffs:
        if not 1 <= n <= big_n + 1:
            raise RangeError(f"need 1 <= n <= floor(t) + 1 = {big_n + 1}, got {n}")
    fracs = _farey_sorted(big_n)
    terms, windows = _arc_terms(spec, fracs, xis)
    zero = np.zeros((1, xis.shape[0]), dtype=complex)
    prefix = np.concatenate([zero, np.cumsum(terms, axis=0)])
    suffix = np.concatenate([np.cumsum((terms * windows)[::-1], axis=0)[::-1], zero])
    split = np.searchsorted([f.q for f in fracs], np.asarray(cutoffs, dtype=np.int64))
    return prefix[split], suffix[split]


def eval_major_arc_term(spec: SphereSpec, frac: FareyFraction, xi) -> complex:
    """Single arc contribution at the fraction p/q.

    lam^(d/2-1)/(2 r) * e^(-2 pi i lam p/q) * G(p/q; [[q xi]])
    * sigma_hat(t ([[q xi]]/q - xi)).
    """
    terms, _ = _arc_terms(spec, (frac,), np.asarray(xi, dtype=float)[np.newaxis])
    return complex(terms[0, 0])


def eval_minor_term(spec: SphereSpec, n: int, xi) -> complex:
    """Tail over fractions with denominator >= n, cut off by the narrow bump.

    The inner lattice sum collapses to the single candidate [[q xi]]: the
    cutoff support has half-width 1/4, so no other integer vector can land
    inside it.
    """
    _, tail = _cutoff_sums(spec, np.asarray(xi, dtype=float)[np.newaxis], (n,))
    return complex(tail[0, 0])


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


@dataclass(frozen=True, eq=False)
class ArcDecomposition:
    """Arc decomposition of the sphere symbol at N frequencies and C cutoffs.

    ``major``, ``minor`` and ``error`` are complex (C, N) arrays indexed by
    cutoff and frequency, with major + minor + error = symbol.
    """

    spec: SphereSpec
    cutoffs: tuple[int, ...]
    xis: np.ndarray
    major: np.ndarray
    minor: np.ndarray
    error: np.ndarray
    paper_bound: float

    def report(self, k: int, i: int) -> DecompositionReport:
        """The decomposition at cutoff ``cutoffs[k]`` and frequency ``xis[i]``."""
        return DecompositionReport(
            spec=self.spec,
            cutoff_index=self.cutoffs[k],
            xi=tuple(self.xis[i]),
            major_sum=complex(self.major[k, i]),
            minor_term=complex(self.minor[k, i]),
            total_error=complex(self.error[k, i]),
            paper_bound=self.paper_bound,
        )


def decompose_arcs(spec: SphereSpec, xis, cutoffs) -> ArcDecomposition:
    """Exact symbol minus arcs with denominator < n minus the tail at n, for every n.

    Rows of ``xis`` are frequencies.  The exact symbol is one coefficient
    extraction over all of them, and every arc term is evaluated once for
    all cutoffs.  The error term is defined by the difference, so
    major + minor + error = symbol identically; the recorded envelope is
    d^(3d/4) / lam^(d/4 - 1).  The arcs and the envelope come before the
    extraction, so a cutoff out of range, or an envelope that overflows a
    float (d^(3d/4) does from d = 182 on; ``InfeasibleScale``), stops the
    call before it pays for the extraction, as does an estimate d lam^2
    above ``COEFF_COST_BUDGET``.
    """
    if spec.d < 2:
        raise DomainError("decomposition needs d >= 2")
    cost = spec.d * float(spec.lam) ** 2
    if cost > COEFF_COST_BUDGET:
        raise InfeasibleScale(f"coefficient extraction estimate {cost:.3e} exceeds budget {COEFF_COST_BUDGET:.3e}")
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    cutoffs = tuple(int(n) for n in cutoffs)
    major, minor = _cutoff_sums(spec, xis, cutoffs)
    try:
        bound = float(spec.d) ** (0.75 * spec.d) / float(spec.lam) ** (spec.d / 4.0 - 1.0)
    except OverflowError:
        raise InfeasibleScale(
            f"the envelope d^(3d/4) / lam^(d/4 - 1) overflows a float at d = {spec.d}, lam = {spec.lam}"
        ) from None
    symbol = sphere_multiplier_batch(spec, xis)
    return ArcDecomposition(
        spec=spec,
        cutoffs=cutoffs,
        xis=xis,
        major=major,
        minor=minor,
        error=symbol - major - minor,
        paper_bound=bound,
    )


def decomposition_error(spec: SphereSpec, n: int, xi) -> DecompositionReport:
    """decompose_arcs at one frequency and one cutoff n."""
    xi = np.asarray(xi, dtype=float)
    return decompose_arcs(spec, xi[np.newaxis], (n,)).report(0, 0)
