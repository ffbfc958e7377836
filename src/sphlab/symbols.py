"""Pointwise evaluation of the Fourier symbols on the torus.

Covers the normalized exponential sum over a lattice sphere, its two
Gaussian approximants, the discrete heat-semigroup symbol, the Fourier
transform of the normalized surface measure of the continuous sphere (as
its projection integral, by a fixed quadrature rule), and sampled surveys
of how well the approximants track the exact symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import fft
from numpy.random import Generator, Philox

from .errors import DomainError, InfeasibleScale, RegimeViolation
from .lattice import SphereSpec, _count_table, nonempty_count

__all__ = [
    "periodic_norm",
    "nearest_lattice",
    "sphere_multiplier_batch",
    "eval_gaussian_approximant",
    "eval_semigroup_symbol",
    "continuous_sphere_symbol_batch",
    "eval_continuous_sphere_symbol",
    "eval_folded_symbol",
    "count_negative_cos",
    "ResidualSurvey",
    "residual_survey",
    "fit_small_scale_constant",
]

def nearest_lattice(x) -> np.ndarray:
    """The integer vector [[x]] with x - [[x]] in the half-open cube [-1/2, 1/2)^d."""
    x = np.asarray(x, dtype=float)
    return np.floor(x + 0.5).astype(np.int64)


def periodic_norm(x):
    """(sum_j dist(x_j, Z)^2)^(1/2) over the last axis; equals |x| for x in the unit cube."""
    x = np.asarray(x, dtype=float)
    frac = np.abs(x - np.round(x))
    return np.sqrt(np.sum(frac * frac, axis=-1))[()]


# Rows of frequencies per cache block: each (lam + 1, rows) work array holds at
# most 2**15 float64 entries (256 KiB), so the block's buffers stay in L2.
_BLOCK_ENTRIES = 2**15
MAX_SURVEY_ENTRIES = 1 << 26  # entries of a survey's (samples + 1, d) draw, as many as fields.MAX_SITES


def sphere_multiplier_batch(spec: SphereSpec, xis: np.ndarray) -> np.ndarray:
    """Normalized sphere exponential sums at a batch of frequencies.

    Rows of ``xis`` are frequency vectors.  The numerator of each value is the
    z^lam coefficient of prod_j sum_{k^2 <= lam} e^(2 pi i k xi_j) z^(k^2);
    pairing +-k makes every 1-d factor real, so the product is evaluated with
    real truncated-polynomial multiplications and Kahan compensation across
    the shifted adds.

    The truncated product is held degree-major, as a (lam + 1, rows) array,
    so every shifted slice is one contiguous block and each frequency's
    weight broadcasts along the rows.  Rows run in blocks of
    max(1, 2**15 // (lam + 1)), so the kernel's memory is bounded per block
    instead of growing as N x lam.  The first factor is scattered directly
    (its Kahan adds onto the product 1 are exact) and the last factor
    computes only the z^lam coefficient, with the same Kahan recurrence.  A
    middle factor with a list from ``_reachable_degrees`` runs that
    recurrence on the listed degrees only; every other degree of its product
    is 0 or never read again.  So every degree that reaches z^lam gets the
    floating-point operations of the full passes, and every row the bits.
    Non-finite frequencies and arrays that are not (N, d) raise DomainError.
    """
    count = nonempty_count(spec)
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if xis.ndim != 2 or xis.shape[1] != spec.d:
        raise DomainError(f"frequencies must be an (N, {spec.d}) array, got shape {xis.shape}")
    if not np.isfinite(xis).all():
        raise DomainError("frequencies must be finite")
    nbatch = xis.shape[0]
    lam = spec.lam
    if lam == 0:
        return np.ones(nbatch)
    ks = np.arange(1, math.isqrt(lam) + 1)
    squares = ks * ks
    # each listed factor's degrees, and for each k the offset of its first degree >= k^2
    listed = {}
    for j, dest in _reachable_degrees(spec.d, lam).items():
        starts = np.searchsorted(dest, squares)
        listed[j] = dest, starts[starts < len(dest)].tolist()
    rows = max(1, _BLOCK_ENTRIES // (lam + 1))
    coeff = np.empty(nbatch)
    for start in range(0, nbatch, rows):
        coeff[start : start + rows] = _sphere_coefficient_block(xis[start : start + rows], ks, lam, listed)
    return coeff / count


def _reachable_degrees(d: int, lam: int) -> dict[int, np.ndarray]:
    """The sorted degrees middle factor j must hold, for each j that need not hold every one.

    After factor 1 the product of factors 0 and 1 is 0 outside the sums of
    two squares S_2.  From factor d - 3 on, the d - 1 - j factors still to
    come add d - 1 - j squares, so only degrees i with lam - i in
    S_(d-1-j) are read on the way to z^lam.  S_1 and S_2 are the degrees
    with positive exact counts r_1 and r_2, from uncached tables.
    """
    if d < 3:
        return {}
    reachable = {m: _count_table(m, lam) > 0 for m in (1, 2)}
    lists = {}
    for j in range(1, d - 1):
        keep = np.ones(lam + 1, dtype=bool)
        if j == 1:
            keep &= reachable[2]
        if d - 1 - j <= 2:
            keep &= reachable[d - 1 - j][::-1]
        if not keep.all():
            lists[j] = np.flatnonzero(keep)
    return lists


def _kahan_add(y: np.ndarray, total: np.ndarray, comp: np.ndarray, out: np.ndarray) -> None:
    """y -= c; out = s + y; c = (out - s) - y: the compensated add of y onto the sum s, in place."""
    np.subtract(y, comp, out=y)
    np.add(total, y, out=out)
    np.subtract(out, total, out=comp)
    np.subtract(comp, y, out=comp)


def _sphere_coefficient_block(xis: np.ndarray, ks: np.ndarray, lam: int, listed: dict) -> np.ndarray:
    """The unnormalized z^lam coefficients for one block of frequency rows.

    ``listed`` maps a middle factor j to its sorted degrees and, per k, the
    offset of the first of them >= k^2, for each k that has one.
    """
    nrows, d = xis.shape
    squares = ks * ks

    def weights(j):  # (len(ks), nrows): the weight of z^(k^2) in factor j, per row
        return (2.0 * np.cos(2.0 * np.pi * np.outer(xis[:, j], ks))).T

    # the first factor times the product 1: its Kahan adds are exact
    poly = np.zeros((lam + 1, nrows))
    poly[0] = 1.0
    poly[squares] = weights(0)
    new = np.empty_like(poly)
    comp = np.empty_like(poly)
    y = np.empty_like(poly)
    t = np.empty_like(poly)
    sources = np.empty(lam + 1, dtype=np.intp)
    for j in range(1, d - 1):
        if j not in listed:
            np.copyto(new, poly)  # k = 0 contribution
            comp.fill(0.0)
            for w, sq in zip(weights(j), squares):
                n = lam + 1 - sq
                np.multiply(poly[:n], w, out=y[:n])
                _kahan_add(y[:n], new[sq:], comp[sq:], t[sq:])
                # t holds the sum from degree sq on; its head is the sum's unchanged head
                np.copyto(t[:sq], new[:sq])
                new, t = t, new
            poly, new = new, poly
        else:
            # the same recurrence on the listed degrees, packed into the buffers' fronts
            dest, starts = listed[j]
            n = len(dest)
            total, spare, cs = new[:n], t[:n], comp[:n]
            # mode="clip" writes straight into out=; every index is in range
            np.take(poly, dest, axis=0, out=total, mode="clip")
            cs.fill(0.0)
            for w, sq, start in zip(weights(j), squares, starts):
                src = np.subtract(dest[start:], sq, out=sources[: n - start])
                yk = np.take(poly, src, axis=0, out=y[: n - start], mode="clip")
                np.multiply(yk, w, out=yk)
                _kahan_add(yk, total[start:], cs[start:], spare[start:])
                np.copyto(spare[:start], total[:start])
                total, spare = spare, total
            poly.fill(0.0)
            poly[dest] = total
    if d == 1:
        return poly[lam]
    # the last factor: the same recurrence at the z^lam coefficient only
    total = poly[lam].copy()
    carry = np.zeros(nrows)
    for w, sq in zip(weights(d - 1), squares):
        step = w * poly[lam - sq] - carry
        after = total + step
        carry = (after - total) - step
        total = after
    return total


def _branch_trig_sum(xi, is_cos):
    """sum_j cos^2(pi xi_j) where is_cos, else sum_j sin^2(pi xi_j), over the last axis of xi."""
    trig = np.where(is_cos[..., np.newaxis], np.cos(np.pi * xi), np.sin(np.pi * xi))
    return np.sum(trig**2, axis=-1)


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
    value = np.exp(-(spec.lam / spec.d) * _branch_trig_sum(xi, is_cos))
    return np.where(is_cos & (spec.lam % 2 == 1), -value, value)[()]


def eval_semigroup_symbol(time: float, xi):
    """Discrete heat-semigroup symbol exp(-t sum_k sin^2(pi xi_k)), over the last axis of xi."""
    if time <= 0:
        raise DomainError(f"semigroup time must be > 0, got {time}")
    xi = np.asarray(xi, dtype=float)
    return np.exp(-time * np.sum(np.sin(np.pi * xi) ** 2, axis=-1))


# Quadrature rules come in bands of this many nodes, so a few rules, each
# built once per dimension, serve every radius.
_RULE_BAND = 32
# Cosines one batch may evaluate, a few seconds' work: the rule's cost grows
# with the radius, so a batch past it raises InfeasibleScale.
_RULE_BUDGET = 2**28


def _rule_size(d: int, x: np.ndarray) -> np.ndarray:
    """Nodes m of the rule at x = 2 pi r, as floats: past the order where J_k(x) < eps.

    The integrand's Chebyshev coefficients are Bessel values J_k(x), spread
    by the weight's degree d, and they fall below eps once
    k > x + 10 x^(1/3) + 40; so 2m >= x + d + 10 x^(1/3) + 40, doubled for
    odd d, whose Fejer rule is exact to degree m - 1 rather than 2m - 1.
    """
    need = (x + d + 10.0 * np.cbrt(x) + 40.0) / (1.0 if d % 2 else 2.0)
    return _RULE_BAND * np.ceil(need / _RULE_BAND)


def _fejer_weights(m: int) -> np.ndarray:
    """Fejer's first rule for int_-1^1 g(s) ds on the nodes cos((k + 1/2) pi / m).

    w_k = (2/m) (1 - 2 sum_{1 <= j <= m/2} cos(2 j theta_k) / (4 j^2 - 1)), a
    cosine sum at the half-integer angles theta_k, summed by one inverse FFT
    of length 2m (Waldvogel, BIT 46 (2006) 195-202).
    """
    j = np.arange(m)
    coeff = np.zeros(m)
    coeff[0] = 1.0
    coeff[2::2] = 2.0 / (1.0 - j[2::2] ** 2.0)
    return 4.0 * fft.ifft(coeff * np.exp(0.5j * np.pi / m * j), 2 * m)[:m].real


@lru_cache(maxsize=256)
def _projection_rule(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_k = cos((k + 1/2) pi / m), k < m/2, and weights summing to 1.

    The rule integrates g(s) (1 - s^2)^((d-3)/2) ds over [-1, 1] for even g,
    so only the nodes with s_k > 0 are kept.  Even d: Gauss-Chebyshev, whose
    weights pi/m times sin^(d-2) theta_k carry the polynomial
    (1 - s^2)^((d-2)/2).  Odd d: Fejer's first rule times sin^(d-3) theta_k.
    Normalizing by the rule's own sum sends the symbol at r = 0 to 1.
    """
    theta = (np.arange(m // 2) + 0.5) * (math.pi / m)
    if d % 2 == 0:
        weights = np.sin(theta) ** (d - 2)
    else:
        weights = _fejer_weights(m)[: m // 2] * np.sin(theta) ** (d - 3)
    weights /= weights.sum()
    nodes = np.cos(theta)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def continuous_sphere_symbol_batch(d: int, radii) -> np.ndarray:
    """Fourier transform of the normalized surface measure at radial frequencies.

    This is the closed form Gamma(d/2) (pi r)^(1 - d/2) J_(d/2 - 1)(2 pi r)
    of Grafakos, Classical Fourier Analysis, App. B.4, evaluated as its
    projection integral
        int_-1^1 cos(2 pi r s) (1 - s^2)^((d-3)/2) ds / int_-1^1 (1 - s^2)^((d-3)/2) ds
    by the fixed rule of ``_projection_rule``, with m nodes set per radius by
    ``_rule_size`` (within 1e-13 of the closed form for r up to 45 at
    d = 2..29).  Each radius is summed on its own row, so its value does not
    depend on the rest of the batch, and rows run in blocks of bounded
    memory.  Below r = 1e-9 the value 1 - 2 pi^2 r^2 / d rounds to 1.0,
    which is returned directly.  Non-finite radii raise DomainError, and a
    batch needing more than 2**28 cosines raises InfeasibleScale.
    """
    if d < 2:
        raise DomainError(f"needs d >= 2, got {d}")
    radii = np.abs(np.asarray(radii, dtype=float))
    if not np.isfinite(radii).all():
        raise DomainError("radii must be finite")
    x = 2.0 * math.pi * radii.ravel()
    out = np.ones_like(x)
    sizes = np.where(radii.ravel() >= 1e-9, _rule_size(d, x), 0.0)  # 0: the value is 1.0
    work = sizes.sum() / 2.0
    if work > _RULE_BUDGET:
        raise InfeasibleScale(f"the sphere-measure rule needs {work:.3g} cosines, over {_RULE_BUDGET}")
    for m in sorted(set(sizes.tolist()) - {0.0}):
        nodes, weights = _projection_rule(d, int(m))
        rows = np.flatnonzero(sizes == m)
        step = max(1, _BLOCK_ENTRIES // len(nodes))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            terms = np.cos(np.multiply.outer(x[block], nodes))
            terms *= weights
            out[block] = terms.sum(axis=1)
    return out.reshape(radii.shape)


@lru_cache(maxsize=65536)
def eval_continuous_sphere_symbol(d: int, radius: float) -> float:
    """continuous_sphere_symbol_batch at one radius, bit for bit.

    No package code calls it: the tests keep it as the oracle of the folded
    survey column, and the benchmark tracer reads its ``cache_info()``.
    """
    return float(continuous_sphere_symbol_batch(d, float(radius)))


def eval_folded_symbol(spec: SphereSpec, xi):
    """The sphere-measure symbol folded onto the torus, over the last axis of xi.

    Evaluates the continuous symbol at t (xi - [[xi]]); 1-periodic in each
    coordinate because only the distance of xi to Z^d enters.
    """
    return continuous_sphere_symbol_batch(spec.d, spec.radius * periodic_norm(xi))[()]


def count_negative_cos(xi):
    """#{j : cos(2 pi xi_j) < 0} over the last axis of xi: the coordinates steering the branch."""
    xi = np.asarray(xi, dtype=float)
    return np.count_nonzero(np.cos(2.0 * np.pi * xi) < 0.0, axis=-1)


@dataclass(frozen=True, eq=False)
class ResidualSurvey:
    """A residual survey as columns, one row per surveyed frequency.

    ``xis`` is (N, d); every other field is (N,): the exact symbol, its
    approximant, the branch name, #{j : cos(2 pi xi_j) < 0}, the residual
    |exact - approx|, the regime's bound, and the branch trig sum
    S = sum_j sin^2(pi xi_j) ("sin") or sum_j cos^2(pi xi_j) ("cos").
    """

    xis: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    branch: np.ndarray
    v_card: np.ndarray
    residual: np.ndarray
    bound: np.ndarray
    trig_sum: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        """residual / bound, with the 0/0 corner (e.g. xi = 0) read as 0 and x/0 as inf."""
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = self.residual / self.bound
        return np.where(self.bound > 0.0, quotient, np.where(self.residual == 0.0, 0.0, math.inf))


def _survey_points(d: int, samples: int, seed: int) -> np.ndarray:
    """xi = 0 followed by ``samples`` uniform draws from [-1/2, 1/2)^d.

    Philox is counter-based, so the stream is reproducible across platforms.
    More than ``MAX_SURVEY_ENTRIES`` entries raise ``InfeasibleScale`` before any allocation.
    """
    if (samples + 1) * d > MAX_SURVEY_ENTRIES:
        raise InfeasibleScale(f"{samples + 1} x {d} survey entries exceeds the {MAX_SURVEY_ENTRIES} budget")
    rng = Generator(Philox(seed))
    pts = np.zeros((samples + 1, d))
    pts[1:] = rng.random((samples, d)) - 0.5
    return pts


def residual_survey(spec: SphereSpec, regime: str, samples: int, seed: int) -> ResidualSurvey:
    """Sampled comparison of the exact symbol against its regime approximant.

    regime "small" and "intermediate" compare the sphere symbol with the
    Gaussian approximants and record the corresponding error envelopes
    (the unknown absolute constants are reported as 1).  regime "folded"
    compares the folded continuous symbol with the semigroup symbol at time
    lam/d, on the "sin" branch.  Draws are deterministic in ``seed`` and
    xi = 0 is always injected as the first sample.
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

    folded = regime == "folded"
    points = _survey_points(d, samples, seed)
    exact = eval_folded_symbol(spec, points) if folded else sphere_multiplier_batch(spec, points)
    v_card = count_negative_cos(points)
    branch = np.where((v_card <= d / 2) | folded, "sin", "cos")
    is_cos = branch == "cos"
    trig_sum = _branch_trig_sum(points, is_cos)
    if folded:
        approx = eval_semigroup_symbol(lam / d, points)
        norm = periodic_norm(points)
        t = spec.radius
        with np.errstate(divide="ignore"):  # norm 0 gives min(0, inf) = 0
            bound = np.minimum(t**2 / d * norm**2, t**-0.5 * d**0.25 / np.sqrt(norm))
    else:
        approx = eval_gaussian_approximant(spec, points, branch)
        if regime == "small":
            # unknown constant c in the exponential wing reported as 1
            bound = np.minimum(np.exp(-(kappa**2) * trig_sum / 400.0), kappa**2 * trig_sum)
        else:
            scaled = kappa * periodic_norm(np.where(is_cos[:, np.newaxis], points + 0.5, points))
            with np.errstate(divide="ignore"):  # scaled 0 gives min(0, inf) = 0
                bound = np.minimum(scaled, 1.0 / scaled) + 1.0 / kappa
    residual = np.abs(exact - approx)
    return ResidualSurvey(points, exact, approx, branch, v_card, residual, bound, trig_sum)


def fit_small_scale_constant(survey: ResidualSurvey, kappa_sq: float) -> float:
    """Largest c in (0, 1] whose exponential wing dominates wherever it binds.

    The small-scale envelope is min{e^(-c kappa^2 S/400), kappa^2 S} with S
    the survey's branch trig sum.  Growing c both shrinks the exponential
    wing and widens the region where it is the smaller side, so domination
    is monotone in c and bisection applies; 0 means not even the flattest
    wing dominates, 1 means the wing never binds or always dominates.
    The bisection stops once its bracket is narrower than 1e-4.
    """
    trig_sum, residual = survey.trig_sum, survey.residual

    def dominated(c: float) -> bool:
        wing = np.exp(-c * kappa_sq * trig_sum / 400.0)
        return not np.any((wing <= kappa_sq * trig_sum) & (residual > wing))

    if not dominated(0.0):
        return 0.0
    if dominated(1.0):
        return 1.0
    low, high = 0.0, 1.0
    while high - low > 1e-4:
        mid = (low + high) / 2.0
        if dominated(mid):
            low = mid
        else:
            high = mid
    return low
