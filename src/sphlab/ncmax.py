"""Order-interval maximal norms for finite Hermitian families.

For selfadjoint families the maximal norm is the smallest p-norm of a
positive majorant a with -a <= x_k <= a in the Loewner order.  The problem
decouples over sites for p in {2, inf}.  At p = inf the optimal majorant is
the closed form max_k ||x_k||_op times the identity at each site.  At p = 2
all fiber problems are solved in one batch by accelerated Gauss-Seidel
sweeps on the dual, whose value is a certified lower bound; each site
keeps its own momentum and restarts it when its dual value falls or the
gradient test fires, so the independent fibers do not reset one another.
An identity shift of the dual's primal point gives a feasible upper
bound.  A site whose two bounds meet its share of the tolerance is frozen
and leaves the batch, and the solve stops when every site is frozen or the
summed bounds are within tolerance.  At n = 2 the fibers are held as four
real Pauli coordinates, in which the positive cone is the Lorentz cone and
every eigen step has a closed form; larger fibers project by batched LAPACK
``eigh``, which the tests keep as the n = 2 oracle, and take the shift
from a Weyl bound on the sweep's later moves, with no eigen step.  The
scalar (n = 1) and commuting cases collapse to the pointwise supremum and
serve as exact oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, InfeasibleScale, NonHermitianInput
from .fields import MAX_SITES, DyadicRange, TorusField, _scale_symbols, _Scratch, dyadic_maximal

__all__ = [
    "HermitianStack",
    "MajorantSolution",
    "lp_norm",
    "order_interval_majorant",
    "MaximalRatioStats",
    "empirical_maximal_ratio",
    "random_hermitian_stack",
]

# relative change below which two per-site norms or dual values tie to rounding
_TIE = 16.0 * np.finfo(float).eps


def _check_p(p) -> float:
    p = float(p)
    if p not in (2.0, math.inf):
        raise DomainError(f"only p = 2 and p = inf are supported, got {p}")
    return p


def lp_norm(f: TorusField, p) -> float:
    """Trace p-norm of a field: singular values summed over all sites.

    p = 2 is the Frobenius norm across sites and fibers; p = inf is the
    largest singular value over all sites.
    """
    p = _check_p(p)
    if p == 2.0:
        mags = np.abs(f.values)
        return float(np.sqrt(np.sum(np.square(mags, out=mags))))
    if not f.is_matrix:
        return float(np.abs(f.values).max(initial=0.0))
    mats = f.values.reshape(-1, f.fiber, f.fiber)
    return float(np.linalg.svd(mats, compute_uv=False).max(initial=0.0))


@dataclass(frozen=True)
class HermitianStack:
    """An ordered family of Hermitian matrix fields sharing a flat site list.

    matrices has shape (K, sites, n, n) with n >= 1, else ``DomainError``;
    every entry must be finite and each fiber Hermitian to within ``tol``,
    else ``NonHermitianInput``.
    """

    matrices: np.ndarray
    tol: float = 1e-12

    def __post_init__(self) -> None:
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 4 or m.shape[-1] != m.shape[-2]:
            raise DomainError("expected shape (K, sites, n, n)")
        if m.shape[-1] < 1:
            raise DomainError("fiber size must be at least 1")
        if not np.isfinite(m).all():
            raise NonHermitianInput("matrix entries must be finite")
        dev = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max(initial=0.0)
        if dev > self.tol:
            raise NonHermitianInput(f"Hermitian deviation {dev:.3e} above {self.tol:.1e}")
        object.__setattr__(self, "matrices", m)

    @property
    def family_size(self) -> int:
        return self.matrices.shape[0]

    @property
    def sites(self) -> int:
        return self.matrices.shape[1]

    @property
    def fiber(self) -> int:
        return self.matrices.shape[-1]


@dataclass(frozen=True)
class MajorantSolution:
    """A feasible majorant, its achieved norm, and a certified lower bound on the optimum."""

    majorant: np.ndarray  # (sites, n, n)
    value: float
    lower_bound: float
    converged: bool
    iterations: int  # dual sweeps at p = 2, 0 at p = inf
    site_sweeps: int  # (site, sweep) pairs swept at p = 2, 0 at p = inf


class _MatrixCone:
    """n x n Hermitian fibers as complex matrices, eigen steps by batched LAPACK.

    Arrays have shape (..., sites, n, n); per-site quantities broadcast
    against them after ``expand``.
    """

    def __init__(self, n: int) -> None:
        self.eye = np.eye(n, dtype=complex)

    @staticmethod
    def coords(m: np.ndarray) -> np.ndarray:
        return m

    @staticmethod
    def matrices(h: np.ndarray) -> np.ndarray:
        return h

    @staticmethod
    def expand(s: np.ndarray) -> np.ndarray:
        return s[..., np.newaxis, np.newaxis]

    @staticmethod
    def take(h: np.ndarray, sites: np.ndarray) -> np.ndarray:
        return h.take(sites, axis=-3)

    @staticmethod
    def put(out: np.ndarray, sites: np.ndarray, h: np.ndarray) -> None:
        out[..., sites, :, :] = h

    @staticmethod
    def extremes(h: np.ndarray):
        vals = np.linalg.eigvalsh(h)
        return vals[..., 0], vals[..., -1]

    def repair(self, a: np.ndarray, ys: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        # Block j clips M_j = Z_j + y_j - a, which leaves the running sum with
        # a - y_j = P+(-M_j) >= 0; the later blocks move it by
        # R_j = sum_{i>j} (Z_i - V_i), so by Weyl a shift by
        # max_j ||R_j||_F >= ||R_j||_op is feasible, with no eigen step
        suffix = np.cumsum((z - v)[:0:-1], axis=0)
        return np.sqrt(self.sq_norm(suffix).max(axis=0))

    @staticmethod
    def project(h: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(h)
        clipped = vecs * np.maximum(vals, 0.0)[..., np.newaxis, :]
        return clipped @ np.conj(np.swapaxes(vecs, -1, -2))

    @staticmethod
    def sq_norm(h: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(h) ** 2, axis=(-2, -1))

    @staticmethod
    def dot(z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.sum(np.sum((np.conj(z) * y).real, axis=0), axis=(-2, -1))


class _LorentzCone:
    """2 x 2 Hermitian fibers as real Pauli coordinates, eigen steps in closed form.

    H = h0 I + h1 sx + h2 sy + h3 sz has eigenvalues h0 +- |h|, so H >= 0
    exactly when h0 >= |h|: the positive cone is the Lorentz cone.  Arrays
    have shape (..., 4, sites) with the sites last, so per-site quantities
    broadcast as they are; <Z, Y> = 2 (z0 y0 + z.y) and
    ||H||^2 = 2 (h0^2 + |h|^2).
    """

    eye = np.array([1.0, 0.0, 0.0, 0.0])[:, np.newaxis]

    @staticmethod
    def coords(m: np.ndarray) -> np.ndarray:
        # reads the lower triangle, as LAPACK does
        d0, d1, low = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
        return np.stack([(d0 + d1) / 2.0, low.real, low.imag, (d0 - d1) / 2.0], axis=-2)

    @staticmethod
    def matrices(h: np.ndarray) -> np.ndarray:
        h0, h1, h2, h3 = np.moveaxis(h, -2, 0)
        entries = np.stack([h0 + h3, h1 - 1j * h2, h1 + 1j * h2, h0 - h3], axis=-1)
        return entries.reshape(entries.shape[:-1] + (2, 2))

    @staticmethod
    def expand(s: np.ndarray) -> np.ndarray:
        return s

    @staticmethod
    def take(h: np.ndarray, sites: np.ndarray) -> np.ndarray:
        return h.take(sites, axis=-1)

    @staticmethod
    def put(out: np.ndarray, sites: np.ndarray, h: np.ndarray) -> None:
        out[..., sites] = h

    @staticmethod
    def radius(h: np.ndarray) -> np.ndarray:
        vec = h[..., 1:, :]
        return np.sqrt(np.add.reduce(vec * vec, axis=-2))

    def extremes(self, h: np.ndarray):
        h0, radius = h[..., 0, :], self.radius(h)
        return h0 - radius, h0 + radius

    def repair(self, a: np.ndarray, ys: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        # the worst infeasibility over the members, exact in closed form
        gaps = a - ys
        return np.maximum(0.0, -(gaps[..., 0, :] - self.radius(gaps)).min(axis=0))

    def project(self, h: np.ndarray) -> np.ndarray:
        # clip the eigenvalues h0 +- |h| at 0; |h| = 0 leaves no vector part
        h0, radius = h[..., 0, :], self.radius(h)
        up = np.maximum(h0 + radius, 0.0)
        down = np.maximum(h0 - radius, 0.0)
        scale = np.divide(up - down, 2.0 * radius, out=np.zeros(radius.shape), where=radius > 0)
        out = np.empty_like(h)
        out[..., 0, :] = (up + down) / 2.0
        np.multiply(scale[..., np.newaxis, :], h[..., 1:, :], out=out[..., 1:, :])
        return out

    @staticmethod
    def sq_norm(h: np.ndarray) -> np.ndarray:
        return 2.0 * np.add.reduce(h * h, axis=-2)

    @staticmethod
    def dot(z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 2.0 * np.add.reduce(np.add.reduce(z * y, axis=0), axis=-2)


def _cone(n: int):
    """The positive cone of n x n Hermitian fibers, in closed form at n = 2.

    Both cones map (..., sites, n, n) matrices to their own layout and back
    (``coords``, ``matrices``) and give, in that layout, the identity
    ``eye``, a per-site array made broadcastable (``expand``), the sites
    picked out of an array (``take``) or written into one (``put``), the
    lowest and highest eigenvalues (``extremes``), the projection onto the
    cone (``project``), the squared Frobenius norm of each fiber
    (``sq_norm``), the real inner product summed over the leading member
    axis (``dot``) and the identity shift that makes a sweep's primal point
    feasible (``repair``).  Every reduction runs in an order that does not
    depend on the number of sites, so a batch gives each site the bits it
    gets alone.
    """
    return _LorentzCone() if n == 2 else _MatrixCone(n)


def _solve_p2(xs: np.ndarray, tol: float, max_iter: int):
    """Accelerated Gauss-Seidel dual sweeps for every p = 2 fiber problem at once.

    The fiber problem min ||a||^2 / 2 subject to a >= y_j for y_j = +-x_k
    has the dual max sum_j <Z_j, y_j> - ||sum_j Z_j||^2 / 2 over Z_j >= 0,
    with primal point a = sum_j Z_j.  In one block the dual gradient y_j - a
    is 1-Lipschitz, so Z_j <- P+(Z_j + y_j - a), an eigenvalue clip onto the
    positive cone, is the block's exact maximizer.  A sweep takes the 2K
    blocks in turn and updates a after each (Hildreth, Boyle-Dykstra;
    accelerated as in Beck-Tetruashvili), at the eigen cost of one FISTA
    step.  Each site carries its own momentum t and restarts it at 1 when
    its dual value falls by more than rounding or the gradient test
    <V - Z_new, Z_new - Z> > 0 fires there (O'Donoghue-Candes); the test
    alone let one fiber's dual cycle for 10,000 sweeps.  Any dual value d
    certifies ||a|| >= sqrt(2 d) at its site, and a shifted by the identity
    times the cone's ``repair`` is feasible.

    A site s whose squared best norm B_s and bound L_s satisfy
    B_s - L_s <= 2 tol L_s / sqrt(sum B), the sum taken over all sites, is
    frozen: its best majorant and bound are written out and it leaves the
    working arrays.  The solve stops when every site is frozen or when the
    summed-in-squares best norm and bound are within ``tol``.  Every sum B
    read at a freeze is at least the final sum L, so the frozen sites add
    at most 2 tol sqrt(sum L) to sum B - sum L, and either stop certifies
    sqrt(sum B) - sqrt(sum L) <= tol.  At tol 0 a site freezes exactly when
    its own gap is 0, as it would stop if solved alone.

    At n = 2 the iterates are Pauli coordinates and every eigen step is the
    closed form of the Lorentz cone (``_LorentzCone``); larger fibers use
    batched LAPACK ``eigh`` and an eigen-free repair (``_MatrixCone``).
    Returns (majorant, value, lower_bound, converged, sweeps, site_sweeps).
    """
    cone = _cone(xs.shape[-1])
    ys = cone.coords(np.concatenate([xs, -xs]))
    sites = xs.shape[1]
    # a = 0 repaired is the p = inf closed form, feasible from the start
    best = cone.expand(cone.extremes(ys)[1].max(axis=0)) * cone.eye
    best_sq = cone.sq_norm(best)
    lower_sq = np.zeros(sites)
    z = v = np.zeros_like(ys)
    t, dual_prev = np.ones(sites), np.zeros(sites)
    live = np.arange(sites)  # the working arrays hold these sites, in this order
    out = best.copy()  # the best majorant of every site, written when it freezes
    frozen_sq = frozen_lower = 0.0
    converged, iters, site_sweeps = False, 0, 0
    for iters in range(1, max_iter + 1):
        site_sweeps += live.size
        z_new = v.copy()
        a = z_new.sum(axis=0)
        for j, y in enumerate(ys):
            block = cone.project(z_new[j] + y - a)
            a += block - z_new[j]
            z_new[j] = block
        a = z_new.sum(axis=0)  # the certificates read a fresh sum, not the running one
        dual = cone.dot(z_new, ys) - cone.sq_norm(a) / 2.0
        lower_sq = np.maximum(lower_sq, 2.0 * dual)
        cand = a + cone.expand(cone.repair(a, ys, z_new, v)) * cone.eye
        cand_sq = cone.sq_norm(cand)
        # a later iterate that ties to rounding is the more converged one
        better = cand_sq <= best_sq * (1.0 + _TIE)
        best = np.where(cone.expand(better), cand, best)
        best_sq = np.where(better, cand_sq, best_sq)
        total_sq = frozen_sq + best_sq.sum()
        gap = math.sqrt(total_sq) - math.sqrt(frozen_lower + lower_sq.sum())
        moved = z_new - z
        restart = (cone.dot(v - z_new, moved) > 0.0) | (dual < dual_prev * (1.0 - _TIE))
        t_next = np.where(restart, 1.0, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0)
        beta = np.where(restart, 0.0, (t - 1.0) / t_next)
        v = z_new + cone.expand(beta) * moved
        z, t, dual_prev = z_new, t_next, dual
        # B - L as (sqrt B - sqrt L)(sqrt B + sqrt L): at tol 0 a site then
        # freezes exactly when sqrt B <= sqrt L, where it would stop alone
        root_b, root_l = np.sqrt(best_sq), np.sqrt(lower_sq)
        spread = (root_b - root_l) * (root_b + root_l)
        freeze = spread * math.sqrt(total_sq) <= 2.0 * tol * lower_sq
        if freeze.any():
            cone.put(out, live, best)  # the sites kept are written again later
            frozen_sq += best_sq[freeze].sum()
            frozen_lower += lower_sq[freeze].sum()
            keep = np.flatnonzero(~freeze)
            live = live[keep]
            ys, z, v, best = (cone.take(h, keep) for h in (ys, z, v, best))
            best_sq, lower_sq, t, dual_prev = (h[keep] for h in (best_sq, lower_sq, t, dual_prev))
        if live.size == 0 or gap <= tol:
            converged = True
            break
    cone.put(out, live, best)
    value = math.sqrt(frozen_sq + best_sq.sum())
    lower = math.sqrt(frozen_lower + lower_sq.sum())
    return cone.matrices(out), value, lower, converged, iters, site_sweeps


def order_interval_majorant(
    stack: HermitianStack, p, tol: float = 1e-6, max_iter: int = 500
) -> MajorantSolution:
    """Smallest-norm positive a with -a <= x_k <= a at every site.

    The fiber problems are independent.  At p = inf every feasible a has top
    eigenvalue at least max_k ||x_k||_op, and that multiple of the identity
    is feasible, so it is the majorant at each site, its value is also the
    lower bound, and no iteration runs; at n = 2, ||x||_op = |h0| + |h| in
    Pauli coordinates.  At p = 2 all sites are solved in one batch by the
    dual sweeps of ``_solve_p2``, which freezes each site once it has
    certified its share of ``tol``; the site norms are summed in squares,
    ``value - lower_bound`` is the certified optimality gap, ``tol`` the
    gap at which it stops and ``max_iter`` its budget of dual sweeps, and
    ``site_sweeps`` counts the (site, sweep) pairs it swept: a NaN or
    negative ``tol`` or a ``max_iter`` below 1 raises ``DomainError``.
    """
    p = _check_p(p)
    if not tol >= 0.0:
        raise DomainError(f"tol must be a non-negative number, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    if stack.family_size < 1:
        raise DomainError("need at least one family member")
    if stack.fiber > 8:
        raise DomainError("fiber sizes above 8 are out of scope")
    if p == math.inf:
        cone = _cone(stack.fiber)
        low, high = cone.extremes(cone.coords(stack.matrices))
        spread = np.maximum(high, -low).max(axis=0)
        majorant = spread[:, np.newaxis, np.newaxis] * np.eye(stack.fiber, dtype=complex)
        value = float(spread.max(initial=0.0))
        return MajorantSolution(majorant, value, value, True, iterations=0, site_sweeps=0)
    majorant, value, lower, converged, iters, site_sweeps = _solve_p2(stack.matrices, tol, max_iter)
    return MajorantSolution(majorant, value, lower, converged, iters, site_sweeps)


@dataclass(frozen=True)
class MaximalRatioStats:
    """Ratios of the dyadic maximal norm to the input norm over random fields."""

    d: int
    side: int
    exponents: tuple[int, ...]
    trials: int
    seed: int
    ratios: tuple[float, ...]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    @property
    def mean_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios)


def empirical_maximal_ratio(
    d: int, side: int, scales: DyadicRange, trials: int, seed: int
) -> MaximalRatioStats:
    """Sampled L2 ratios ||max_t |avg_t f|||_2 / ||f||_2 over Gaussian fields.

    Each scale's sphere symbol, one ``_Scratch`` for the torus and one
    array for the draws are built once per call, after the site-budget
    check, and shared by every trial; they live only as long as the call.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    scales.check_side(side)
    symbols = _scale_symbols(d, side, scales)
    scratch = _Scratch((), d, side)
    draw = np.empty((side,) * d)
    rng = Generator(Philox(seed))
    ratios = []
    for _ in range(trials):
        f = TorusField.scalar(rng.standard_normal(out=draw))
        denom = lp_norm(f, 2)
        maximal = dyadic_maximal(f, scales, symbols=symbols, scratch=scratch)
        ratios.append(lp_norm(maximal, 2) / denom)
    return MaximalRatioStats(d, side, scales.exponents, trials, seed, tuple(ratios))


def random_hermitian_stack(
    family: int, sites: int, fiber: int, seed: int, real: bool = False
) -> HermitianStack:
    """Seeded Gaussian Hermitian family, optionally real symmetric.

    A family of more than ``MAX_SITES`` matrix entries raises
    ``InfeasibleScale`` before any allocation.
    """
    if family * sites * fiber**2 > MAX_SITES:
        raise InfeasibleScale(
            f"{family} x {sites} fibers of size {fiber} exceed the {MAX_SITES}-entry budget"
        )
    rng = Generator(Philox(seed))
    raw = rng.standard_normal((family, sites, fiber, fiber))
    if not real:
        raw = raw + 1j * rng.standard_normal((family, sites, fiber, fiber))
    herm = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
    return HermitianStack(herm.astype(complex))
