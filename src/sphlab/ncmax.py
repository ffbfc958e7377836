"""Order-interval maximal norms for finite Hermitian families.

For selfadjoint families the maximal norm is the smallest p-norm of a
positive majorant a with -a <= x_k <= a in the Loewner order.  The problem
decouples over sites for p in {2, inf}.  At p = inf the optimal majorant is
the closed form max_k ||x_k||_op times the identity at each site.  At p = 2
each fiber problem is solved by a cutting-plane scheme on eigenvector
linearizations, with a final identity shift that certifies feasibility.
The scalar (n = 1) case collapses to the pointwise supremum and serves as
an exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonHermitianInput
from .fields import DyadicRange, TorusField, dyadic_maximal

__all__ = [
    "HermitianStack",
    "MajorantSolution",
    "lp_norm",
    "order_interval_majorant",
    "maximal_norm_commutative",
    "square_function_norm",
    "MaximalRatioStats",
    "empirical_maximal_ratio",
    "random_hermitian_stack",
]

_SQRT2 = math.sqrt(2.0)


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
    if not f.is_matrix:
        mags = np.abs(f.values)
        return float(np.sqrt(np.sum(mags**2))) if p == 2.0 else float(mags.max(initial=0.0))
    if p == 2.0:
        return float(np.sqrt(np.sum(np.abs(f.values) ** 2)))
    mats = f.values.reshape(-1, f.fiber, f.fiber)
    return float(np.linalg.svd(mats, compute_uv=False).max(initial=0.0))


@dataclass(frozen=True)
class HermitianStack:
    """An ordered family of Hermitian matrix fields sharing a flat site list.

    matrices has shape (K, sites, n, n); each fiber must be Hermitian to
    within ``tol``.
    """

    matrices: np.ndarray
    tol: float = 1e-12

    def __post_init__(self) -> None:
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 4 or m.shape[-1] != m.shape[-2]:
            raise DomainError("expected shape (K, sites, n, n)")
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

    @staticmethod
    def from_fields(fields: list[TorusField], tol: float = 1e-12) -> "HermitianStack":
        if not fields:
            raise DomainError("need at least one field")
        n = fields[0].fiber
        stacked = np.stack([f.values.reshape(-1, n, n) for f in fields])
        return HermitianStack(stacked, tol=tol)


@dataclass(frozen=True)
class MajorantSolution:
    """A feasible majorant, its achieved norm, and the residual feasibility slack."""

    majorant: np.ndarray  # (sites, n, n)
    value: float
    certificate_gap: float
    converged: bool
    iterations: int


def _vec(a: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix in an orthonormal real basis."""
    n = a.shape[0]
    w = np.empty(n * n)
    w[:n] = np.diagonal(a).real
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            w[pos] = _SQRT2 * a[i, j].real
            w[pos + 1] = _SQRT2 * a[i, j].imag
            pos += 2
    return w


def _mat(w: np.ndarray, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(a, w[:n])
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            val = (w[pos] + 1j * w[pos + 1]) / _SQRT2
            a[i, j] = val
            a[j, i] = np.conj(val)
            pos += 2
    return a


def _matrix_abs(x: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(x)
    return (vecs * np.abs(vals)) @ np.conj(vecs.T)


def _nnls(matrix: np.ndarray, target: np.ndarray, max_iter: int) -> np.ndarray:
    """Lawson-Hanson nonnegative least squares with least-squares subsolves.

    The systems here are tiny (tens of columns), so the classical active-set
    algorithm terminates with machine-precision KKT residuals.
    """
    ncols = matrix.shape[1]
    x = np.zeros(ncols)
    passive = np.zeros(ncols, dtype=bool)
    tol = 1e-12 * max(1.0, float(np.abs(matrix.T @ target).max()))
    for _ in range(max_iter):
        grad = matrix.T @ (target - matrix @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(ncols)
            sol, *_ = np.linalg.lstsq(matrix[:, passive], target, rcond=None)
            z[passive] = sol
            if z[passive].min(initial=1.0) > 0.0:
                x = z
                break
            shrink = passive & (z <= 0.0) & (x > z)
            steps = x[shrink] / (x[shrink] - z[shrink])
            alpha = float(steps.min()) if steps.size else 0.0
            x = x + alpha * (z - x)
            passive &= x > 1e-14 * max(1.0, float(np.abs(x).max()))
    return x


def _min_ldp(rows: np.ndarray, rhs: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """Least-distance program: minimize ||w|| subject to rows @ w >= rhs.

    Solved through the Lawson-Hanson reduction to nonnegative least squares.
    Returns the minimizer together with the dual value sqrt(b'lam - ||w||^2),
    a lower bound on the constrained minimum that stays valid even when the
    inner solve carries slack.
    """
    if rows.shape[0] == 0:
        return np.zeros(dim), 0.0
    stacked = np.vstack([rows.T, rhs[np.newaxis, :]])
    target = np.zeros(dim + 1)
    target[-1] = 1.0
    coeffs = _nnls(stacked, target, max_iter=50 * (dim + 1))
    resid = stacked @ coeffs - target
    if abs(resid[-1]) < 1e-14:
        raise DomainError("least-distance subproblem infeasible")
    w = -resid[:dim] / resid[-1]
    duals = -2.0 * coeffs / resid[-1]
    w_dual = rows.T @ duals / 2.0
    dual_value = float(rhs @ duals) - float(w_dual @ w_dual)
    return w, math.sqrt(max(0.0, dual_value))


def _feasibility_slack(a: np.ndarray, xs: np.ndarray) -> float:
    """Most negative eigenvalue over all a +- x_k, as a nonnegative shift."""
    slack = 0.0
    for x in xs:
        for sign in (1.0, -1.0):
            low = float(np.linalg.eigvalsh(a + sign * x)[0])
            slack = max(slack, -low)
    return slack


def _push_cut(rows: list[np.ndarray], rhs: list[float], row: np.ndarray, bound: float) -> None:
    """Append a cut unless an at-least-as-strong near-duplicate is present."""
    for r0, b0 in zip(rows, rhs):
        if bound <= b0 + 1e-12 and float(np.abs(row - r0).max()) <= 1e-9:
            return
    rows.append(row)
    rhs.append(bound)


def _solve_site(xs: np.ndarray, tol: float, max_iter: int):
    """Cutting-plane solve of one p = 2 fiber problem; returns (a, norm, converged, iters).

    Each least-distance master solve gives a lower bound on the Frobenius
    norm; shifting the master point by the identity times its feasibility
    slack gives a feasible upper bound.  The loop stops once the two are
    within ``tol``.
    """
    n = xs.shape[-1]
    dim = n * n
    eye = np.eye(n)

    def norm_of(m: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(m) ** 2)))

    best = np.zeros((n, n), dtype=complex)
    for x in xs:
        best += _matrix_abs(x)
    best_norm = norm_of(best)
    # the scaled identity max_k ||x_k||_op I is always feasible
    spread = max((float(np.abs(np.linalg.eigvalsh(x)).max()) for x in xs), default=0.0)
    identity_start = spread * np.eye(n, dtype=complex)
    if norm_of(identity_start) < best_norm:
        best, best_norm = identity_start, norm_of(identity_start)

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for x in xs:
        vals, vecs = np.linalg.eigh(x)
        for idx in range(n):
            v = vecs[:, idx]
            rows.append(_vec(np.outer(v, np.conj(v))))
            rhs.append(abs(float(vals[idx])))

    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        w, lower = _min_ldp(np.asarray(rows), np.asarray(rhs), dim)
        a = _mat(w, n)

        slack = _feasibility_slack(a, xs)
        repaired = a + slack * eye
        repaired_norm = norm_of(repaired)
        if repaired_norm < best_norm:
            best, best_norm = repaired, repaired_norm
        if best_norm - lower <= tol:
            converged = True
            break

        for x in xs:
            for sign in (1.0, -1.0):
                vals, vecs = np.linalg.eigh(a + sign * x)
                for idx in range(n):
                    if vals[idx] >= 0.0:
                        break
                    v = vecs[:, idx]
                    _push_cut(rows, rhs, _vec(np.outer(v, np.conj(v))), float(-sign * (np.conj(v) @ x @ v).real))
    return best, best_norm, converged, iters


def order_interval_majorant(
    stack: HermitianStack, p, tol: float = 1e-6, max_iter: int = 500
) -> MajorantSolution:
    """Smallest-norm positive a with -a <= x_k <= a at every site.

    The fiber problems are independent.  At p = inf every feasible a has top
    eigenvalue at least max_k ||x_k||_op, and that multiple of the identity
    is feasible, so it is the majorant at each site and no iteration runs.
    At p = 2 each site minimizes its Frobenius mass by the cutting plane and
    the site norms are summed in squares; ``tol`` is the certified distance
    to the infimum and ``max_iter`` the per-site iteration budget.
    """
    p = _check_p(p)
    if stack.family_size < 1:
        raise DomainError("need at least one family member")
    if stack.fiber > 8:
        raise DomainError("fiber sizes above 8 are out of scope")
    if p == math.inf:
        spread = np.abs(np.linalg.eigvalsh(stack.matrices)).max(axis=(0, -1))
        majorant = spread[:, np.newaxis, np.newaxis] * np.eye(stack.fiber, dtype=complex)
        value = float(spread.max(initial=0.0))
        all_converged, total_iters = True, 0
    else:
        majorant = np.zeros((stack.sites, stack.fiber, stack.fiber), dtype=complex)
        site_norm = np.zeros(stack.sites)
        all_converged = True
        total_iters = 0
        for s in range(stack.sites):
            a, norm, converged, iters = _solve_site(stack.matrices[:, s], tol, max_iter)
            majorant[s] = a
            site_norm[s] = norm
            all_converged &= converged
            total_iters += iters
        value = float(np.sqrt(np.sum(site_norm**2)))
    gap = 0.0
    for s in range(stack.sites):
        gap = max(gap, _feasibility_slack(majorant[s], stack.matrices[:, s]))
    return MajorantSolution(
        majorant=majorant,
        value=value,
        certificate_gap=max(0.0, gap),
        converged=all_converged,
        iterations=total_iters,
    )


def maximal_norm_commutative(f: TorusField, scales: DyadicRange, p) -> float:
    """Exact commutative maximal norm: lp_norm of the pointwise dyadic maximum."""
    return lp_norm(dyadic_maximal(f, scales), p)


def square_function_norm(stack: HermitianStack, p) -> float:
    """max of the column norm ||(sum x_k* x_k)^(1/2)||_p and its row analogue."""
    p = _check_p(p)
    m = stack.matrices
    col = np.einsum("ksab,ksac->sbc", np.conj(m), m)
    row = np.einsum("ksab,kscb->sac", m, np.conj(m))
    if p == 2.0:
        # ||B^(1/2)||_2^2 = sum of traces of B
        return float(
            max(
                math.sqrt(np.trace(col, axis1=-2, axis2=-1).real.sum()),
                math.sqrt(np.trace(row, axis1=-2, axis2=-1).real.sum()),
            )
        )
    col_top = np.linalg.eigvalsh(col)[:, -1].max(initial=0.0)
    row_top = np.linalg.eigvalsh(row)[:, -1].max(initial=0.0)
    return float(math.sqrt(max(col_top, row_top, 0.0)))


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
    """Sampled L2 ratios ||max_t |avg_t f|||_2 / ||f||_2 over Gaussian fields."""
    if trials < 1:
        raise DomainError("need at least one trial")
    scales.check_side(side)
    rng = np.random.Generator(np.random.Philox(seed))
    ratios = []
    for _ in range(trials):
        f = TorusField.scalar(rng.standard_normal((side,) * d))
        denom = lp_norm(f, 2)
        ratios.append(maximal_norm_commutative(f, scales, 2) / denom)
    return MaximalRatioStats(d, side, scales.exponents, trials, seed, tuple(ratios))


def random_hermitian_stack(
    family: int, sites: int, fiber: int, seed: int, real: bool = False
) -> HermitianStack:
    """Seeded Gaussian Hermitian family, optionally real symmetric."""
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal((family, sites, fiber, fiber))
    if not real:
        raw = raw + 1j * rng.standard_normal((family, sites, fiber, fiber))
    herm = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
    return HermitianStack(herm.astype(complex))
