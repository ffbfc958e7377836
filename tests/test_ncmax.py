import math

import numpy as np
import pytest

from sphlab import (
    DomainError,
    DyadicRange,
    HermitianStack,
    NonHermitianInput,
    SphereSpec,
    TorusField,
    dyadic_maximal,
    empirical_maximal_ratio,
    lp_norm,
    maximal_norm_commutative,
    order_interval_majorant,
    random_hermitian_stack,
    spherical_average,
    square_function_norm,
)
from test_acceptance import grid_oracle_2x2

INF = math.inf


def batched_abs_sum(matrices: np.ndarray) -> np.ndarray:
    """sum_k |x_k| per site, via eigendecompositions."""
    out = np.zeros_like(matrices[0])
    for x in matrices:
        vals, vecs = np.linalg.eigh(x)
        out += np.einsum("sab,sb,scb->sac", vecs, np.abs(vals), np.conj(vecs))
    return out


def stack_norm(matrices: np.ndarray, p) -> float:
    """p-norm of a single Hermitian field given as (sites, n, n)."""
    if p == INF:
        return float(np.abs(np.linalg.eigvalsh(matrices)).max())
    return float(np.sqrt(np.sum(np.abs(matrices) ** 2)))


def test_lp_norm_examples():
    single = TorusField.matrix(1, np.diag([3.0, -4.0])[np.newaxis].astype(complex))
    assert lp_norm(single, 2) == pytest.approx(5.0, rel=1e-14)
    assert lp_norm(single, INF) == pytest.approx(4.0, rel=1e-14)
    zero = TorusField.matrix(1, np.zeros((2, 2, 2), dtype=complex))
    assert lp_norm(zero, 2) == 0.0
    assert lp_norm(zero, INF) == 0.0
    with pytest.raises(DomainError):
        lp_norm(single, 3)


def test_stack_validation():
    with pytest.raises(NonHermitianInput):
        HermitianStack(np.ones((1, 1, 2, 2)) * 1j)
    with pytest.raises(DomainError):
        HermitianStack(np.zeros((2, 2, 2)))


def test_known_two_projection_family():
    fam = np.zeros((2, 1, 2, 2), dtype=complex)
    fam[0, 0] = np.diag([1.0, 0.0])
    fam[1, 0] = np.diag([0.0, 1.0])
    stack = HermitianStack(fam)
    assert order_interval_majorant(stack, INF).value == pytest.approx(1.0, abs=1e-8)
    assert order_interval_majorant(stack, 2).value == pytest.approx(math.sqrt(2), abs=1e-8)


def test_commutative_exactness():
    for trial in range(20):
        stack = random_hermitian_stack(4, 8, 1, 300 + trial)
        sup = np.abs(stack.matrices[:, :, 0, 0]).max(axis=0)
        for p, closed in ((INF, sup.max()), (2, math.sqrt((sup**2).sum()))):
            sol = order_interval_majorant(stack, p, tol=1e-8)
            assert sol.value == pytest.approx(float(closed), abs=1e-8)


def test_commuting_family_closed_form():
    # x_k = U diag(d_k) U* share an eigenbasis, so the optimum is U diag(max_k |d_k|) U*
    rng = np.random.Generator(np.random.Philox(350))
    for n in (2, 4, 8):
        diags = rng.standard_normal((3, 5, n))
        raw = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        unitary, _ = np.linalg.qr(raw)
        xs = np.einsum("sab,ksb,scb->ksac", unitary, diags, np.conj(unitary))
        stack = HermitianStack((xs + np.conj(np.swapaxes(xs, -1, -2))) / 2)
        closed = math.sqrt(float(np.sum(np.max(diags**2, axis=0))))
        for tol in (1e-6, 1e-8):
            sol = order_interval_majorant(stack, 2, tol=tol)
            assert 0 <= sol.value - closed <= tol
            assert sol.lower_bound <= closed + 1e-12


def test_solution_feasibility_and_bounds():
    for trial in range(10):
        stack = random_hermitian_stack(3, 4, 2, 400 + trial)
        for p in (2, INF):
            sol = order_interval_majorant(stack, p, tol=1e-7)
            assert sol.converged
            assert 0 <= sol.value - sol.lower_bound <= 1e-7
            # feasibility at every site and family member
            for s in range(stack.sites):
                for x in stack.matrices[:, s]:
                    for sign in (1.0, -1.0):
                        low = np.linalg.eigvalsh(sol.majorant[s] + sign * x)[0]
                        assert low >= -1e-7
            # lower bound: each member's norm
            for k in range(stack.family_size):
                assert sol.value >= stack_norm(stack.matrices[k], p) - 1e-6
            # upper bound: the matrix-absolute sum is feasible
            assert sol.value <= stack_norm(batched_abs_sum(stack.matrices), p) + 1e-9


def test_inf_majorant_closed_form_large_fibers():
    for n in (4, 8):
        for trial in range(3):
            stack = random_hermitian_stack(3, 5, n, 450 + 10 * n + trial)
            sol = order_interval_majorant(stack, INF)
            closed = max(
                float(np.abs(np.linalg.eigvalsh(x)).max())
                for k in range(stack.family_size)
                for x in stack.matrices[k]
            )
            assert abs(sol.value - closed) <= 1e-12
            assert sol.iterations == 0
            assert sol.converged
            for s in range(stack.sites):
                for x in stack.matrices[:, s]:
                    for sign in (1.0, -1.0):
                        assert np.linalg.eigvalsh(sol.majorant[s] + sign * x)[0] >= -1e-12


def test_homogeneity():
    stack = random_hermitian_stack(3, 4, 2, 510)
    for p in (2, INF):
        base = order_interval_majorant(stack, p, tol=1e-9, max_iter=2000).value
        for c in (2.0, 0.5, 3.0):
            scaled = order_interval_majorant(
                HermitianStack(c * stack.matrices), p, tol=1e-9, max_iter=2000
            ).value
            assert abs(scaled - c * base) <= 1e-8 * max(1.0, c * base)


def test_monotonicity_under_family_growth():
    for trial in range(10):
        stack = random_hermitian_stack(3, 4, 2, 600 + trial)
        for p in (2, INF):
            small = order_interval_majorant(HermitianStack(stack.matrices[:2]), p, tol=1e-7)
            full = order_interval_majorant(stack, p, tol=1e-7)
            assert full.value >= small.value - 1e-6


def test_grid_oracle_agreement():
    # for real symmetric inputs the optimum over Hermitian majorants may be
    # taken real: conjugation preserves feasibility and the two norms, and the
    # midpoint of a with its conjugate is feasible with no larger norm
    rng = np.random.Generator(np.random.Philox(700))
    for trial in range(8):
        k = int(rng.integers(1, 4))
        raw = rng.standard_normal((k, 1, 2, 2))
        sym = (raw + np.swapaxes(raw, -1, -2)) / 2
        stack = HermitianStack(sym.astype(complex))
        p = INF if trial % 2 else 2
        sol = order_interval_majorant(stack, p, tol=1e-8)
        oracle = grid_oracle_2x2(sym[:, 0], p)
        assert abs(sol.value - oracle) <= 0.05


def test_square_function_norm():
    single = random_hermitian_stack(1, 3, 2, 800)
    field = TorusField.matrix(1, single.matrices[0])
    for p in (2, INF):
        assert square_function_norm(single, p) == pytest.approx(lp_norm(field, p), rel=1e-10)
    scalar = random_hermitian_stack(4, 5, 1, 801)
    vals = scalar.matrices[:, :, 0, 0].real
    pointwise = np.sqrt((vals**2).sum(axis=0))
    assert square_function_norm(scalar, INF) == pytest.approx(pointwise.max(), rel=1e-12)
    assert square_function_norm(scalar, 2) == pytest.approx(
        math.sqrt((pointwise**2).sum()), rel=1e-12
    )


def test_square_function_dominates_maximal():
    # pilot ceiling for the order-interval / square-function ratio
    worst = 0.0
    for trial in range(10):
        stack = random_hermitian_stack(3, 3, 2, 900 + trial)
        for p in (2, INF):
            value = order_interval_majorant(stack, p, tol=1e-7).value
            square = square_function_norm(stack, p)
            worst = max(worst, value / square)
    assert worst <= 1.2


def test_maximal_norm_commutative():
    rng = np.random.Generator(np.random.Philox(1000))
    f = TorusField.scalar(rng.standard_normal((16, 16)).astype(complex))
    scales = DyadicRange((0, 1))
    direct = dyadic_maximal(f, scales)
    for p in (2, INF):
        assert maximal_norm_commutative(f, scales, p) == pytest.approx(
            lp_norm(direct, p), rel=1e-12
        )
        single = lp_norm(spherical_average(f, SphereSpec(2, 1)), p)
        assert maximal_norm_commutative(f, scales, p) >= single - 1e-12


def test_empirical_maximal_ratio():
    stats = empirical_maximal_ratio(2, 16, DyadicRange((0,)), trials=5, seed=77)
    assert all(r <= 1 + 1e-10 for r in stats.ratios)
    multi = empirical_maximal_ratio(2, 16, DyadicRange((0, 1, 2)), trials=5, seed=78)
    assert all(r <= 3 for r in multi.ratios)
    assert multi.max_ratio >= multi.mean_ratio
    again = empirical_maximal_ratio(2, 16, DyadicRange((0, 1, 2)), trials=5, seed=78)
    assert stats.ratios != multi.ratios
    assert multi.ratios == again.ratios
