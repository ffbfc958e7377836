"""Acceptance suite: one test per criterion, at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; a failed assertion is the fail line.  Frozen pilot values live
in the packaged ``data/pilot_thresholds.txt`` and are deterministic in the
seeds, so they reproduce exactly on rerun.
"""

import math
import time

import numpy as np
import pytest

from sphlab import (
    DyadicRange,
    HermitianStack,
    SphereSpec,
    TorusField,
    apply_multiplier,
    dft,
    discrete_laplacian,
    empirical_maximal_ratio,
    inverse_kernel,
    order_interval_majorant,
    periodized_multiplier_apply,
    random_hermitian_stack,
    representation_count,
    residual_survey,
    sampled_kernel_apply,
    sign_flip_modulation,
    sphere_counts,
    sphere_multiplier_batch,
    verify_gauss_identities,
)
from sphlab.cli import _default_thresholds_path, _load_thresholds, main
from sphlab.gauss import decomposition_error
from test_fields import folded_base_symbol, roll_spherical_average
from test_symbols import direct_sphere_multiplier

THRESHOLDS = _load_thresholds(_default_thresholds_path())


def report(number: int, label: str, started: float) -> None:
    print(f"[PASS] criterion {number}: {label} ({time.time() - started:.1f}s)")


def test_criterion_01_gauss_sum_normalization():
    t0 = time.time()
    for d in range(1, 9):
        out = verify_gauss_identities(12, d)
        assert out.max_sum_deviation <= 1e-10
        assert out.max_bound_excess <= 1e-12
    report(1, "Gauss-sum normalization and sup bound (q <= 12, d <= 8)", t0)


def box_counts(d: int, lam_max: int) -> np.ndarray:
    radius = math.isqrt(lam_max) + 1
    line = np.arange(-radius, radius + 1, dtype=np.int64) ** 2
    sums = line.copy()
    for _ in range(d - 1):
        sums = (sums[:, None] + line[None, :]).ravel()
    return np.bincount(sums, minlength=lam_max + 1)[: lam_max + 1]


def test_criterion_02_counting_oracle():
    t0 = time.time()
    for d in range(1, 7):
        assert list(sphere_counts(d, 50)) == list(box_counts(d, 50))
    for d in range(2, 17):
        upper = sphere_counts(d, 200)
        lower = sphere_counts(d - 1, 200)
        for lam in range(201):
            total = lower[lam]
            k = 1
            while k * k <= lam:
                total += 2 * lower[lam - k * k]
                k += 1
            assert upper[lam] == total
    report(2, "exact counting vs box enumeration and the d -> d-1 recursion", t0)


def test_criterion_03_multiplier_dual_path():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(1234))
    pairs = 0
    for d in range(2, 7):
        for lam in range(1, 41):
            spec = SphereSpec(d, lam)
            if representation_count(spec) == 0:
                continue
            pairs += 1
            xis = rng.random((100, d)) - 0.5
            direct = direct_sphere_multiplier(spec, xis)
            coeff = sphere_multiplier_batch(spec, xis)
            # tolerance relative to the unit scale of the normalized average
            # (|m| <= 1); near the symbol's zeros a pure ratio is not
            # attainable in double precision
            scale = np.maximum(1.0, np.abs(direct))
            assert np.all(np.abs(direct - coeff) <= 1e-10 * scale)
    assert pairs >= 150
    report(3, f"direct vs coefficient-extraction symbol on {pairs} (d, lam) pairs", t0)


def test_criterion_04_spatial_fourier_equivalence():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(4321))
    f = TorusField.scalar(rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3))
    for lam in (1, 2, 4):
        spec = SphereSpec(3, lam)
        spatial = roll_spherical_average(f, spec)
        fourier = apply_multiplier(f, lambda xis: direct_sphere_multiplier(spec, xis))
        assert np.abs(spatial.values - fourier.values).max() <= 1e-10
    for k in (1, 2, 3):
        spatial = discrete_laplacian(f, k)
        fourier = apply_multiplier(f, lambda xis: np.sin(np.pi * xis[:, k - 1]) ** 2)
        assert np.abs(spatial.values - fourier.values).max() <= 1e-12
    hat = dft(f)
    assert np.sum(np.abs(f.values) ** 2) == pytest.approx(
        np.sum(np.abs(hat.values) ** 2) / 16**3, rel=1e-10
    )
    raw = rng.standard_normal((16,) * 3 + (2, 2)) + 1j * rng.standard_normal((16,) * 3 + (2, 2))
    g = TorusField.matrix(3, (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2)
    ghat = dft(g)
    assert np.sum(np.abs(g.values) ** 2) == pytest.approx(
        np.sum(np.abs(ghat.values) ** 2) / 16**3, rel=1e-10
    )
    flipped = sign_flip_modulation(f)
    lhs = dft(flipped).values
    rhs = np.roll(dft(f).values, (8, 8, 8), axis=(0, 1, 2))
    assert np.array_equal(lhs, rhs)
    report(4, "spatial vs Fourier averages, Laplacian, Plancherel, sign flip", t0)


def test_criterion_05_sampling_periodization_identity():
    t0 = time.time()
    spec = SphereSpec(2, 4)
    rng = np.random.Generator(np.random.Philox(5150))
    for q in (2, 3):
        f = TorusField.scalar(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        symbol = folded_base_symbol(q, spec)
        via_symbol = periodized_multiplier_apply(f, q, symbol)
        via_kernel = sampled_kernel_apply(f, q, inverse_kernel(2, 12, symbol))
        assert np.abs(via_symbol.values - via_kernel.values).max() <= 1e-10
    report(5, "periodized multiplier equals sampled-kernel convolution (L=12, q=2,3)", t0)


def test_criterion_06_small_scale_residual():
    t0 = time.time()
    out = residual_survey(SphereSpec(25, 1), "small", 1000, seed=42)
    assert out.residual[0] == 0.0
    ceiling = THRESHOLDS["residual_small_d25_lam1_s1000_seed42"]
    assert np.all((out.residual <= ceiling * out.bound) | (out.bound == 0.0))
    report(6, f"small-scale residual ratios under frozen {ceiling} at (d=25, lam=1)", t0)


def test_criterion_07_intermediate_scale_residual():
    t0 = time.time()
    out = residual_survey(SphereSpec(10, 1000), "intermediate", 200, seed=42)
    ceiling = THRESHOLDS["residual_intermediate_d10_lam1000_s200_seed42"]
    assert out.ratio.max() <= ceiling
    report(7, f"intermediate-scale residual ratios under frozen {ceiling}", t0)


def test_criterion_08_folded_symbol_bound():
    t0 = time.time()
    for d in (8, 16):
        for t in (1, 2, 4):
            out = residual_survey(SphereSpec(d, t * t), "folded", 1000, seed=42)
            ceiling = THRESHOLDS[f"residual_folded_d{d}_lam{t * t}_s1000_seed42"]
            assert np.all((out.residual <= ceiling * out.bound) | (out.bound == 0.0))
    report(8, "folded symbol vs semigroup within frozen envelopes (d=8,16; t=1,2,4)", t0)


def grid_oracle_2x2(xs: np.ndarray, p, step: float = 0.02) -> float:
    """Smallest objective over the feasible majorants [[al, ga], [ga, be]] on a grid.

    The grid and the arithmetic at every point are those of
    grid_oracle_2x2_loop.  For each al, each constraint after the first is
    evaluated only on the (be, ga) points that passed the ones before it,
    and the al-independent parts of the first constraint are computed once.
    """
    top = float(sum(np.abs(np.linalg.eigvalsh(x)).max() for x in xs)) + 2 * step
    diag = np.arange(0.0, top + step, step)
    off = np.arange(-top, top + step, step)
    be, ga = (axis.ravel() for axis in np.meshgrid(diag, off, indexing="ij"))
    (first, first_sign), *rest = [(x, sign) for x in xs for sign in (1.0, -1.0)]
    first_m11 = be + first_sign * first[1, 1].real
    first_m01_sq = (ga + first_sign * first[0, 1].real) ** 2
    best = math.inf
    for al in diag:
        m00 = al + first_sign * first[0, 0].real
        keep = (m00 + first_m11 >= 0) & (m00 * first_m11 - first_m01_sq >= 0)
        b, g = be[keep], ga[keep]
        for x, sign in rest:
            m00 = al + sign * x[0, 0].real
            m11 = b + sign * x[1, 1].real
            m01 = g + sign * x[0, 1].real
            keep = (m00 + m11 >= 0) & (m00 * m11 - m01**2 >= 0)
            b, g = b[keep], g[keep]
        if b.size:
            if p == math.inf:
                obj = ((al + b) + np.sqrt((al - b) ** 2 + 4 * g**2)) / 2
            else:
                obj = np.sqrt(al**2 + b**2 + 2 * g**2)
            best = min(best, float(obj.min()))
    return best


def grid_oracle_2x2_loop(xs: np.ndarray, p, step: float = 0.02) -> float:
    """Reference for grid_oracle_2x2: every constraint on the whole (be, ga) grid for each al."""
    top = float(sum(np.abs(np.linalg.eigvalsh(x)).max() for x in xs)) + 2 * step
    diag = np.arange(0.0, top + step, step)
    off = np.arange(-top, top + step, step)
    be, ga = np.meshgrid(diag, off, indexing="ij")
    best = math.inf
    for al in diag:
        feasible = np.ones(be.shape, dtype=bool)
        for x in xs:
            for sign in (1.0, -1.0):
                m00 = al + sign * x[0, 0].real
                m11 = be + sign * x[1, 1].real
                m01 = ga + sign * x[0, 1].real
                feasible &= (m00 + m11 >= 0) & (m00 * m11 - m01**2 >= 0)
        if feasible.any():
            if p == math.inf:
                obj = ((al + be) + np.sqrt((al - be) ** 2 + 4 * ga**2)) / 2
            else:
                obj = np.sqrt(al**2 + be**2 + 2 * ga**2)
            best = min(best, float(obj[feasible].min()))
    return best


def test_grid_oracle_matches_reference_loop():
    rng = np.random.Generator(np.random.Philox(2025))
    for p in (2, math.inf):
        raw = rng.standard_normal((3, 2, 2))
        sym = (raw + np.swapaxes(raw, -1, -2)) / 2
        assert grid_oracle_2x2(sym, p) == grid_oracle_2x2_loop(sym, p)


def test_criterion_09_order_interval_solver():
    t0 = time.time()
    # commutative exactness on 100 random stacks
    for trial in range(100):
        stack = random_hermitian_stack(4, 6, 1, 10_000 + trial)
        sup = np.abs(stack.matrices[:, :, 0, 0]).max(axis=0)
        for p, closed in ((math.inf, sup.max()), (2, math.sqrt((sup**2).sum()))):
            sol = order_interval_majorant(stack, p, tol=1e-8)
            assert abs(sol.value - float(closed)) <= 1e-8
    # n=2 grid-oracle agreement on 20 seeded single-site instances
    rng = np.random.Generator(np.random.Philox(2024))
    for trial in range(20):
        k = int(rng.integers(1, 4))
        raw = rng.standard_normal((k, 1, 2, 2))
        sym = (raw + np.swapaxes(raw, -1, -2)) / 2
        p = math.inf if trial % 2 else 2
        sol = order_interval_majorant(HermitianStack(sym.astype(complex)), p, tol=1e-8)
        assert abs(sol.value - grid_oracle_2x2(sym[:, 0], p)) <= 0.05
    # homogeneity, monotonicity, lower bound on 100 random stacks
    for trial in range(100):
        stack = random_hermitian_stack(3, 3, 2, 20_000 + trial)
        p = math.inf if trial % 2 else 2
        sol = order_interval_majorant(stack, p, tol=1e-8, max_iter=2000)
        scaled = order_interval_majorant(HermitianStack(2.0 * stack.matrices), p, tol=1e-8, max_iter=2000)
        assert abs(scaled.value - 2.0 * sol.value) <= 1e-8 * max(1.0, 2.0 * sol.value)
        shorter = order_interval_majorant(HermitianStack(stack.matrices[:2]), p, tol=1e-8, max_iter=2000)
        assert sol.value >= shorter.value - 1e-7
        for k in range(stack.family_size):
            member = stack.matrices[k]
            if p == math.inf:
                member_norm = float(np.abs(np.linalg.eigvalsh(member)).max())
            else:
                member_norm = float(np.sqrt(np.sum(np.abs(member) ** 2)))
            assert sol.value >= member_norm - 1e-7
    report(9, "order-interval solver: scalar exactness, grid oracle, invariants", t0)


def test_criterion_10_maximal_ratio_survey():
    t0 = time.time()
    single = empirical_maximal_ratio(3, 16, DyadicRange((1,)), trials=6, seed=99)
    assert all(r <= 1 + 1e-10 for r in single.ratios)
    scales = DyadicRange((0, 1, 2))
    for d, side in ((2, 32), (3, 32), (4, 16), (5, 12)):
        stats = empirical_maximal_ratio(d, side, scales, trials=8, seed=7)
        assert all(r <= len(scales.exponents) for r in stats.ratios)
        frozen = THRESHOLDS[f"maxratio_d{d}_L{side}_m012_t8_seed7"]
        assert abs(stats.max_ratio - frozen) <= 1e-8
    report(10, "maximal ratios: contraction, scale bound, frozen d=2..5 table", t0)


def test_criterion_11_decomposition_bookkeeping(tmp_path):
    t0 = time.time()
    for d, lam in ((2, 4), (3, 9)):
        out = tmp_path / f"decomp_{d}_{lam}.csv"
        nmax = math.isqrt(lam) + 1
        code = main(
            ["decompose", "--d", str(d), "--lambda", str(lam), "--nmin", "1",
             "--nmax", str(nmax), "--samples", "2", "--seed", "77",
             "--out", str(out), "--no-banner"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        # regenerate the same frequency stream and verify each emitted row
        rng = np.random.Generator(np.random.Philox(77))
        points = np.zeros((3, d))
        points[1:] = rng.random((2, d)) - 0.5
        spec = SphereSpec(d, lam)
        idx = 0
        for n in range(1, nmax + 1):
            for xi in points:
                fields = rows[idx]
                rep = decomposition_error(spec, n, xi)
                symbol = sphere_multiplier_batch(spec, xi)[0]
                total = rep.major_sum + rep.minor_term + rep.total_error
                assert abs(total - symbol) <= 1e-12
                assert float(fields[6]) == pytest.approx(abs(rep.total_error), abs=1e-15)
                idx += 1
        assert idx == len(rows)
    report(11, "decomposition rows satisfy major + minor + error = symbol", t0)
