import math
from fractions import Fraction

import numpy as np
import pytest

from sphlab import lattice
from sphlab import (
    CapExceeded,
    DomainError,
    EmptySphere,
    InfeasibleScale,
    SphereSpec,
    density_ratio,
    enumerate_sphere,
    representation_count,
    sphere_counts,
    surface_measure,
    theta_coefficients,
)


def box_counts(d: int, lam_max: int) -> np.ndarray:
    """Brute-force oracle: bin |x|^2 over every lattice point of the box."""
    radius = math.isqrt(lam_max) + 1
    line = np.arange(-radius, radius + 1, dtype=np.int64) ** 2
    sums = line.copy()
    for _ in range(d - 1):
        sums = (sums[:, None] + line[None, :]).ravel()
    return np.bincount(sums, minlength=lam_max + 1)[: lam_max + 1]


def test_theta_coefficients():
    coeffs = theta_coefficients(20)
    assert coeffs[0] == 1
    for m in range(1, 21):
        root = math.isqrt(m)
        assert coeffs[m] == (2 if root * root == m else 0)


@pytest.mark.parametrize(
    "d,lam,expected",
    [(2, 1, 4), (16, 0, 1), (3, 2, 12), (16, 4, 29152), (4, 1, 8), (2, 3, 0)],
)
def test_representation_count_examples(d, lam, expected):
    assert representation_count(SphereSpec(d, lam)) == expected


@pytest.mark.parametrize("d", range(1, 7))
def test_count_matches_box_enumeration(d):
    oracle = box_counts(d, 50)
    table = sphere_counts(d, 50)
    assert list(table) == list(oracle)


def test_convolution_recursion():
    # r_d(lam) = sum over k of c_k r_{d-1}(lam - k^2), exact
    lam_max = 200
    for d in range(2, 17):
        upper = sphere_counts(d, lam_max)
        lower = sphere_counts(d - 1, lam_max)
        for lam in range(lam_max + 1):
            total = lower[lam]
            k = 1
            while k * k <= lam:
                total += 2 * lower[lam - k * k]
                k += 1
            assert upper[lam] == total


def loop_sphere_counts(d: int, lam_max: int) -> list[int]:
    """Loop oracle: multiply the theta polynomial in d times, one Python-int add per term."""
    out = theta_coefficients(lam_max)
    for _ in range(d - 1):
        prev = list(out)
        k = 1
        while k * k <= lam_max:
            sq = k * k
            for m in range(lam_max - sq + 1):
                out[m + sq] += 2 * prev[m]
            k += 1
    return out


def test_counts_match_loop_oracle_past_int64():
    # r_24 reaches past 2^67 by lam = 100, where an int64 shortcut would wrap
    table = sphere_counts(24, 100)
    oracle = loop_sphere_counts(24, 100)
    assert max(oracle) > 2**67
    assert type(table) is tuple and all(type(c) is int for c in table)
    assert list(table) == oracle


@pytest.mark.parametrize("d,lam_max", [(10, 1000), (8, 1020), (10, 1520), (12, 1000)])
def test_int64_counts_match_loop_oracle(d, lam_max):
    # the intermediate pilot's and the ratio window's tables, the last table at
    # d = 10 within the box bound ((2 * 39 + 1)^10 passes 2^63 at lam = 1521), and
    # (12, 1000), past the box 63^12 = 3.9e21 but within the ball bound 2.5e18
    # (its entries peak at 8.2e15)
    assert lattice._count_dtype(d, lam_max) is np.int64
    table = sphere_counts(d, lam_max)
    assert type(table) is tuple and all(type(c) is int for c in table)
    assert list(table) == loop_sphere_counts(d, lam_max)
    # the ball of radius sqrt(lam) + sqrt(10)/2 keeps d = 10 on int64 up to lam = 4923
    assert lattice._count_dtype(10, 4923) is np.int64
    assert lattice._count_dtype(10, 4924) is object


def test_int64_counts_wrap_past_the_box_bound(monkeypatch):
    # negative control: int64 at (24, 100), past the box and the ball bound, wraps
    assert lattice._count_dtype(24, 100) is object
    monkeypatch.setattr(lattice, "_count_dtype", lambda d, lam_max: np.int64)
    forced = lattice.sphere_counts.__wrapped__(24, 100)
    assert list(forced) != loop_sphere_counts(24, 100)


def jacobi_counts(d: int, n_max: int) -> list[int]:
    """Jacobi's closed forms for r_d(n), 1 <= n <= n_max (index 0 unused).

    r_4(n) = 8 sum of the divisors of n not divisible by 4;
    r_8(n) = 16 sum over divisors k of n of (-1)^(n + k) k^3.
    """
    out = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1, k):
            if d == 4:
                out[n] += 8 * k if k % 4 else 0
            else:
                out[n] += 16 * (-1) ** (n + k) * k**3
    return out


def jacobi_mismatches(table, closed) -> list[int]:
    return [n for n in range(1, len(closed)) if table[n] != closed[n]]


@pytest.mark.parametrize("d", [4, 8])
def test_counts_match_jacobi_closed_forms(d):
    closed = jacobi_counts(d, 2000)
    table = list(sphere_counts(d, 2000))
    assert jacobi_mismatches(table, closed) == []
    # negative control: one count off by one must be caught
    table[1999] += 1
    assert jacobi_mismatches(table, closed) == [1999]


def test_lagrange_four_squares():
    for d in range(4, 8):
        table = sphere_counts(d, 200)
        assert all(c > 0 for c in table)


def test_enumeration_examples():
    pts = enumerate_sphere(SphereSpec(1, 4), 10)
    assert pts.dtype == np.int64 and pts.tolist() == [[-2], [2]]
    assert enumerate_sphere(SphereSpec(2, 1), 10).tolist() == [[-1, 0], [0, -1], [0, 1], [1, 0]]
    assert enumerate_sphere(SphereSpec(3, 2), 100).shape == (12, 3)


def test_enumeration_properties():
    specs = [SphereSpec(d, lam) for d in (1, 2, 3, 4) for lam in (0, 1, 5, 9)] + [SphereSpec(5, 100)]
    for spec in specs:
        count = representation_count(spec)
        # a cap equal to the count enumerates
        pts = enumerate_sphere(spec, count)
        assert pts.dtype == np.int64 and pts.shape == (count, spec.d)
        rows = [tuple(x) for x in pts.tolist()]
        assert len(set(rows)) == len(rows)
        assert rows == sorted(rows)
        assert np.all(np.sum(pts * pts, axis=1) == spec.lam)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_sphere(SphereSpec(4, 10), 3)


def test_surface_measure():
    assert surface_measure(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert surface_measure(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert surface_measure(16) == pytest.approx(2 * math.pi**8 / 5040, rel=1e-14)
    # recursion sigma_d = 2 pi sigma_{d-2} / (d - 2)
    for d in range(4, 20):
        assert surface_measure(d) == pytest.approx(
            2 * math.pi * surface_measure(d - 2) / (d - 2), rel=1e-13
        )
    with pytest.raises(DomainError):
        surface_measure(1)


def test_surface_measure_overflow():
    # Gamma(d/2) is finite up to d = 343 and overflows a float from d = 344 on
    assert surface_measure(343) == 3.848314693351256e-223
    for d in (344, 400):
        with pytest.raises(InfeasibleScale, match="surface measure"):
            surface_measure(d)


def test_sphere_counts_closed_forms_in_high_dimension():
    # the table is built in a loop over d, so 1500 dimensions need no recursion
    d = 1500
    expected = (1, 2 * d, 2 * d * (d - 1), 8 * math.comb(d, 3), 2 * d + 16 * math.comb(d, 4))
    assert sphere_counts(d, 4) == expected


def test_density_ratio():
    assert density_ratio(SphereSpec(2, 1)) == pytest.approx(0.25, abs=0)
    assert density_ratio(SphereSpec(4, 1)) == pytest.approx(1 / 8, abs=0)
    assert density_ratio(SphereSpec(16, 4)) == pytest.approx(4**7 / 29152, rel=1e-15)
    with pytest.raises(EmptySphere):
        density_ratio(SphereSpec(2, 3))


def is_nearest_ratio(value: float, d: int, lam: int) -> bool:
    """Oracle: value is within half an ulp of lam^(d/2 - 1) / r_d(lam), compared as exact squares."""
    half = Fraction(math.ulp(value)) / 2
    exact_sq = Fraction(lam) ** (d - 2) / Fraction(representation_count(SphereSpec(d, lam))) ** 2
    return (Fraction(value) - half) ** 2 <= exact_sq <= (Fraction(value) + half) ** 2


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 40, 151])
def test_density_ratio_is_correctly_rounded(d):
    for lam in (1, 2, 3, 7, 50, 97, 128, 300):
        if representation_count(SphereSpec(d, lam)):
            assert is_nearest_ratio(density_ratio(SphereSpec(d, lam)), d, lam), lam


def test_density_ratio_keeps_the_single_rounding_bits():
    # up to d = 12 and lam ~ 10^3, lam^(d/2 - 1) and r_d(lam) are exact floats,
    # so the one rounded division of the float expression is already nearest
    for d in (2, 4, 8, 12):
        counts = sphere_counts(d, 1060)
        for lam in range(980, 1061):
            if counts[lam]:
                assert lattice._ratio_from_count(d, lam, counts[lam]) == float(lam) ** (d / 2 - 1) / counts[lam]


def test_density_ratio_past_the_float_range_of_its_power():
    # lam^(d/2 - 1) alone overflows a float; the ratio does not
    spec = SphereSpec(300, 120)
    with pytest.raises(OverflowError):
        float(spec.lam) ** (spec.d / 2 - 1)
    value = density_ratio(spec)
    assert math.isfinite(value) and is_nearest_ratio(value, spec.d, spec.lam)
    # a ratio past the float range is an infeasible scale, not a traceback
    with pytest.raises(InfeasibleScale, match="density ratio"):
        density_ratio(SphereSpec(600, 50))


def test_spec_validation():
    with pytest.raises(DomainError):
        SphereSpec(0, 1)
    with pytest.raises(DomainError):
        SphereSpec(3, -1)
