import math
from dataclasses import fields, replace

import numpy as np
import pytest

from sphlab import (
    DomainError,
    EmptySphere,
    InfeasibleScale,
    RegimeViolation,
    ResidualSurvey,
    SphereSpec,
    continuous_sphere_symbol_batch,
    count_negative_cos,
    enumerate_sphere,
    eval_continuous_sphere_symbol,
    eval_folded_symbol,
    eval_gaussian_approximant,
    eval_semigroup_symbol,
    nearest_lattice,
    periodic_norm,
    representation_count,
    residual_survey,
    sphere_counts,
    sphere_multiplier_batch,
)
from sphlab import symbols
from sphlab.symbols import _BLOCK_ENTRIES, _reachable_degrees, fit_small_scale_constant
from transference import reduce_to_torus


def test_periodic_norm_examples():
    assert periodic_norm([0.5, 0.0]) == 0.5
    assert periodic_norm([1.0, 1.0]) == 0.0
    assert periodic_norm([0.75]) == 0.25


def test_nearest_lattice_boundary_convention():
    assert nearest_lattice([0.4, -0.4]).tolist() == [0, 0]
    assert nearest_lattice([0.5, 1.5]).tolist() == [1, 2]
    assert nearest_lattice([-0.5]).tolist() == [0]


def test_reduce_to_torus_half_open():
    rng = np.random.Generator(np.random.Philox(11))
    x = 10.0 * rng.standard_normal(2000)
    reduced = reduce_to_torus(x)
    assert np.all(reduced >= -0.5)
    assert np.all(reduced < 0.5)
    assert np.allclose(np.round(x - reduced), x - reduced)


def test_sine_periodic_norm_sandwich():
    # 2 ||eta|| <= |sin(pi eta)| <= pi ||eta||
    rng = np.random.Generator(np.random.Philox(5))
    eta = rng.random(10_000) - 0.5
    norms = np.abs(eta - np.round(eta))
    sines = np.abs(np.sin(np.pi * eta))
    assert np.all(2 * norms <= sines + 1e-15)
    assert np.all(sines <= np.pi * norms + 1e-15)


def direct_sphere_multiplier(spec: SphereSpec, xis) -> np.ndarray:
    """Oracle: the mean of e^(2 pi i <xi, x>) over the enumerated sphere, one row per frequency."""
    pts = np.asarray(enumerate_sphere(spec), dtype=float)
    return np.exp(2j * np.pi * (np.atleast_2d(xis) @ pts.T)).mean(axis=1)


def test_multiplier_at_zero_and_quarter():
    for spec in (SphereSpec(2, 1), SphereSpec(3, 5), SphereSpec(6, 12)):
        assert sphere_multiplier_batch(spec, np.zeros(spec.d))[0] == pytest.approx(1.0, abs=1e-13)
    val = direct_sphere_multiplier(SphereSpec(2, 1), [0.25, 0.0])[0]
    assert val == pytest.approx(0.5, abs=1e-14)


def test_multiplier_dual_path():
    rng = np.random.Generator(np.random.Philox(17))
    for d, lam in [(2, 1), (3, 2), (4, 9), (5, 12), (6, 40)]:
        spec = SphereSpec(d, lam)
        xis = rng.random((20, d)) - 0.5
        direct = direct_sphere_multiplier(spec, xis)
        coeff = sphere_multiplier_batch(spec, xis)
        assert np.abs(direct - coeff).max() <= 1e-11
    half = np.full(3, 0.5)
    spec = SphereSpec(3, 2)
    assert direct_sphere_multiplier(spec, half)[0] == pytest.approx(
        sphere_multiplier_batch(spec, half)[0], abs=1e-12
    )


def test_multiplier_conjugation_and_bound():
    rng = np.random.Generator(np.random.Philox(23))
    spec = SphereSpec(4, 6)
    xis = rng.random((50, 4)) - 0.5
    vals = sphere_multiplier_batch(spec, xis)
    mirrored = sphere_multiplier_batch(spec, -xis)
    assert np.allclose(vals, mirrored, atol=1e-12)
    assert np.all(np.abs(vals) <= 1 + 1e-12)
    # the sphere is symmetric under x -> -x, so the symbol is real
    assert np.abs(direct_sphere_multiplier(spec, xis).imag).max() <= 1e-10


def test_multiplier_real_on_half_lattice():
    # at frequencies with coordinates in {0, 1/2} every phase is +-1
    spec = SphereSpec(4, 5)
    xis = [[0.5, 0, 0, 0], [0.5, 0.5, 0, 0], [0.5, 0.5, 0.5, 0.5]]
    assert np.abs(direct_sphere_multiplier(spec, xis).imag).max() <= 1e-12


def row_major_sphere_multiplier(spec: SphereSpec, xis) -> np.ndarray:
    """Oracle: the unblocked row-major Kahan extraction over one (N, lam + 1) product.

    Every factor, the first and last included, runs the full shifted-add
    pass, so the blocked degree-major kernel must reproduce it bit for bit.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    nbatch, lam = xis.shape[0], spec.lam
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
    return poly[:, lam] / representation_count(spec)


def block_rows(lam: int) -> int:
    return max(1, _BLOCK_ENTRIES // (lam + 1))


@pytest.mark.parametrize(
    "d, lam, nrows",
    [
        (4, 0, 5),  # lam = 0: the constant 1
        (1, 49, 40),  # d = 1: the first factor is also the last
        (2, 25, 60),
        (3, 6, 0),  # an empty (0, d) batch
        (4, 300, 1),
        (4, 300, block_rows(300)),  # exactly one block
        (4, 300, 3 * block_rows(300) + 17),  # several blocks, the last one ragged
        (3, 40000, 3),  # lam + 1 > 2**15: one row per block
        # middle factors on their listed degrees only
        (3, 300, 7),
        (3, 1024, 5),
        (4, 1024, 6),
        (5, 300, 9),
        (5, 1024, 2 * block_rows(1024) + 3),
        (10, 1000, 2 * block_rows(1000) + 5),
        # lam = 1: every list would be full, so every factor runs contiguous passes
        (3, 1, 4),
        (4, 1, 4),
        (6, 1, 4),
    ],
)
def test_multiplier_matches_row_major_oracle(d, lam, nrows):
    spec = SphereSpec(d, lam)
    rng = np.random.Generator(np.random.Philox(d * 100_003 + lam))
    xis = rng.random((nrows, d)) - 0.5
    got = sphere_multiplier_batch(spec, xis)
    assert got.shape == (nrows,)
    assert np.array_equal(got, row_major_sphere_multiplier(spec, xis))


def test_multiplier_matches_row_major_oracle_at_intermediate_pilot():
    # the 201 frequencies of the gated pilot: d = 10, lam = 1000, 200 samples, seed 42
    out = residual_survey(SphereSpec(10, 1000), "intermediate", 200, seed=42)
    assert len(out.xis) == 201 > block_rows(1000)
    assert np.array_equal(out.exact, row_major_sphere_multiplier(SphereSpec(10, 1000), out.xis))


def sums_of_two_squares(n: int) -> bool:
    """Oracle: n >= 0 is a sum of two squares iff every prime 3 mod 4 divides it to an even power."""
    if n == 0:
        return True
    p = 2
    while p * p <= n:
        power = 0
        while n % p == 0:
            n //= p
            power += 1
        if p % 4 == 3 and power % 2:
            return False
        p += 1
    return n % 4 != 3


def expected_lists(d: int, lam: int) -> dict[int, list[int]]:
    """Oracle: the degrees each middle factor must hold, from the number-theoretic tests."""
    reachable = {1: lambda n: math.isqrt(n) ** 2 == n, 2: sums_of_two_squares}
    lists = {}
    for j in range(1, d - 1):
        keep = [
            (j != 1 or reachable[2](i)) and (d - 1 - j > 2 or reachable[d - 1 - j](lam - i))
            for i in range(lam + 1)
        ]
        if not all(keep):
            lists[j] = [i for i in range(lam + 1) if keep[i]]
    return lists


def test_sums_of_two_squares_oracle_against_brute_force():
    brute = {a * a + b * b for a in range(45) for b in range(45)}
    assert [n for n in range(2001) if sums_of_two_squares(n)] == sorted(n for n in brute if n <= 2000)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 10])
@pytest.mark.parametrize("lam", [1, 2, 5, 300, 1024, 2000])
def test_reachable_degrees_match_the_number_theoretic_oracle(d, lam):
    got = _reachable_degrees(d, lam)
    assert {j: dest.tolist() for j, dest in got.items()} == expected_lists(d, lam)
    if lam == 1 or d < 3:
        assert got == {}


def kahan_steps(d: int, lam: int) -> int:
    """Per row, the middle factors' Kahan steps: one per kept degree i and k with k^2 <= i."""
    listed = _reachable_degrees(d, lam)
    degrees = {j: listed.get(j, np.arange(lam + 1)) for j in range(1, d - 1)}
    return sum(math.isqrt(i) for dest in degrees.values() for i in dest.tolist())


def test_reachable_degrees_prune_the_intermediate_pilot():
    # (10, 1000): factors 1, 7 and 8 are listed, 164,920 -> 117,453 steps per row
    assert sorted(_reachable_degrees(10, 1000)) == [1, 7, 8]
    assert 8 * sum(1001 - k * k for k in range(1, 32)) == 164_920
    assert kahan_steps(10, 1000) == 117_453


@pytest.mark.parametrize("d, lam", [(3, 300), (5, 300), (5, 1024)])
def test_dropping_a_listed_degree_breaks_the_oracle(monkeypatch, d, lam):
    spec = SphereSpec(d, lam)
    xis = np.random.Generator(np.random.Philox(d + lam)).random((6, d)) - 0.5
    want = row_major_sphere_multiplier(spec, xis)
    assert np.array_equal(sphere_multiplier_batch(spec, xis), want)
    full = _reachable_degrees(d, lam)
    for j, dest in full.items():
        short = {**full, j: np.delete(dest, len(dest) // 2)}
        monkeypatch.setattr(symbols, "_reachable_degrees", lambda d_, lam_: short)
        assert not np.array_equal(sphere_multiplier_batch(spec, xis), want), j


@pytest.mark.parametrize("d, lam", [(4, 300), (6, 1024)])
def test_squares_in_place_of_sums_of_two_squares_break_the_oracle(monkeypatch, d, lam):
    spec = SphereSpec(d, lam)
    xis = np.random.Generator(np.random.Philox(d * lam)).random((6, d)) - 0.5
    want = row_major_sphere_multiplier(spec, xis)
    counts = symbols._count_table
    monkeypatch.setattr(symbols, "_count_table", lambda m, n: counts(1, n))
    assert not np.array_equal(sphere_multiplier_batch(spec, xis), want)


def test_reachable_degrees_add_no_count_cache_entries():
    """S_1 and S_2 come from uncached tables: 200 radii at d = 4 look up only their (4, lam) tables."""
    sphere_counts.cache_clear()
    xi = np.full((1, 4), 0.1)
    radii = range(1001, 1201)
    for lam in radii:
        sphere_multiplier_batch(SphereSpec(4, lam), xi)
    assert sphere_counts.cache_info().misses == 200
    sphere_counts(4, radii[-1])
    assert sphere_counts.cache_info().misses == 200


def test_multiplier_empty_sphere_at_non_square_lambda_in_one_dimension():
    assert sphere_multiplier_batch(SphereSpec(1, 49), [[0.1]]).shape == (1,)
    with pytest.raises(EmptySphere):
        sphere_multiplier_batch(SphereSpec(1, 50), [[0.1]])


def test_multiplier_rows_are_independent_of_blocking():
    spec = SphereSpec(5, 400)
    rng = np.random.Generator(np.random.Philox(29))
    xis = rng.random((2 * block_rows(400) + 5, 5)) - 0.5
    one_by_one = np.concatenate([sphere_multiplier_batch(spec, xi[np.newaxis]) for xi in xis])
    assert np.array_equal(sphere_multiplier_batch(spec, xis), one_by_one)


def test_multiplier_rejects_bad_frequency_arrays():
    spec = SphereSpec(3, 2)
    assert sphere_multiplier_batch(spec, np.zeros((2, 3))).shape == (2,)
    with pytest.raises(DomainError):
        sphere_multiplier_batch(spec, np.zeros((2, 3, 3)))
    with pytest.raises(DomainError):
        sphere_multiplier_batch(spec, np.zeros((2, 4)))
    lam_zero = SphereSpec(3, 0)  # checked before the lam = 0 shortcut
    assert np.array_equal(sphere_multiplier_batch(lam_zero, np.full((2, 3), 0.25)), [1.0, 1.0])
    for bad in (math.nan, math.inf, -math.inf):
        xis = np.full((2, 3), 0.25)
        xis[1, 2] = bad
        for s in (spec, lam_zero):
            with pytest.raises(DomainError):
                sphere_multiplier_batch(s, xis)


def test_gaussian_approximant_has_half_the_symbol_curvature_at_zero():
    """Pins the "sin" approximant's first-order agreement with the sphere symbol.

    Near xi = 0 the symbol has 1 - m = 2 pi^2 lam |xi|^2 / d, as the
    continuous sphere does, and exp(-(lam/d) sum_j sin^2(pi xi_j)) has half
    of it.  At period-2 frequencies, xi_j = 1/2 on s coordinates, the two
    differ at first order too.  Changing the approximant's exponent would
    change these values, the residual pilots' outputs and their frozen keys.
    """
    spec = SphereSpec(16, 100)
    xi = np.zeros((1, 16))
    xi[0, 0] = 0.002
    one_minus_m = 1.0 - sphere_multiplier_batch(spec, xi)[0]
    assert one_minus_m == pytest.approx(4.934e-4, rel=1e-3)
    assert one_minus_m == pytest.approx(2 * math.pi**2 * spec.lam * 0.002**2 / spec.d, rel=1e-3)
    ratio = (1.0 - eval_gaussian_approximant(spec, xi[0], "sin")) / one_minus_m
    assert 0.499 <= ratio <= 0.501
    spec = SphereSpec(64, 4)
    xi = np.zeros((1, 64))
    xi[0, :4] = 0.5
    assert sphere_multiplier_batch(spec, xi)[0] == pytest.approx(0.56839, abs=1e-5)
    assert eval_gaussian_approximant(spec, xi[0], "sin") == pytest.approx(0.77880, abs=1e-5)


def test_gaussian_approximant():
    spec = SphereSpec(25, 1)
    assert eval_gaussian_approximant(spec, np.zeros(25), "sin") == 1.0
    xi = np.zeros(25)
    xi[0] = 0.5
    assert eval_gaussian_approximant(spec, xi, "sin") == pytest.approx(
        math.exp(-1 / 25), rel=1e-14
    )
    even = SphereSpec(4, 2)
    assert eval_gaussian_approximant(even, np.full(4, 0.5), "cos") == pytest.approx(1.0)
    odd = SphereSpec(4, 3)
    assert eval_gaussian_approximant(odd, np.full(4, 0.5), "cos") == pytest.approx(-1.0)
    with pytest.raises(DomainError):
        eval_gaussian_approximant(spec, xi, "tan")
    # rows of an (N, d) array, with one branch per row, match the one-row calls bit for bit
    rng = np.random.Generator(np.random.Philox(7))
    for spec in (even, odd):
        xis = rng.random((30, 4)) - 0.5
        branches = np.where(count_negative_cos(xis) <= 2, "sin", "cos")
        rows = eval_gaussian_approximant(spec, xis, branches)
        assert rows.shape == (30,)
        assert rows.tolist() == [eval_gaussian_approximant(spec, x, b) for x, b in zip(xis, branches)]
        assert eval_gaussian_approximant(spec, xis, "cos").tolist() == [
            eval_gaussian_approximant(spec, x, "cos") for x in xis
        ]
    with pytest.raises(DomainError):
        eval_gaussian_approximant(even, xis, ["sin"] * 29 + ["tan"])


def test_semigroup_symbol():
    assert eval_semigroup_symbol(3.0, np.zeros(4)) == 1.0
    assert eval_semigroup_symbol(1.0, [0.5]) == pytest.approx(math.exp(-1.0), rel=1e-14)
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(50):
        xi = rng.random(5) - 0.5
        s, t = rng.random(2) + 0.1
        prod = eval_semigroup_symbol(s, xi) * eval_semigroup_symbol(t, xi)
        assert prod == pytest.approx(eval_semigroup_symbol(s + t, xi), rel=1e-14)
    xis = rng.random((40, 5)) - 0.5
    assert eval_semigroup_symbol(0.7, xis).tolist() == [eval_semigroup_symbol(0.7, x) for x in xis]
    with pytest.raises(DomainError):
        eval_semigroup_symbol(0.0, [0.1])


def test_continuous_symbol_d3_closed_form():
    for r in (0.05, 0.3, 1.7, 6.0):
        assert eval_continuous_sphere_symbol(3, r) == pytest.approx(
            math.sin(2 * math.pi * r) / (2 * math.pi * r), abs=1e-11
        )
    assert eval_continuous_sphere_symbol(7, 0.0) == 1.0


def quadrature_sphere_symbol(d: int, radius: float) -> float:
    """Independent oracle: the projection integral by adaptive quadrature.

    int cos(2 pi r s) (1 - s^2)^((d-3)/2) ds / int (1 - s^2)^((d-3)/2) ds over
    s in [-1, 1], after s = sin(u) removes the d = 2 endpoint singularity;
    the integrand is even in u, so only the half interval is integrated.
    """
    from scipy.integrate import quad

    power = d - 2
    half_pi = math.pi / 2.0
    limit = max(200, int(40 * radius) + 200)
    den, _ = quad(lambda u: math.cos(u) ** power, 0.0, half_pi, epsabs=5e-14, limit=limit)
    num, _ = quad(
        lambda u: math.cos(2.0 * math.pi * radius * math.sin(u)) * math.cos(u) ** power,
        0.0,
        half_pi,
        epsabs=5e-13,
        limit=limit,
    )
    return num / den


def bessel_sphere_symbol(d: int, radius):
    """Closed-form oracle Gamma(d/2) (pi r)^(1 - d/2) J_(d/2 - 1)(2 pi r), elementwise, for r > 0.

    Grafakos, Classical Fourier Analysis, App. B.4, evaluated by scipy.special.
    """
    from scipy.special import gamma, jv

    order = d / 2.0 - 1.0
    return gamma(d / 2.0) * jv(order, 2.0 * math.pi * radius) / (math.pi * radius) ** order


def test_continuous_symbol_bessel_closed_form():
    # the oracle ignores quad's error estimates: at d = 13, 14 and 18 they
    # exceed 1e-10 although the values agree with the closed form to 2e-14
    for d in range(2, 30):
        for r in (0.0, 1e-6, 1e-3, 0.7, 2.5, 9.0, 20.0, 23.0, 39.0, 45.0):
            assert eval_continuous_sphere_symbol(d, r) == pytest.approx(
                quadrature_sphere_symbol(d, r), abs=1e-13
            )
    assert eval_continuous_sphere_symbol(13, 0.0) == 1.0
    with pytest.raises(DomainError):
        eval_continuous_sphere_symbol(1, 0.5)


def test_continuous_symbol_batch_matches_quadrature():
    radii = np.array([[0.0, 1e-12, -1e-3], [0.7, -2.5, 39.0]])
    for d in (2, 3, 5, 8, 13, 16):
        values = continuous_sphere_symbol_batch(d, radii)
        assert values.shape == radii.shape
        assert values[0, 0] == values[0, 1] == 1.0
        for r, value in zip(radii.ravel(), values.ravel()):
            assert value == pytest.approx(quadrature_sphere_symbol(d, abs(r)), abs=1e-12)
            assert value == eval_continuous_sphere_symbol(d, r)
    with pytest.raises(DomainError):
        continuous_sphere_symbol_batch(1, radii)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            continuous_sphere_symbol_batch(3, [0.5, bad])


# tiny radii on both sides of the r < 1e-9 cut, then a dense grid up to r = 45
RULE_RADII = np.concatenate([np.geomspace(1e-12, 1e-2, 11), np.linspace(0.01, 45.0, 3001)])


def test_continuous_symbol_rule_matches_bessel_oracle():
    for d in range(2, 30):
        values = continuous_sphere_symbol_batch(d, RULE_RADII)
        assert np.abs(values - bessel_sphere_symbol(d, RULE_RADII)).max() <= 1e-13
        # one radius alone, or in a batch in another order, gets the same bits
        scalar = [eval_continuous_sphere_symbol(d, r) for r in RULE_RADII[::50]]
        assert np.array_equal(values[::50], scalar)
        order = np.random.Generator(np.random.Philox(d)).permutation(len(RULE_RADII))
        assert np.array_equal(continuous_sphere_symbol_batch(d, RULE_RADII[order]), values[order])


def test_continuous_symbol_rule_over_budget_raises():
    # the rule keeps about pi r / 2 of its nodes per radius, so r = 1e9 is past 2**28
    with pytest.raises(InfeasibleScale):
        continuous_sphere_symbol_batch(8, [1e9])
    with pytest.raises(InfeasibleScale):
        continuous_sphere_symbol_batch(8, [1e300])
    assert abs(continuous_sphere_symbol_batch(8, [1e6])[0]) <= 1.0


def test_half_node_rule_fails_the_bessel_oracle(monkeypatch):
    # negative control: with half the nodes the rule is far off once r >= 20
    full = symbols._rule_size
    monkeypatch.setattr(symbols, "_rule_size", lambda d, x: full(d, x) // 2)
    radii = np.linspace(20.0, 45.0, 101)
    for d in range(2, 30):
        error = np.abs(continuous_sphere_symbol_batch(d, radii) - bessel_sphere_symbol(d, radii))
        assert error.max() > 1e-13


def test_continuous_symbol_near_zero_expansion():
    d, r = 16, 0.1
    val = eval_continuous_sphere_symbol(d, r)
    assert abs(val - 1.0) <= 2 * math.pi**2 * r**2 / d


def test_folded_symbol():
    spec = SphereSpec(3, 4)
    assert eval_folded_symbol(spec, np.array([2.0, -1.0, 5.0])) == pytest.approx(1.0)
    xi = np.array([0.13, -0.31, 0.02])
    assert eval_folded_symbol(spec, xi) == pytest.approx(
        eval_folded_symbol(spec, xi + np.array([1.0, 0.0, 0.0])), abs=1e-12
    )
    assert eval_folded_symbol(spec, np.array([0.1, 0.0, 0.0])) == pytest.approx(
        math.sin(0.4 * math.pi) / (0.4 * math.pi), abs=1e-10
    )


def test_folded_symbol_flatness_bound():
    rng = np.random.Generator(np.random.Philox(29))
    for d in (8, 16):
        spec = SphereSpec(d, 4)
        for _ in range(50):
            xi = rng.random(d) - 0.5
            dev = abs(eval_folded_symbol(spec, xi) - 1.0)
            assert dev <= 2 * math.pi**2 * (2.0 * periodic_norm(xi)) ** 2 / d


def test_count_negative_cos():
    assert count_negative_cos(np.zeros(3)) == 0
    assert count_negative_cos([0.5, 0.5, 0.0]) == 2
    assert count_negative_cos([0.3, 0.2]) == 1
    assert count_negative_cos([[0.5, 0.5, 0.0], [0.1, 0.0, 0.2]]).tolist() == [2, 0]


def test_residual_survey_regimes():
    with pytest.raises(RegimeViolation):
        residual_survey(SphereSpec(4, 1), "small", 10, 1)
    with pytest.raises(RegimeViolation):
        residual_survey(SphereSpec(25, 4), "small", 10, 1)
    with pytest.raises(RegimeViolation):
        residual_survey(SphereSpec(5, 100), "intermediate", 10, 1)
    with pytest.raises(DomainError):
        residual_survey(SphereSpec(5, 1), "medium", 10, 1)


def test_residual_survey_small():
    spec = SphereSpec(25, 1)
    out = residual_survey(spec, "small", 50, seed=42)
    assert out.xis.shape == (51, 25)
    columns = (out.exact, out.approx, out.branch, out.v_card, out.residual, out.bound, out.trig_sum)
    for column in columns + (out.ratio,):
        assert column.shape == (51,)
    assert not out.xis[0].any()
    assert out.branch[0] == "sin"
    assert out.residual[0] == 0.0
    rerun = residual_survey(spec, "small", 50, seed=42)
    assert np.array_equal(out.residual, rerun.residual)
    assert np.array_equal(out.branch == "sin", out.v_card <= 12.5)
    assert np.array_equal(out.residual, np.abs(out.exact - out.approx))
    assert np.isfinite(out.ratio).all()


def row_trig_sum(xi: np.ndarray, branch: str) -> float:
    """sum_j sin^2(pi xi_j) or sum_j cos^2(pi xi_j) at one frequency, in plain float arithmetic."""
    trig = math.sin if branch == "sin" else math.cos
    return sum(trig(math.pi * x) ** 2 for x in xi)


def row_bound(spec: SphereSpec, regime: str, xi: np.ndarray, branch: str) -> float:
    """A regime's bound at one frequency, in plain float arithmetic."""
    d, kappa = spec.d, math.sqrt(spec.lam / spec.d)
    if regime == "small":
        total = row_trig_sum(xi, branch)
        return min(math.exp(-(kappa**2) * total / 400.0), kappa**2 * total)
    if regime == "intermediate":
        scaled = kappa * float(periodic_norm(xi if branch == "sin" else xi + 0.5))
        return (min(scaled, 1.0 / scaled) if scaled > 0.0 else 0.0) + 1.0 / kappa
    norm, t = float(periodic_norm(xi)), spec.radius
    return 0.0 if norm == 0.0 else min(t**2 / d * norm**2, t**-0.5 * d**0.25 / math.sqrt(norm))


@pytest.mark.parametrize(
    "regime, d, lam",
    [
        ("small", 25, 1),
        ("small", 400, 16),  # kappa^2 S > 1: the exponential wing binds
        ("intermediate", 10, 1000),
        ("folded", 8, 4),
        ("folded", 8, 16),  # t^(-1/2) d^(1/4) / |xi| binds
    ],
)
def test_residual_survey_columns_match_row_oracle(regime, d, lam):
    spec = SphereSpec(d, lam)
    out = residual_survey(spec, regime, 100, seed=7)
    cos_branch = out.branch == "cos"
    assert np.array_equal(out.v_card, [count_negative_cos(xi) for xi in out.xis])
    if regime == "folded":
        assert not cos_branch.any()
        heat = [eval_semigroup_symbol(lam / d, xi) for xi in out.xis]
    else:
        assert np.array_equal(cos_branch, out.v_card > d / 2)
        assert cos_branch.any() or regime == "small"
        heat = [eval_gaussian_approximant(spec, xi, b) for xi, b in zip(out.xis, out.branch)]
    assert np.array_equal(out.approx, heat)
    trig_sums = [row_trig_sum(xi, b) for xi, b in zip(out.xis, out.branch)]
    assert np.allclose(out.trig_sum, trig_sums, rtol=1e-14, atol=0.0)
    bounds = [row_bound(spec, regime, xi, b) for xi, b in zip(out.xis, out.branch)]
    assert np.allclose(out.bound, bounds, rtol=1e-14, atol=0.0)


def test_folded_survey_matches_scalar_symbol():
    for d, lam in ((8, 1), (8, 16), (16, 4)):
        spec = SphereSpec(d, lam)
        out = residual_survey(spec, "folded", 300, seed=42)
        scalar = [eval_continuous_sphere_symbol(d, spec.radius * periodic_norm(xi)) for xi in out.xis]
        assert np.array_equal(out.exact, scalar)
        assert np.array_equal(out.exact, eval_folded_symbol(spec, out.xis))


def test_residual_survey_folded_zero_sample():
    out = residual_survey(SphereSpec(8, 4), "folded", 5, seed=9)
    assert out.residual[0] == 0.0
    assert out.bound[0] == 0.0
    assert out.ratio[0] == 0.0


def test_residual_survey_ratio_corners():
    out = residual_survey(SphereSpec(8, 4), "folded", 2, seed=9)
    corners = replace(out, residual=np.array([0.0, 1.0, 3.0]), bound=np.array([0.0, 0.0, 2.0]))
    assert corners.ratio.tolist() == [0.0, math.inf, 1.5]


def one_row_survey(xi, residual: float) -> ResidualSurvey:
    """A synthetic "sin"-branch survey of the single frequency xi."""
    xis = np.array([xi], dtype=float)
    trig_sum = (np.sin(np.pi * xis) ** 2).sum(axis=1)
    zero = np.zeros(1)
    branch = np.array(["sin"])
    return ResidualSurvey(
        xis, zero, zero, branch, count_negative_cos(xis), np.array([residual]), zero, trig_sum
    )


def join(*surveys: ResidualSurvey) -> ResidualSurvey:
    return ResidualSurvey(
        *(np.concatenate([getattr(s, f.name) for s in surveys]) for f in fields(ResidualSurvey))
    )


def test_fit_small_scale_constant():
    out = residual_survey(SphereSpec(25, 1), "small", 100, seed=42)
    assert fit_small_scale_constant(out, 1 / 25) == 1.0
    # a synthetic sample violating even the flattest wing forces c = 0
    xi = [0.5] * 4
    bad = one_row_survey(xi, 2.0)
    assert bad.trig_sum[0] == 4.0
    assert fit_small_scale_constant(bad, 1.0) == 0.0
    # one violating row among dominated ones decides
    assert fit_small_scale_constant(join(one_row_survey(xi, 0.0), bad), 1.0) == 0.0
    # intermediate case: residual between the c=1 and c=0 wings bisects
    mid = one_row_survey(xi, math.exp(-4.0 / 800.0))
    fitted = fit_small_scale_constant(mid, 1.0)
    assert 0.0 < fitted < 1.0
    assert math.exp(-fitted * 4.0 / 400.0) >= mid.residual[0] - 1e-12
    assert fit_small_scale_constant(join(one_row_survey(xi, 0.0), mid), 1.0) == fitted
