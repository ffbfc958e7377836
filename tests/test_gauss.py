import cmath
import itertools
import math

import numpy as np
import pytest

from sphlab import (
    DomainError,
    InfeasibleScale,
    PHI_CUTOFF,
    RangeError,
    SphereSpec,
    THETA_CUTOFF,
    FareyFraction,
    decomposition_error,
    eval_cutoff,
    eval_major_arc_term,
    eval_minor_term,
    eval_sphere_multiplier,
    farey_set,
    gauss_sum,
    gauss_sum_1d,
    representation_count,
    surface_measure,
    verify_gauss_identities,
)


def direct_gauss_sum(p: int, q: int, x) -> complex:
    """Oracle: the full q^-d-normalized sum over the residue grid."""
    x = list(x)
    d = len(x)
    total = 0.0 + 0.0j
    for n in itertools.product(range(1, q + 1), repeat=d):
        exponent = sum(nj * nj for nj in n) * p + sum(xj * nj for xj, nj in zip(x, n))
        total += cmath.exp(2j * math.pi * exponent / q)
    return total / q**d


def euler_phi(q: int) -> int:
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


def test_farey_examples():
    assert farey_set(1) == {FareyFraction(0, 1), FareyFraction(1, 1)}
    assert farey_set(2) == {FareyFraction(0, 1), FareyFraction(1, 1), FareyFraction(1, 2)}
    assert len(farey_set(5)) == 11


def test_farey_nesting_and_size():
    prev = farey_set(1)
    for n in range(2, 12):
        cur = farey_set(n)
        assert prev <= cur
        assert len(cur) == 1 + sum(euler_phi(q) for q in range(1, n + 1))
        prev = cur


def test_farey_validation():
    with pytest.raises(DomainError):
        FareyFraction(2, 4)
    with pytest.raises(DomainError):
        FareyFraction(3, 2)
    with pytest.raises(DomainError):
        farey_set(0)


def test_gauss_sum_1d_examples():
    for p, x in [(0, 0), (1, 3), (2, -5)]:
        assert gauss_sum_1d(p, 1, x) == pytest.approx(1.0, abs=1e-15)
    assert gauss_sum_1d(1, 2, 1) == pytest.approx(1.0, abs=1e-15)
    assert gauss_sum_1d(1, 2, 0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        gauss_sum_1d(2, 4, 0)


def test_gauss_sum_separability_vs_direct():
    for q in range(1, 7):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            for d in (1, 2, 3):
                for x in itertools.product(range(1, q + 1), repeat=d):
                    sep = gauss_sum(p, q, x)
                    direct = direct_gauss_sum(p, q, x)
                    assert abs(sep - direct) <= 1e-12


def test_gauss_sum_examples():
    assert gauss_sum(1, 1, [7, -2, 0]) == pytest.approx(1.0, abs=1e-15)
    assert gauss_sum(1, 2, [1, 1]) == pytest.approx(1.0, abs=1e-14)
    assert gauss_sum(1, 3, [0, 0]) == pytest.approx(direct_gauss_sum(1, 3, [0, 0]), abs=1e-12)


def test_gauss_periodicity():
    rng = np.random.Generator(np.random.Philox(31))
    for q in (2, 3, 5, 7):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            x = rng.integers(-20, 20, size=3)
            shift = q * rng.integers(-3, 4, size=3)
            assert gauss_sum(p, q, x) == pytest.approx(gauss_sum(p, q, x + shift), abs=1e-13)


def test_gauss_identities_report():
    report = verify_gauss_identities(12, 8)
    assert report.max_sum_deviation <= 1e-10
    assert report.max_bound_excess <= 1e-12
    single = verify_gauss_identities(1, 4)
    assert len(single.rows) == 1
    assert single.max_sum_deviation <= 1e-15


def test_gauss_sup_bound_direct():
    # |G| <= (2/q)^(d/2) checked against directly evaluated grid values
    for q in range(1, 7):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            for x in itertools.product(range(1, q + 1), repeat=2):
                assert abs(direct_gauss_sum(p, q, x)) <= (2 / q) ** 1 + 1e-12


def test_cutoff_shapes():
    assert eval_cutoff(THETA_CUTOFF, [0.0, 0.0]) == 1.0
    assert eval_cutoff(THETA_CUTOFF, [0.3, 0.0]) == 0.0
    assert eval_cutoff(THETA_CUTOFF, [0.125]) == 1.0
    assert eval_cutoff(THETA_CUTOFF, [0.25]) == 0.0
    assert eval_cutoff(PHI_CUTOFF, [0.25]) == 1.0
    assert eval_cutoff(PHI_CUTOFF, [0.5]) == 0.0
    rng = np.random.Generator(np.random.Philox(37))
    xs = rng.random((10_000, 2)) - 0.5
    for x in xs[:200]:
        theta = eval_cutoff(THETA_CUTOFF, x)
        phi = eval_cutoff(PHI_CUTOFF, x)
        assert 0.0 <= theta <= 1.0
        assert 0.0 <= phi <= 1.0
        assert theta * phi == pytest.approx(theta, abs=1e-15)
    # monotone decay of the 1-d profile away from the plateau
    grid = np.linspace(0.125, 0.25, 200)
    vals = [THETA_CUTOFF.profile(g) for g in grid]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_major_arc_at_origin():
    spec = SphereSpec(4, 4)
    count = representation_count(spec)
    val = eval_major_arc_term(spec, FareyFraction(1, 1), np.zeros(4))
    lam, d = spec.lam, spec.d
    expected = float(lam) ** (d / 2 - 1) * surface_measure(d) / (2 * count)
    assert val == pytest.approx(expected, abs=1e-12)


def test_major_arc_gauss_bound():
    rng = np.random.Generator(np.random.Philox(41))
    spec = SphereSpec(4, 9)
    count = representation_count(spec)
    for frac in [FareyFraction(1, 2), FareyFraction(2, 3), FareyFraction(1, 1)]:
        for _ in range(20):
            xi = rng.random(4) - 0.5
            val = eval_major_arc_term(spec, frac, xi)
            cap = (
                float(spec.lam) ** (spec.d / 2 - 1)
                / (2 * count)
                * (2 / frac.q) ** (spec.d / 2)
                * surface_measure(spec.d)
            )
            assert abs(val) <= cap + 1e-12


def test_minor_term_hand_case():
    # d=2, lam=4: the only denominator >= 2 in H_2 is q=2, and G(1/2; 0) = 0
    spec = SphereSpec(2, 4)
    val = eval_minor_term(spec, 2, np.zeros(2))
    assert val == pytest.approx(0.0, abs=1e-15)
    top = eval_minor_term(spec, 3, np.zeros(2))
    assert top == 0.0
    with pytest.raises(RangeError):
        eval_minor_term(spec, 4, np.zeros(2))
    with pytest.raises(RangeError):
        eval_minor_term(spec, 0, np.zeros(2))


def test_minor_term_continuity_under_small_shift():
    spec = SphereSpec(3, 9)
    xi = np.array([0.21, -0.11, 0.05])
    base = eval_minor_term(spec, 1, xi)
    nearby = eval_minor_term(spec, 1, xi + 1e-9)
    assert abs(base - nearby) <= 1e-6


def test_decomposition_bookkeeping():
    rng = np.random.Generator(np.random.Philox(43))
    for d, lam in [(2, 4), (3, 9), (3, 16)]:
        spec = SphereSpec(d, lam)
        nmax = math.isqrt(lam) + 1
        for n in range(1, nmax + 1):
            for _ in range(3):
                xi = rng.random(d) - 0.5
                report = decomposition_error(spec, n, xi)
                direct = eval_sphere_multiplier(spec, xi, method="coeff")
                total = report.major_sum + report.minor_term + report.total_error
                assert abs(total - direct) <= 1e-12
                assert report.paper_bound == pytest.approx(
                    float(d) ** (0.75 * d) / float(lam) ** (d / 4 - 1), rel=1e-13
                )


def test_decomposition_n1_has_empty_major():
    spec = SphereSpec(3, 4)
    report = decomposition_error(spec, 1, np.array([0.1, 0.2, -0.3]))
    assert report.major_sum == 0.0


def test_major_arcs_count_the_integer_arc_once():
    # at xi = 0 the sphere symbol is 1 and the full major-arc sum must track
    # it; counting both 0/1 and 1/1 doubled the q = 1 arc and gave about 1.88
    for lam in (16, 64, 144):
        report = decomposition_error(SphereSpec(8, lam), math.isqrt(lam) + 1, np.zeros(8))
        assert abs(report.major_sum - 1.0) < 0.02


def test_decomposition_budget_guard():
    with pytest.raises(InfeasibleScale):
        decomposition_error(SphereSpec(2, 10**6), 1, np.zeros(2), budget=1e9)


def test_major_arc_independent_reimplementation():
    # dual-path oracle: direct-sum Gauss factor and Bessel-form sphere symbol
    from scipy.special import gamma, jv

    spec = SphereSpec(2, 4)
    count = representation_count(spec)
    for frac, xi in [
        (FareyFraction(1, 2), np.zeros(2)),
        (FareyFraction(1, 2), np.array([0.21, -0.37])),
        (FareyFraction(1, 3), np.array([0.05, 0.41])),
    ]:
        lam, d, t = spec.lam, spec.d, spec.radius
        nearest = np.floor(frac.q * xi + 0.5).astype(int)
        radius = t * float(np.linalg.norm(nearest / frac.q - xi))
        if radius == 0.0:
            mu_hat = 1.0
        else:
            mu_hat = gamma(d / 2) * jv(d / 2 - 1, 2 * math.pi * radius) / (math.pi * radius) ** (
                d / 2 - 1
            )
        oracle = (
            float(lam) ** (d / 2 - 1)
            / (2 * count)
            * cmath.exp(-2j * math.pi * lam * frac.p / frac.q)
            * direct_gauss_sum(frac.p, frac.q, nearest)
            * surface_measure(d)
            * mu_hat
        )
        val = eval_major_arc_term(spec, frac, xi)
        assert abs(val - oracle) <= 1e-10
        if np.all(nearest == 0) and lam % 2 == 0:
            assert abs(val.imag) <= 1e-14


REFERENCE_POINT = SphereSpec(16, 1024)
# frozen reference run (seed 101, cutoff 5): |major|, |minor|, |error|
REFERENCE_ROWS = [
    (0.9999428859032382, 5.711436530394963e-05, 2.685421596058296e-10),
    (1.0528221490425764e-12, 0.0, 8.222987944958746e-12),
    (6.290448464036078e-13, 0.0, 1.1781937875609897e-11),
]


def test_decomposition_reference_point_frozen():
    # the first row is xi = 0, where the sphere symbol is 1 and the arcs with
    # q < 5 plus the tail reproduce it to 3e-10; the paper envelope
    # d^(3d/4)/lam^(d/4-1) = 262144 is far above everything here
    rng = np.random.Generator(np.random.Philox(101))
    points = np.zeros((3, 16))
    points[1:] = rng.random((2, 16)) - 0.5
    for xi, (major, minor, error) in zip(points, REFERENCE_ROWS):
        rep = decomposition_error(REFERENCE_POINT, 5, xi)
        assert abs(rep.major_sum) == pytest.approx(major, rel=1e-9, abs=1e-13)
        assert abs(rep.minor_term) == pytest.approx(minor, rel=1e-9, abs=1e-13)
        assert abs(rep.total_error) == pytest.approx(error, rel=1e-9, abs=1e-13)
        assert abs(rep.total_error) <= rep.paper_bound
