import cmath
import itertools
import math

import numpy as np
import pytest

from sphlab import gauss as gauss_module
from sphlab import (
    BumpCutoff,
    DomainError,
    InfeasibleScale,
    RangeError,
    SphereSpec,
    THETA_CUTOFF,
    FareyFraction,
    decompose_arcs,
    decomposition_error,
    eval_continuous_sphere_symbol,
    eval_major_arc_term,
    eval_minor_term,
    farey_set,
    gauss_sum,
    nearest_lattice,
    representation_count,
    sphere_multiplier_batch,
    surface_measure,
    verify_gauss_identities,
)
from test_symbols import bessel_sphere_symbol


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
        assert gauss_sum(p, 1, [x]) == pytest.approx(1.0, abs=1e-15)
    assert gauss_sum(1, 2, [1]) == pytest.approx(1.0, abs=1e-15)
    assert gauss_sum(1, 2, [0]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        gauss_sum(2, 4, [0])
    with pytest.raises(DomainError):
        gauss_sum(1, 0, [0])


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


def eval_cutoff(cut: BumpCutoff, x) -> float:
    """Coordinate product of the 1-d bump profile; values in [0, 1]."""
    return float(np.prod(cut.profile(np.asarray(x, dtype=float).ravel())))


def test_cutoff_shapes():
    wide = BumpCutoff(plateau=0.25, support=0.5)
    assert eval_cutoff(THETA_CUTOFF, [0.0, 0.0]) == 1.0
    assert eval_cutoff(THETA_CUTOFF, [0.3, 0.0]) == 0.0
    assert eval_cutoff(THETA_CUTOFF, [0.125]) == 1.0
    assert eval_cutoff(THETA_CUTOFF, [0.25]) == 0.0
    assert eval_cutoff(wide, [0.25]) == 1.0
    assert eval_cutoff(wide, [0.5]) == 0.0
    rng = np.random.Generator(np.random.Philox(37))
    xs = rng.random((10_000, 2)) - 0.5
    for x in xs[:200]:
        theta = eval_cutoff(THETA_CUTOFF, x)
        phi = eval_cutoff(wide, x)
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
                direct = sphere_multiplier_batch(spec, xi)[0]
                total = report.major_sum + report.minor_term + report.total_error
                assert abs(total - direct) <= 1e-12
                assert report.paper_bound == pytest.approx(
                    float(d) ** (0.75 * d) / float(lam) ** (d / 4 - 1), rel=1e-13
                )


def test_decompose_arcs_block():
    spec = SphereSpec(3, 16)
    rng = np.random.Generator(np.random.Philox(44))
    xis = rng.random((5, 3)) - 0.5
    arcs = decompose_arcs(spec, xis, range(2, 6))
    assert arcs.cutoffs == (2, 3, 4, 5)
    assert arcs.major.shape == arcs.minor.shape == arcs.error.shape == (4, 5)
    symbol = sphere_multiplier_batch(spec, xis)
    assert np.abs(arcs.major + arcs.minor + arcs.error - symbol).max() <= 1e-15
    report = arcs.report(1, 2)
    assert report.cutoff_index == 3 and report.xi == tuple(xis[2])
    assert report.total_error == arcs.error[1, 2]
    with pytest.raises(RangeError):
        decompose_arcs(spec, xis, (1, 6))
    with pytest.raises(DomainError):
        decompose_arcs(spec, xis[:, :2], (1,))
    with pytest.raises(InfeasibleScale):
        decompose_arcs(spec, xis, (1,), budget=100.0)


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


def test_decomposition_envelope_overflow_stops_before_the_extraction(monkeypatch):
    # d^(3d/4) is finite at d = 181 and overflows a float from 182 on
    finite = decompose_arcs(SphereSpec(181, 4), np.zeros((1, 181)), (1,))
    assert finite.paper_bound == 181.0 ** 135.75 / 4.0**44.25

    def extraction(spec, xis):
        raise AssertionError("the coefficient extraction ran")

    monkeypatch.setattr(gauss_module, "sphere_multiplier_batch", extraction)
    for d in (182, 190):
        with pytest.raises(InfeasibleScale, match="envelope"):
            decompose_arcs(SphereSpec(d, 4), np.zeros((1, d)), (1,))


def test_major_arc_independent_reimplementation():
    # dual-path oracle: direct-sum Gauss factor and Bessel-form sphere symbol
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
            mu_hat = bessel_sphere_symbol(d, radius)
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


# The per-term route the package used before the Gauss sums were tabulated
# and the decomposition batched, kept as the oracle: one cmath loop per 1-d
# Gauss sum, one Python call per fraction, frequency and cutoff.


def oracle_gauss_sum_1d(p: int, q: int, x: int) -> complex:
    total = 0.0 + 0.0j
    tau = 2.0 * math.pi / q
    for n in range(1, q + 1):
        total += cmath.exp(1j * tau * ((n * n * p + x * n) % q))
    return total / q


def oracle_gauss_sum(p: int, q: int, x) -> complex:
    out = 1.0 + 0.0j
    for xj in np.asarray(x, dtype=object).ravel():
        out *= oracle_gauss_sum_1d(p, q, int(xj))
    return out


def oracle_smooth_step(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b)


def oracle_cutoff(cut, x) -> float:
    out = 1.0
    for xj in np.asarray(x, dtype=float).ravel():
        out *= oracle_smooth_step((cut.support - abs(float(xj))) / (cut.support - cut.plateau))
        if out == 0.0:
            break
    return out


def oracle_radial_sigma_hat(d: int, radius: float) -> float:
    return surface_measure(d) * eval_continuous_sphere_symbol(d, radius)


def oracle_major_arc_term(spec, frac, xi) -> complex:
    count = representation_count(spec)
    xi = np.asarray(xi, dtype=float)
    d, lam = spec.d, spec.lam
    nearest = nearest_lattice(frac.q * xi)
    offset = nearest / frac.q - xi
    prefactor = float(lam) ** (d / 2.0 - 1.0) / (2.0 * count)
    phase = cmath.exp(-2j * math.pi * ((lam * frac.p) % frac.q) / frac.q)
    return (
        prefactor
        * phase
        * oracle_gauss_sum(frac.p, frac.q, nearest)
        * oracle_radial_sigma_hat(d, spec.radius * float(np.linalg.norm(offset)))
    )


def oracle_arc_fractions(n: int, keep=lambda f: f.p >= 1):
    return sorted((f for f in farey_set(n) if keep(f)), key=lambda f: (f.q, f.p))


def oracle_minor_term(spec, n: int, xi, fractions) -> complex:
    count = representation_count(spec)
    xi = np.asarray(xi, dtype=float)
    d, lam = spec.d, spec.lam
    prefactor = float(lam) ** (d / 2.0 - 1.0) / (2.0 * count)
    total = 0.0 + 0.0j
    for frac in fractions:
        if frac.q < n:
            continue
        scaled = frac.q * xi
        x_vec = nearest_lattice(scaled)
        window = oracle_cutoff(THETA_CUTOFF, scaled - x_vec)
        if window == 0.0:
            continue
        offset = x_vec / frac.q - xi
        phase = cmath.exp(-2j * math.pi * ((lam * frac.p) % frac.q) / frac.q)
        total += (
            phase
            * oracle_gauss_sum(frac.p, frac.q, x_vec)
            * window
            * oracle_radial_sigma_hat(d, spec.radius * float(np.linalg.norm(offset)))
        )
    return prefactor * total


def oracle_decomposition(spec, n: int, xi, fractions) -> tuple[complex, complex, complex]:
    """(major, minor, error) at one cutoff and frequency, one term at a time."""
    m_val = sphere_multiplier_batch(spec, xi)[0]
    major = 0.0 + 0.0j
    for frac in fractions:
        if frac.q < n:
            major += oracle_major_arc_term(spec, frac, xi)
    minor = oracle_minor_term(spec, n, xi, fractions)
    return major, minor, m_val - major - minor


ORACLE_CASES = [(2, 4), (3, 9), (5, 64), (8, 144)]


def oracle_gap(d: int, lam: int, fractions=None) -> float:
    """Largest |batched - oracle| over major, minor and error, every n, xi = 0 and 3 draws.

    The pointwise decomposition_error is held to the same oracle.
    """
    spec = SphereSpec(d, lam)
    big_n = math.isqrt(lam)
    fractions = oracle_arc_fractions(big_n) if fractions is None else fractions
    rng = np.random.Generator(np.random.Philox(1000 * d + lam))
    xis = np.zeros((4, d))
    xis[1:] = rng.random((3, d)) - 0.5
    cutoffs = range(1, big_n + 2)
    arcs = decompose_arcs(spec, xis, cutoffs)
    gap = 0.0
    for k, n in enumerate(cutoffs):
        for i, xi in enumerate(xis):
            expected = oracle_decomposition(spec, n, xi, fractions)
            rep = decomposition_error(spec, n, xi)
            for got in (
                (arcs.major[k, i], arcs.minor[k, i], arcs.error[k, i]),
                (rep.major_sum, rep.minor_term, rep.total_error),
            ):
                gap = max(gap, *(abs(g - e) for g, e in zip(got, expected)))
    return gap


@pytest.mark.parametrize("d,lam", ORACLE_CASES)
def test_batched_decomposition_matches_per_term_oracle(d, lam):
    assert oracle_gap(d, lam) <= 1e-12


def test_oracle_catches_a_perturbed_gauss_table(monkeypatch):
    clean = gauss_module._gauss_tables

    def perturbed(ps, q):
        tables = clean(ps, q)
        return tables + 1e-9 if q == 1 else tables

    monkeypatch.setattr(gauss_module, "_gauss_tables", perturbed)
    assert oracle_gap(5, 64) > 1e-12


def test_oracle_catches_the_integer_arc_counted_twice(monkeypatch):
    clean = gauss_module._farey_sorted
    monkeypatch.setattr(gauss_module, "_farey_sorted", lambda n: (FareyFraction(0, 1),) + clean(n))
    assert oracle_gap(5, 64) > 1e-12
    # and the oracle itself tells the two conventions apart
    doubled = oracle_arc_fractions(8, keep=lambda f: True)
    monkeypatch.undo()
    assert oracle_gap(5, 64, doubled) > 1e-12


def reduced_residues(q: int) -> list[int]:
    return [p for p in range(q) if math.gcd(p, q) == 1]


def test_gauss_tables_match_direct_sum():
    for q in range(1, 13):
        ps = reduced_residues(q)
        tables = gauss_module._gauss_tables(ps, q)
        assert tables.shape == (len(ps), q)
        for p, table in zip(ps, tables):
            for x in range(q):
                assert abs(table[x] - direct_gauss_sum(p, q, [x])) <= 1e-13
                assert gauss_sum(p + 2 * q, q, [x - 3 * q]) == table[x]


def test_gauss_tables_match_cmath_loop_to_qmax_48():
    worst = 0.0
    for q in range(1, 49):
        ps = reduced_residues(q)
        for p, table in zip(ps, gauss_module._gauss_tables(ps, q)):
            worst = max(worst, max(abs(table[x] - oracle_gauss_sum_1d(p, q, x)) for x in range(q)))
    assert worst <= 1e-14


def one_gauss_table(p: int, q: int) -> np.ndarray:
    """Oracle: the table of one fraction by its own 1-d inverse DFT."""
    n = np.arange(q, dtype=np.int64)
    return np.fft.ifft(np.exp((2j * math.pi / q) * ((n * n * p) % q)))


def test_gauss_tables_equal_one_inverse_dft_per_fraction():
    # one batched inverse DFT per denominator gives each row's bits exactly
    for q in range(1, 49):
        ps = reduced_residues(q)
        tables = gauss_module._gauss_tables(ps, q)
        for p, table in zip(ps, tables):
            assert np.array_equal(table, one_gauss_table(p, q)), (p, q)


def test_gauss_identity_rows_equal_the_per_fraction_loop():
    # the rows reduce each batched table as the one-table loop reduced its own
    for d in (1, 3, 8):
        expected = []
        for q in range(1, 31):
            for p in reduced_residues(q) if q > 1 else [0]:
                mags = np.abs(one_gauss_table(p, q))
                sum_sq_1d, sup_1d = float(np.sum(mags * mags)), float(mags.max())
                bound_excess = max(0.0, sup_1d**d - (2.0 / q) ** (d / 2.0))
                expected.append((q, p, d, abs(sum_sq_1d**d - 1.0), bound_excess))
        rows = verify_gauss_identities(30, d).rows
        assert rows == tuple(expected)
        assert all(type(v) is float for row in rows for v in row[3:])
