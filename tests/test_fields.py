import math

import numpy as np
import pytest

from sphlab import (
    DomainError,
    DyadicRange,
    EmptySphere,
    SphereSpec,
    THETA_CUTOFF,
    TorusField,
    continuous_sphere_symbol_batch,
    dyadic_maximal,
    eval_semigroup_symbol,
    spherical_average,
)
from sphlab.fields import _scale_symbols, _Scratch, _sphere_points, _sphere_symbol
from test_symbols import direct_sphere_multiplier
from transference import (
    apply_multiplier,
    dft,
    discrete_laplacian,
    idft,
    inverse_kernel,
    periodized_multiplier_apply,
    sampled_kernel_apply,
    sign_flip_modulation,
)


def random_scalar(d, L, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return TorusField.scalar(rng.standard_normal((L,) * d) + 1j * rng.standard_normal((L,) * d))


def random_real_scalar(d, L, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return TorusField.scalar(rng.standard_normal((L,) * d))


def random_hermitian_field(d, L, n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal((L,) * d + (n, n)) + 1j * rng.standard_normal((L,) * d + (n, n))
    return TorusField.matrix(d, (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2)


def roll_spherical_average(f: TorusField, spec: SphereSpec) -> TorusField:
    """Spatial oracle: the mean of f(x - y) over the sphere, one periodic shift per point."""
    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    points = _sphere_points(spec)
    axes = tuple(range(f.d))
    acc = np.zeros_like(f.values)
    for y in points:
        acc += np.roll(f.values, shift=y, axis=axes)
    return TorusField(f.d, acc / len(points))


def test_dft_delta_and_constant():
    delta = np.zeros((8, 8), dtype=complex)
    delta[0, 0] = 1.0
    hat = dft(TorusField.scalar(delta))
    assert np.allclose(hat.values, 1.0)
    const = TorusField.scalar(np.ones((8, 8), dtype=complex))
    hat = dft(const)
    assert hat.values[0, 0] == pytest.approx(64.0)
    assert np.abs(hat.values).sum() == pytest.approx(64.0)


def test_dft_round_trip_and_parseval():
    f = random_scalar(3, 8, 101)
    back = idft(dft(f))
    assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
    hat = dft(f)
    lhs = np.sum(np.abs(f.values) ** 2)
    rhs = np.sum(np.abs(hat.values) ** 2) / 8**3
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_matrix_plancherel():
    f = random_hermitian_field(2, 6, 2, 103)
    hat = dft(f)
    lhs = np.sum(np.abs(f.values) ** 2)
    rhs = np.sum(np.abs(hat.values) ** 2) / 6**2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_spherical_average_basics():
    const = TorusField.scalar(np.full((8, 8), 2.5 + 0j))
    out = spherical_average(const, SphereSpec(2, 1))
    assert np.allclose(out.values, 2.5)
    f = random_scalar(2, 8, 105)
    same = roll_spherical_average(f, SphereSpec(2, 0))
    assert np.array_equal(same.values, f.values)
    real = TorusField.scalar(np.asarray(np.random.Generator(np.random.Philox(1)).standard_normal((8, 8)), dtype=complex))
    avg = spherical_average(real, SphereSpec(2, 1))
    assert avg.values.real.min() >= real.values.real.min() - 1e-12
    assert avg.values.real.max() <= real.values.real.max() + 1e-12


def test_spherical_average_translation_commutes():
    f = random_scalar(2, 8, 107)
    spec = SphereSpec(2, 2)
    shifted = TorusField.scalar(np.roll(f.values, (3, 5), axis=(0, 1)))
    shifted_then_avg = roll_spherical_average(shifted, spec)
    avg_then_shifted = np.roll(roll_spherical_average(f, spec).values, (3, 5), axis=(0, 1))
    assert np.array_equal(shifted_then_avg.values, avg_then_shifted)
    spectral = np.roll(spherical_average(f, spec).values, (3, 5), axis=(0, 1))
    assert np.abs(spectral - avg_then_shifted).max() <= 1e-12
    assert np.abs(spherical_average(shifted, spec).values - avg_then_shifted).max() <= 1e-12


# the odd sides 9 and 5 need the explicit output shape in the inverse real DFT
@pytest.mark.parametrize("d,side", [(1, 40), (2, 12), (2, 9), (3, 8), (4, 6), (5, 5)])
def test_spherical_average_matches_roll_oracle(d, side):
    scalar = random_scalar(d, side, 150 + d)
    real = random_real_scalar(d, side, 170 + d)
    matrix = random_hermitian_field(d, side, 2, 160 + d)
    assert real.values.dtype == np.float64
    fields = [scalar, real, matrix]
    if (d, side) in ((2, 9), (5, 5)):
        # strided views, whose float64 views end in (2,) and (n, n, 2) axes: the
        # in-place FFT passes must not assume a contiguous layout
        wide = random_scalar(d, 2 * side, 180 + d).values
        complex_view = TorusField.scalar(wide[(slice(None, side),) * (d - 1) + (slice(None, None, 2),)])
        # a principal 3 x 3 block of a 4 x 4 Hermitian field is Hermitian
        block = random_hermitian_field(d, side, 4, 190 + d).values[..., 1:, 1:]
        matrix_view = TorusField.matrix(d, block)
        assert not complex_view.values.flags.c_contiguous
        assert not matrix_view.values.flags.c_contiguous
        fields += [complex_view, matrix_view]
    for lam in (0, 1, 2, 4, 16):
        spec = SphereSpec(d, lam)
        if d == 1 and lam == 2:
            with pytest.raises(EmptySphere):
                spherical_average(scalar, spec)
            continue
        for f in fields:
            oracle = roll_spherical_average(f, spec)
            avg = spherical_average(f, spec)
            assert avg.values.dtype == f.values.dtype
            assert avg.values.shape == f.values.shape
            assert np.abs(avg.values - oracle.values).max() <= 1e-12


def test_spherical_average_keeps_aliased_points():
    # on Z_4^2 the points (2, 0) and (-2, 0) land on one site, as do (0, 2) and (0, -2)
    f = random_scalar(2, 4, 171)
    spec = SphereSpec(2, 4)
    expected = (
        2 * np.roll(f.values, (2, 0), axis=(0, 1)) + 2 * np.roll(f.values, (0, 2), axis=(0, 1))
    ) / 4
    oracle = roll_spherical_average(f, spec)
    assert np.abs(oracle.values - expected).max() <= 1e-15
    assert np.abs(spherical_average(f, spec).values - expected).max() <= 1e-12


def test_spherical_average_dimension_mismatch():
    f = random_scalar(2, 8, 173)
    with pytest.raises(DomainError):
        spherical_average(f, SphereSpec(3, 1))


def test_spherical_average_matches_multiplier():
    f = random_scalar(3, 16, 109)
    for lam in (1, 2, 4):
        spec = SphereSpec(3, lam)
        spatial = spherical_average(f, spec)
        fourier = apply_multiplier(f, lambda xis: direct_sphere_multiplier(spec, xis))
        assert np.abs(spatial.values - fourier.values).max() <= 1e-10


def test_apply_multiplier_identity_and_semigroup():
    f = random_scalar(2, 8, 111)
    same = apply_multiplier(f, lambda xis: np.ones(len(xis)))
    assert np.abs(same.values - f.values).max() <= 1e-12
    two_step = apply_multiplier(
        apply_multiplier(f, lambda xis: eval_semigroup_symbol(0.7, xis)),
        lambda xis: eval_semigroup_symbol(1.1, xis),
    )
    one_step = apply_multiplier(f, lambda xis: eval_semigroup_symbol(1.8, xis))
    assert np.abs(two_step.values - one_step.values).max() <= 1e-12


def test_symbol_sampled_once_on_the_frequency_grid():
    f = random_scalar(3, 6, 112)
    calls = []

    def symbol(xis):
        calls.append(xis.shape)
        assert np.all((xis >= -0.5) & (xis < 0.5))
        return np.exp(-np.sum(xis**2, axis=-1))

    apply_multiplier(f, symbol)
    inverse_kernel(3, 6, symbol)
    assert calls == [(216, 3), (216, 3)]


@pytest.mark.parametrize(
    "symbol",
    [lambda xis: 1.0, lambda xis: np.ones((len(xis), 1)), lambda xis: np.ones(len(xis) - 1)],
)
def test_wrong_shaped_symbol_raises(symbol):
    f = random_scalar(2, 4, 114)
    with pytest.raises(DomainError):
        apply_multiplier(f, symbol)
    with pytest.raises(DomainError):
        inverse_kernel(2, 4, symbol)
    with pytest.raises(DomainError):
        periodized_multiplier_apply(f, 2, symbol)


def test_semigroup_preserves_positivity():
    rng = np.random.Generator(np.random.Philox(113))
    f = TorusField.scalar(np.asarray(rng.random((8, 8)), dtype=complex))
    out = apply_multiplier(f, lambda xis: eval_semigroup_symbol(0.9, xis))
    assert out.values.real.min() >= -1e-12
    raw = rng.standard_normal((8, 8, 2, 2)) + 1j * rng.standard_normal((8, 8, 2, 2))
    herm = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2
    psd = np.einsum("...ab,...cb->...ac", herm, np.conj(herm))
    g = TorusField.matrix(2, psd)
    out = apply_multiplier(g, lambda xis: eval_semigroup_symbol(0.9, xis))
    eigs = np.linalg.eigvalsh(out.values)
    assert eigs.min() >= -1e-10


def test_discrete_laplacian():
    const = TorusField.scalar(np.full((8, 8), 3.0 + 0j))
    out = discrete_laplacian(const, 1)
    assert np.abs(out.values).max() <= 1e-15
    L = 16
    x = np.arange(L)
    wave = TorusField.scalar(np.exp(2j * np.pi * x / L)[:, None] * np.ones((L, L)))
    out = discrete_laplacian(wave, 1)
    assert np.abs(out.values - math.sin(math.pi / L) ** 2 * wave.values).max() <= 1e-14
    f = random_scalar(3, 16, 115)
    for k in (1, 2, 3):
        spatial = discrete_laplacian(f, k)
        fourier = apply_multiplier(f, lambda xis: np.sin(np.pi * xis[:, k - 1]) ** 2)
        assert np.abs(spatial.values - fourier.values).max() <= 1e-12
    with pytest.raises(DomainError):
        discrete_laplacian(f, 4)


def test_dyadic_maximal():
    f = random_scalar(2, 16, 117)
    single = dyadic_maximal(f, DyadicRange((0,)))
    avg = spherical_average(f, SphereSpec(2, 1))
    assert single.values.dtype == np.float64
    assert np.array_equal(single.values, np.abs(avg.values))
    multi = dyadic_maximal(f, DyadicRange((0, 1, 2)))
    for m in (0, 1, 2):
        lam = 4**m
        per_scale = np.abs(spherical_average(f, SphereSpec(2, lam)).values)
        assert np.all(multi.values.real >= per_scale - 1e-15)
    norm_in = math.sqrt(np.sum(np.abs(f.values) ** 2))
    norm_out = math.sqrt(np.sum(np.abs(multi.values) ** 2))
    assert norm_out <= 3 * norm_in + 1e-12
    # the pointwise max is order-independent
    permuted = dyadic_maximal(f, DyadicRange((2, 0, 1)))
    assert np.array_equal(multi.values, permuted.values)
    with pytest.raises(DomainError):
        dyadic_maximal(f, DyadicRange((0, 3)))  # 2*8 >= 16


@pytest.mark.parametrize("d,side", [(2, 16), (3, 9)])
def test_dyadic_maximal_real_field_matches_complex_storage(d, side):
    real = random_real_scalar(d, side, 180 + d)
    stored_complex = TorusField.scalar(real.values.astype(complex))
    assert stored_complex.values.dtype == np.complex128
    scales = DyadicRange((0, 1, 2))
    via_real = dyadic_maximal(real, scales)
    via_complex = dyadic_maximal(stored_complex, scales)
    assert via_real.values.dtype == via_complex.values.dtype == np.float64
    assert np.abs(via_real.values - via_complex.values).max() <= 1e-12


def per_scale_maximal(f, scales):
    """Oracle: max over t of |spherical_average(f, t^2)|, each scale built from scratch."""
    mags = [np.abs(spherical_average(f, SphereSpec(f.d, t * t)).values) for t in scales.scales()]
    return np.maximum.reduce(mags)


@pytest.mark.parametrize("complex_storage", [False, True])
@pytest.mark.parametrize("d,side", [(2, 16), (3, 9)])
def test_dyadic_maximal_matches_per_scale_averages(d, side, complex_storage):
    f = random_real_scalar(d, side, 200 + d) if not complex_storage else random_scalar(d, side, 200 + d)
    kept = f.values.copy()
    scales = DyadicRange((0, 1, 2))
    shared = dyadic_maximal(f, scales)
    assert shared.values.dtype == np.float64
    assert np.array_equal(shared.values, per_scale_maximal(f, scales))
    # the shared spectrum and the passed symbols are read, never written
    symbols = _scale_symbols(d, side, scales)
    for _ in range(2):
        assert np.array_equal(dyadic_maximal(f, scales, symbols=symbols).values, shared.values)
    assert np.array_equal(f.values, kept)
    # one scratch serves field after field, as in the ratio survey, and keeps no state
    other = TorusField.scalar(-2.0 * f.values[::-1])
    other_shared = dyadic_maximal(other, scales)
    scratch = _Scratch.of(f)
    for g, expected in ((f, shared), (other, other_shared), (f, shared)):
        assert np.array_equal(dyadic_maximal(g, scales, symbols=symbols, scratch=scratch).values, expected.values)
    assert np.array_equal(f.values, kept)


def test_public_calls_return_arrays_of_their_own():
    """Without a scratch, each call's result shares memory with nothing a later call writes."""
    scales = DyadicRange((0, 1, 2))
    for f, g in (
        (random_real_scalar(3, 9, 210), random_real_scalar(3, 9, 211)),
        (random_scalar(3, 9, 212), random_scalar(3, 9, 213)),
    ):
        first = dyadic_maximal(f, scales)
        kept = first.values.copy()
        second = dyadic_maximal(g, scales)
        assert not np.shares_memory(first.values, second.values)
        assert np.array_equal(first.values, kept) and not np.array_equal(second.values, kept)
        average = spherical_average(f, SphereSpec(3, 4))
        kept = average.values.copy()
        later = spherical_average(g, SphereSpec(3, 4))
        assert not np.shares_memory(average.values, later.values)
        assert np.array_equal(average.values, kept)


def test_sphere_symbol_owns_a_real_copy():
    symbol = _sphere_symbol(_sphere_points(SphereSpec(3, 4)), 3, 8)
    assert symbol.dtype == np.float64 and symbol.shape == (8, 8, 5)
    assert symbol.flags.c_contiguous and symbol.flags.owndata and not symbol.flags.writeable


def test_precomputed_symbol_and_spectrum_shapes_are_checked():
    f = random_real_scalar(2, 16, 190)
    scales = DyadicRange((0, 1))
    symbols = _scale_symbols(2, 16, scales)
    with pytest.raises(DomainError):
        dyadic_maximal(f, scales, symbols=symbols[:1])
    with pytest.raises(DomainError):
        dyadic_maximal(f, scales, symbols=symbols + symbols[:1])
    with pytest.raises(DomainError):
        spherical_average(f, SphereSpec(2, 1), symbol=np.zeros((16, 16)))
    with pytest.raises(DomainError):
        spherical_average(f, SphereSpec(2, 1), symbol=_scale_symbols(2, 8, scales)[0])
    # a scratch holds the spectrum: one for another side or for complex storage does not fit
    for scratch in (_Scratch((), 2, 8), _Scratch((2,), 2, 16)):
        with pytest.raises(DomainError):
            spherical_average(f, SphereSpec(2, 1), scratch=scratch)
        with pytest.raises(DomainError):
            dyadic_maximal(f, scales, scratch=scratch)


def test_sign_flip_modulation():
    f = random_scalar(2, 8, 119)
    flipped = sign_flip_modulation(f)
    assert np.array_equal(sign_flip_modulation(flipped).values, f.values)
    lhs = dft(flipped).values
    rhs = np.roll(dft(f).values, (4, 4), axis=(0, 1))
    assert np.array_equal(lhs, rhs)
    assert np.sum(np.abs(flipped.values) ** 2) == pytest.approx(
        np.sum(np.abs(f.values) ** 2), rel=1e-15
    )
    const = TorusField.scalar(np.ones((8, 8), dtype=complex))
    hat = dft(sign_flip_modulation(const)).values
    mask = np.zeros((8, 8), dtype=bool)
    mask[4, 4] = True
    assert np.all(np.abs(hat[~mask]) <= 1e-12)
    assert abs(hat[4, 4]) == pytest.approx(64.0)
    odd = TorusField.scalar(np.ones((7, 7), dtype=complex))
    with pytest.raises(DomainError):
        sign_flip_modulation(odd)


def folded_base_symbol(q, spec):
    """Cutoff times the continuous sphere symbol, supported in q^-1 Q."""

    def symbol(xis):
        window = THETA_CUTOFF.profile(q * xis).prod(axis=-1)
        radii = spec.radius * np.linalg.norm(xis, axis=-1)
        return window * continuous_sphere_symbol_batch(spec.d, radii)

    return symbol


def test_periodized_equals_sampled_kernel():
    spec = SphereSpec(2, 4)
    for q in (2, 3):
        f = random_scalar(2, 12, 121 + q)
        base = folded_base_symbol(q, spec)
        via_symbol = periodized_multiplier_apply(f, q, base)
        kernel = inverse_kernel(2, 12, base)
        via_kernel = sampled_kernel_apply(f, q, kernel)
        assert np.abs(via_symbol.values - via_kernel.values).max() <= 1e-10
    with pytest.raises(DomainError):
        periodized_multiplier_apply(f, 5, base)
    with pytest.raises(DomainError):
        sampled_kernel_apply(f, 5, kernel)


def test_periodized_q1_reduces_to_plain_multiplier():
    spec = SphereSpec(2, 1)
    f = random_scalar(2, 8, 127)
    base = folded_base_symbol(1, spec)
    period = periodized_multiplier_apply(f, 1, base)
    plain = apply_multiplier(f, base)
    assert np.abs(period.values - plain.values).max() <= 1e-12


def test_periodized_energy_bound():
    spec = SphereSpec(2, 4)
    f = random_scalar(2, 12, 131)
    out = periodized_multiplier_apply(f, 2, folded_base_symbol(2, spec))
    assert math.sqrt(np.sum(np.abs(out.values) ** 2)) <= math.sqrt(
        np.sum(np.abs(f.values) ** 2)
    ) * (1 + 1e-12)


def test_sampled_kernel_q1_is_convolution():
    f = random_scalar(2, 6, 133)
    table = {(0, 0): 0.5, (1, 0): 0.25, (0, 1): 0.25}

    def kernel(y):
        return table.get((int(y[0]) % 6, int(y[1]) % 6), 0.0)

    out = sampled_kernel_apply(f, 1, kernel)
    expected = (
        0.5 * f.values
        + 0.25 * np.roll(f.values, 1, axis=0)
        + 0.25 * np.roll(f.values, 1, axis=1)
    )
    assert np.abs(out.values - expected).max() <= 1e-14
