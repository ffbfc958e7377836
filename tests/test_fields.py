import math
import tracemalloc

import numpy as np
import pytest

from sphlab import (
    DomainError,
    DyadicRange,
    EmptySphere,
    InfeasibleScale,
    SphereSpec,
    THETA_CUTOFF,
    TorusField,
    continuous_sphere_symbol_batch,
    dyadic_maximal,
    enumerate_sphere,
    eval_semigroup_symbol,
    spherical_average,
)
from sphlab.fields import MAX_DENSE_WORK, MAX_SPHERE_POINTS, _forward, _Scratch, _real_basis
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


def roll_average(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The mean of values(x - y) over the points y, one periodic shift of the leading axes per point."""
    axes = tuple(range(points.shape[1]))
    acc = np.zeros_like(values)
    for y in points:
        acc += np.roll(values, shift=y, axis=axes)
    return acc / len(points)


def roll_spherical_average(f: TorusField, spec: SphereSpec) -> TorusField:
    """Spatial oracle: the mean of f(x - y) over the sphere, one periodic shift per point."""
    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    return TorusField(f.d, roll_average(f.values, enumerate_sphere(spec, MAX_SPHERE_POINTS)))


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


# the odd sides 9 and 5 need the explicit output shape in the inverse real DFT; at
# d = 6 the symbol's first three axes are compact, so its product runs in 8 blocks
@pytest.mark.parametrize("d,side", [(1, 40), (2, 12), (2, 9), (3, 8), (4, 6), (5, 5), (6, 4), (6, 5)])
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
    # one scratch serves field after field, as in the ratio survey, and keeps no state;
    # the shared spectrum and the scratch's symbols are read, never written
    other = TorusField.scalar(-2.0 * f.values[::-1])
    other_shared = dyadic_maximal(other, scales)
    scratch = _Scratch((2,) if complex_storage else (), d, side, (1, 4, 16))
    for g, expected in ((f, shared), (other, other_shared), (f, shared)):
        assert np.array_equal(dyadic_maximal(g, scales, scratch=scratch).values, expected.values)
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_symbol_owns_a_real_copy(d):
    """At d <= 3 every axis of a symbol is gathered by frequency into an array of its own."""
    scratch = _Scratch((), d, 8, (4,))
    symbol = scratch.symbols[4]
    assert symbol.dtype == np.float64 and symbol.shape == (8,) * d
    assert symbol.flags.owndata and not symbol.flags.writeable
    # the spectrum's layout: one value per basis vector, C order
    assert symbol.flags.c_contiguous
    buffers = (*scratch.work, scratch.spectrum, scratch.maximum)
    assert not any(np.shares_memory(symbol, buffer) for buffer in buffers)
    with pytest.raises(EmptySphere):
        _Scratch((), d, 8, (4, 7))


@pytest.mark.parametrize("side", [2, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_checkerboard_is_an_eigenvector_on_the_smallest_tori(d, side):
    """chi(x) = (-1)^(x_1 + ... + x_d) averages to (-1)^(t^2) chi over every sphere.

    chi(x - y) = chi(x) (-1)^(y_1 + ... + y_d), and y_1 + ... + y_d = |y|^2
    mod 2.  With 2t >= L, sphere points coincide mod L and keep their
    multiplicity; the roll oracle shifts once per point.
    """
    chi = TorusField.scalar(np.indices((side,) * d).sum(axis=0) % 2 * -2.0 + 1.0)
    for t in (1, 2, 3):
        spec = SphereSpec(d, t * t)
        average = spherical_average(chi, spec).values
        assert np.abs(average - (-1) ** (t * t) * chi.values).max() <= 1e-15
        assert np.abs(average - roll_spherical_average(chi, spec).values).max() <= 1e-15


def basis_frequencies(side):
    """The frequency of each basis row: cosines m = 0..side//2, then sines m = 1..(side-1)//2."""
    return np.r_[0 : side // 2 + 1, 1 : (side + 1) // 2]


def row_norms(side):
    """The squared norm of each basis row: L for m = 0 and m = L/2, L/2 otherwise."""
    return np.where(2 * basis_frequencies(side) % side == 0, side, side / 2.0)


def norm_grid(d, side):
    """The squared norm of each tensor basis vector, the product of its rows' norms, (L,)*d.

    The grid is symmetric under permuting the axes, so it reads the same in
    the spectrum's rotated layout.
    """
    grid = np.ones(())
    for _ in range(d):
        grid = np.multiply.outer(grid, row_norms(side))
    return grid


def expand(symbol, d, side):
    """A symbol in the full layout, (L,)*d: its first max(d - 3, 0) axes read at each basis row's frequency."""
    return symbol[np.ix_(*(basis_frequencies(side),) * max(d - 3, 0))]


def full_gather_symbol(scratch, points):
    """Oracle: the multiplier of the mean over ``points`` gathered on every axis, (L,)*d.

    The symbol's earlier two-route build: the weights grid through the
    package's ``_forward``, at d <= 2 with the cosine rows on every axis,
    at d >= 3 with each basis row's own cosine row on axis 0, which writes
    m_0 in basis order; each axis divided by its rows' squared norms, then
    ``grid[np.ix_(*(freq,) * gathered)]`` on the axes still by frequency:
    the symbol as it was held before its leading axes were kept by
    frequency and before every axis took the cosine rows.
    """
    d, side = scratch.d, scratch.side
    weights = np.zeros((side,) * d)
    np.add.at(weights, tuple(np.mod(points, side).T), 1.0 / len(points))
    half = side // 2 + 1
    rows, gathered = [scratch.basis[:half]] * d, d
    if d > 2:
        rows[0], gathered = scratch.basis[scratch.freq], d - 1
    grid = _forward(weights, rows, [np.empty(side**d) for _ in range(d)])
    grid = grid.reshape((half,) * gathered + (side,) * (d - gathered))
    norms = row_norms(side)
    for axis, n in enumerate(grid.shape):
        grid = grid / norms[:n].reshape((n,) + (1,) * (d - 1 - axis))
    return grid[np.ix_(*(scratch.freq,) * gathered)]


def eigenvalues(scratch, lam):
    """The sphere's eigenvalue on each basis vector, without the norms: the unfolded symbol.

    The weights grid through the package's ``_forward`` with the cosine
    rows on every axis, gathered at the basis rows' frequencies, laid out
    as the spectrum is.
    """
    d, side = scratch.d, scratch.side
    points = enumerate_sphere(SphereSpec(d, lam), MAX_SPHERE_POINTS)
    weights = np.zeros((side,) * d)
    np.add.at(weights, tuple(np.mod(points, side).T), 1.0 / len(points))
    half = side // 2 + 1
    cosines = _forward(weights, [scratch.basis[:half]] * d, [np.empty(side**d) for _ in range(d)])
    return cosines.reshape((half,) * d)[np.ix_(*(scratch.freq,) * d)]


@pytest.mark.parametrize("lead", [(2,), (2, 2, 2)], ids=["complex", "matrix"])
@pytest.mark.parametrize("d,side", [(1, 12), (2, 16), (3, 9), (2, 11)])
def test_scratch_builds_one_symbol_for_every_lead(d, side, lead):
    """A scratch with trailing axes builds each symbol from the weights grid alone.

    Its symbols equal a real field's scratch's bit for bit, in the same
    strides.  Each symbol times the norm grid matches ``numpy.fft.fftn`` of
    the normalized indicator gathered at the basis rows' frequencies; at a
    power-of-two side every norm is a power of two, so that product is the
    unfolded eigenvalue bit for bit.
    """
    lams = (1, 4, 16)
    real = _Scratch((), d, side, lams)
    other = _Scratch(lead, d, side, lams)
    freq = basis_frequencies(side)
    norms = norm_grid(d, side)
    for lam in lams:
        symbol, own = real.symbols[lam], other.symbols[lam]
        assert own.strides == symbol.strides
        assert np.array_equal(own.view(np.uint64), symbol.view(np.uint64))
        points = enumerate_sphere(SphereSpec(d, lam), MAX_SPHERE_POINTS)
        weights = np.zeros((side,) * d)
        np.add.at(weights, tuple(np.mod(points, side).T), 1.0 / len(points))
        oracle = np.fft.fftn(weights).real[np.ix_(*(freq,) * d)]
        # in the spectrum's layout, (m_1, ..., m_{d-1}, m_0)
        assert np.abs(symbol * norms - np.moveaxis(oracle, 0, -1)).max() <= 1e-15
        if side & (side - 1) == 0:
            assert np.array_equal(symbol * norms, eigenvalues(real, lam))


@pytest.mark.parametrize("lead", [(), (2,), (2, 2, 2)], ids=["real", "complex", "matrix"])
@pytest.mark.parametrize(
    "d,side",
    [(1, 12), (1, 4096), (2, 9), (2, 406), (3, 8), (3, 9), (3, 32)]
    + [(4, 6), (5, 5), (5, 12), (6, 4), (6, 5), (6, 11)],
)
def test_compact_symbol_expands_to_the_full_gather(d, side, lead):
    """A symbol holds its first k = max(d - 3, 0) torus axes by frequency and the last min(d, 3) by basis row.

    Every axis goes through the cosine rows, by one route at every d.
    Read at each basis row's frequency on those k axes, it equals the
    symbol of the earlier two-route build (``full_gather_symbol``) bit
    for bit: for spheres, and for the mean over +-j e_j, j = 1..d, which
    tells every axis apart, so the compact axes must be the leading ones
    of the spectrum's layout.
    """
    lams = (1, 4)
    scratch = _Scratch(lead, d, side, lams)
    anisotropic = np.concatenate([np.diag(np.arange(1, d + 1)), -np.diag(np.arange(1, d + 1))])
    symbols = [(scratch.symbols[lam], enumerate_sphere(SphereSpec(d, lam), MAX_SPHERE_POINTS)) for lam in lams]
    symbols.append((scratch._symbol(anisotropic), anisotropic))
    buffers = (*scratch.work, scratch.spectrum, scratch.maximum)
    for symbol, points in symbols:
        assert symbol.shape == (side // 2 + 1,) * max(d - 3, 0) + (side,) * min(d, 3)
        assert symbol.flags.c_contiguous and symbol.flags.owndata and not symbol.flags.writeable
        assert not any(np.shares_memory(symbol, buffer) for buffer in buffers)
        full = expand(symbol, d, side)
        assert np.array_equal(full.view(np.uint64), full_gather_symbol(scratch, points).view(np.uint64))


def basis_rows(side):
    """The real Fourier basis of Z_side as rows, from the cosine and sine formulas."""
    freq, x = basis_frequencies(side), np.arange(side)
    angles = 2 * np.pi * np.outer(freq, x) / side
    return np.where((np.arange(side) <= side // 2)[:, np.newaxis], np.cos(angles), np.sin(angles))


def basis_residuals(d, side, apply):
    """For every tensor basis vector v: the largest entry of apply(v) - c v, c the best multiple."""
    rows = basis_rows(side)
    residuals = np.empty((side,) * d)
    multiples = np.empty((side,) * d)
    for index in np.ndindex(*(side,) * d):
        v = rows[index[0]]
        for k in index[1:]:
            v = np.multiply.outer(v, rows[k])
        image = apply(v)
        multiples[index] = np.vdot(v, image) / np.vdot(v, v)
        residuals[index] = np.abs(image - multiples[index] * v).max()
    return residuals, multiples


# (8, 16), (9, 25) and (5, 9) hold aliased points: 2t >= L
@pytest.mark.parametrize("d,side,lams", [(1, 8, (1, 16)), (2, 9, (2, 25)), (3, 5, (1, 9))])
def test_sphere_average_is_diagonal_in_the_real_basis(d, side, lams):
    """Every basis vector goes through the roll oracle to its eigenvalue times itself.

    The symbol holds that eigenvalue over the vector's squared norm, the
    inverse transform's scaling: B^T over the squared row norms inverts B.
    """
    scratch = _Scratch((), d, side, lams)
    rows = basis_rows(side)
    # the formula's angles round 2 pi m x / L, the package's only 2 pi r / L with r = m x mod L
    assert np.abs(scratch.basis - rows).max() <= 1e-14
    norms = row_norms(side)
    assert np.abs((rows * rows).sum(axis=1) - norms).max() <= 1e-13
    assert np.abs((scratch.basis.T / norms) @ scratch.basis - np.eye(side)).max() <= 1e-15
    for lam in lams:
        spec = SphereSpec(d, lam)
        residuals, multiples = basis_residuals(
            d, side, lambda v: roll_spherical_average(TorusField.scalar(v), spec).values
        )
        assert residuals.max() <= 1e-13
        # the symbol's torus axes are rotated by one: (m_1, ..., m_{d-1}, m_0)
        symbol = scratch.symbols[lam] * norm_grid(d, side)
        assert np.abs(multiples - np.moveaxis(symbol, -1, 0)).max() <= 1e-13
        if side & (side - 1) == 0:
            assert np.array_equal(symbol, eigenvalues(scratch, lam))


def test_half_sphere_average_is_not_diagonal_in_the_real_basis():
    """Negative control: the points of the sphere with y_1 >= 0 are not even in y_1."""
    d, side, lam = 2, 9, 25
    points = enumerate_sphere(SphereSpec(d, lam), MAX_SPHERE_POINTS)
    half = points[points[:, 0] >= 0]
    residuals, _ = basis_residuals(d, side, lambda v: roll_average(v, half))
    assert residuals.max() >= 0.1


def random_field(d, side, lead, seed):
    """A random field whose float64 view has trailing axes ``lead``: (), (2,) or (n, n, 2).

    Nothing about it is symmetric, under reflections or under permuting the axes.
    """
    if lead == ():
        return random_real_scalar(d, side, seed)
    if lead == (2,):
        return random_scalar(d, side, seed)
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (side,) * d + lead[:-1]
    return TorusField.matrix(d, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def float_values(f):
    """f's values as float64, complex entries gaining an (Re, Im) axis last."""
    return f.values[..., np.newaxis].view(np.float64) if np.iscomplexobj(f.values) else f.values


def einsum_spectrum(f, rotated=True):
    """Oracle: f's coefficients by one explicit contraction with ``basis_rows``.

    Laid out as lead + (m_1, ..., m_{d-1}, m_0), the torus axes rotated by
    one, or as lead + (m_0, ..., m_{d-1}) with ``rotated=False``.
    """
    x = float_values(f)
    torus, lead = "abcdef"[: f.d], "uvwxyz"[: x.ndim - f.d]
    freq = torus.upper()
    out = freq[1:] + freq[:1] if rotated else freq
    rows = [basis_rows(f.side)] * f.d
    spec = ",".join([torus + lead] + [m + i for m, i in zip(freq, torus)]) + "->" + lead + out
    return np.einsum(spec, x, *rows)


def slabs_are_thin(d, side, lead):
    """Whether the slabs x[i] hold L^(d-1) prod(lead) < L^2 values, r < L columns each."""
    return side ** (d - 1) * math.prod(lead) < side * side


LEADS = [(), (2,), (2, 2, 2)]
LEAD_IDS = ["real", "complex", "matrix"]


@pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
@pytest.mark.parametrize("d,side", [(1, 7), (2, 6), (3, 5), (4, 4)])
def test_forward_matches_the_einsum_oracle_in_the_rotated_layout(d, side, lead):
    """``spectrum`` holds the coefficient of row m_i on torus axis i at (..., m_1, ..., m_{d-1}, m_0)."""
    f = random_field(d, side, lead, 240 + d)
    scratch = _Scratch(lead, d, side, ())
    scratch.forward(f)
    oracle = einsum_spectrum(f)
    assert scratch.spectrum.shape == oracle.shape == lead + (side,) * d
    assert np.abs(scratch.spectrum - oracle).max() <= 1e-12 * np.abs(oracle).max()
    if d > 1:
        # the layout is read: the unrotated order is another array
        assert np.abs(scratch.spectrum - einsum_spectrum(f, rotated=False)).max() >= 0.1


@pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_anisotropic_multiplier_goes_through_the_same_routine(d, lead):
    """The mean over +-e_1 alone, not symmetric under permuting the axes, matches the roll oracle.

    Its symbol comes out of the routine that builds the sphere symbols, so
    it is laid out as the spectrum is, (m_1, ..., m_{d-1}, m_0).  Negative
    control: the same values with the last two torus axes swapped, a
    symbol of the same shape that reads m_{d-1} where m_0 belongs, average
    over +-e_d instead and miss the oracle.
    """
    side = 7
    points = np.zeros((2, d), dtype=np.int64)
    points[:, 0] = (1, -1)
    f = random_field(d, side, lead, 250 + d)
    scratch = _Scratch(lead, d, side, ())
    symbol = scratch._symbol(points)
    scratch.symbols["e1"] = symbol
    scratch.symbols["e1 swapped"] = np.swapaxes(symbol, -1, -2)
    scratch.forward(f)
    oracle = float_values(TorusField(d, roll_average(f.values, points)))
    assert np.abs(scratch.average("e1") - oracle).max() <= 1e-12
    assert np.abs(scratch.average("e1 swapped") - oracle).max() >= 0.1


@pytest.mark.parametrize(
    "d,side,lead,thin",
    [
        (2, 12, (), True),
        (2, 12, (2,), True),
        (2, 12, (2, 2, 2), True),
        (2, 1, (), False),
        (2, 2, (2,), False),
        (2, 6, (2, 2, 2), False),
        (3, 5, (), False),
        (3, 5, (2,), False),
        (3, 5, (2, 2, 2), False),
        (3, 2, (), False),
    ],
)
def test_both_pass_shapes_match_their_oracles(d, side, lead, thin):
    """Thin slabs (r < L columns) and wide ones go through the one slab-batched route.

    d = 2 gives either width with each lead; at d = 3 every slab holds at
    least L columns.  A thin slab's items are a few columns wide, one at
    r = 1.  Each shape's spectrum matches the einsum oracle and its
    averages the roll oracle.
    """
    assert slabs_are_thin(d, side, lead) == thin
    f = random_field(d, side, lead, 260 + d + side)
    scratch = _Scratch(lead, d, side, ())
    scratch.forward(f)
    oracle = einsum_spectrum(f)
    assert np.abs(scratch.spectrum - oracle).max() <= 1e-12 * np.abs(oracle).max()
    for lam in (1, 2, 4):
        spec = SphereSpec(d, lam)
        assert np.abs(spherical_average(f, spec).values - roll_spherical_average(f, spec).values).max() <= 1e-12


def test_dense_work_budget_admits_its_largest_side():
    """(4, 32) is the largest 4-d torus within the budget; side 33 raises before it allocates."""
    assert 4 * 32**5 <= MAX_DENSE_WORK < 4 * 33**5
    const = TorusField.scalar(np.full((32,) * 4, 2.5))
    assert np.abs(dyadic_maximal(const, DyadicRange((0, 1))).values - 2.5).max() <= 1e-12
    over = TorusField.scalar(np.full((33,) * 4, 2.5))
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleScale, match="multiply-adds per transform"):
            dyadic_maximal(over, DyadicRange((0,)))
        with pytest.raises(InfeasibleScale):
            spherical_average(over, SphereSpec(4, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * 33**4 * 8


def outer_product_basis(side: int) -> np.ndarray:
    """Oracle: the basis read at an L x L int64 table of residues (m x) mod L, one row per basis row."""
    half = side // 2 + 1
    freq = np.r_[0:half, 1 : (side + 1) // 2]
    residues = np.outer(freq, np.arange(side))
    residues %= side
    angles = (2.0 * math.pi / side) * np.arange(side)
    basis = np.empty((side, side))
    np.take(np.cos(angles), residues[:half], out=basis[:half], mode="clip")
    np.take(np.sin(angles), residues[half:], out=basis[half:], mode="clip")
    return basis


@pytest.mark.parametrize("d, side", [(1, 2048), (2, 406), (5, 12), (1, 7)])
def test_basis_reads_the_residues_of_its_distinct_rows(d, side):
    """The basis's bits, and the squared row norms that make B^T its inverse.

    The symbols carry those norms: the identity's, lam = 0, is 1 over the
    norm grid, exactly at a power-of-two side; at d = 5 it is read in the
    full layout (``expand``).
    """
    scratch = _Scratch((), d, side, (0,))
    basis = outer_product_basis(side)
    assert np.array_equal(scratch.basis.view(np.uint64), basis.view(np.uint64))
    product = expand(scratch.symbols[0], d, side) * norm_grid(d, side)
    assert np.abs(product - 1.0).max() <= 1e-15
    if side & (side - 1) == 0:
        assert np.all(product == 1.0)


def test_scratch_keeps_one_basis_matrix():
    """At side 2048 a scratch retains its one L x L basis, 32 MiB.

    Its build peaks at that basis plus one block of residues, about
    1 MiB, not the 16 MiB of the residues of rows 0..L//2 at once
    (``test_basis_builds_only_the_distinct_rows_of_residues``); the
    symbols carry the row norms, so no second L x L matrix is kept.
    """
    mib = 2**20
    tracemalloc.start()
    try:
        scratch = _Scratch((), 1, 2048, (1, 4))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(scratch, "inverse")
    assert retained <= 32.2 * mib and peak <= 33.5 * mib


def test_symbol_gather_offsets_take_no_array_of_their_own():
    """A real (2, 406) scratch with three symbols peaks at 10.20 MiB, near what it retains.

    It retains 8 L^2 doubles, 10.06 MiB: the basis, two work buffers, the
    spectrum, the running maximum and three symbols.  Each symbol's gather
    reads one flat offset per entry, L^2 of them at d = 2, built in the
    running maximum; an (L, L) intp array of its own would add 1.26 MiB.
    """
    side, mib = 406, 2**20
    tracemalloc.start()
    try:
        scratch = _Scratch((), 2, side, (1, 4, 16))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scratch.symbols) == 3
    assert retained >= 8 * side**2 * 8 and peak <= 10.20 * mib


def test_basis_builds_only_the_distinct_rows_of_residues():
    """At side 2048 the residues of rows 0..L//2 take at most 16 MiB where the L x L table took 32 MiB.

    They are built a block of about 1 MiB at a time, so the basis build,
    and the whole scratch build (``test_scratch_keeps_one_basis_matrix``),
    peak near the basis alone; the saving against the L x L table shows
    in the basis build's own peak, at least the L - L//2 - 1 rows of int64
    residues it never builds.
    """
    side = 2048
    peaks = []
    for build in (_real_basis, outer_product_basis):
        tracemalloc.start()
        try:
            build(side)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    basis_bytes, half_table = side * side * 8, (side // 2 + 1) * side * 8
    assert peaks[0] <= basis_bytes + half_table + 2**20
    assert peaks[1] - peaks[0] >= 0.99 * (side - side // 2 - 1) * side * 8


def test_scratch_shape_and_spheres_are_checked():
    f = random_real_scalar(2, 16, 190)
    scales = DyadicRange((0, 1))
    # a scratch holds the spectrum: one for another side or for complex storage does not fit
    for scratch in (_Scratch((), 2, 8, (1, 4)), _Scratch((2,), 2, 16, (1, 4))):
        with pytest.raises(DomainError):
            spherical_average(f, SphereSpec(2, 1), scratch=scratch)
        with pytest.raises(DomainError):
            dyadic_maximal(f, scales, scratch=scratch)
    # a scratch without a requested sphere raises DomainError, not KeyError
    scratch = _Scratch((), 2, 16, (1,))
    with pytest.raises(DomainError, match="no sphere symbol"):
        spherical_average(f, SphereSpec(2, 4), scratch=scratch)
    with pytest.raises(DomainError, match="no sphere symbol"):
        dyadic_maximal(f, scales, scratch=scratch)


def test_public_spherical_average_peak_memory():
    """A public average builds its symbol in its own scratch: the traced peak stays within 4.5 torus arrays.

    At (5, 12) that is the scratch (two work buffers, the spectrum and
    the maximum, one torus array of float64 each) and the symbol, 7^2 12^3
    values held by frequency on its first two axes, 0.34 of one; the
    symbol in the full layout would add 0.66 more, and transforming it in
    buffers of its own at least one.
    """
    d, side = 5, 12
    f = random_real_scalar(d, side, 230)
    tracemalloc.start()
    try:
        spherical_average(f, SphereSpec(d, 16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * side**d * 8


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
