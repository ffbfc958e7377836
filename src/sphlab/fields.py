"""Spatial-side operators on finite tori (Z_L)^d.

Fields carry real or complex scalars, or n x n complex matrices, per site.
Spherical averages are convolutions computed through the real DFT: the
sphere is symmetric, so the transform of its normalized indicator is real
and even, and it multiplies the half-spectrum of a real field, or of the
real and imaginary parts of a complex one.  The dyadic maximal function
transforms its field once and shares that half-spectrum across its scales,
so each scale costs one multiply and one inverse transform; a caller that
takes the maximum over many fields, such as the sampled ratio survey of
``ncmax``, builds each scale's symbol once and passes it down.  Nothing is
cached between calls.  Multipliers given as symbols act through the
complex DFT: a symbol maps an (N, d) array of reduced frequencies to N
values and is called once per grid.  The Laplacian and the sampled-kernel
convolution act by periodic shifts.  The tests keep the
one-shift-per-sphere-point average as the spatial oracle for the spectral
one.  The side L is chosen by callers
so that 2t < L for every sphere radius exercised, which makes the periodic
computation agree with the infinite lattice for compactly supported
inputs; for larger spheres points that coincide mod L keep their
multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    EmptySphere,
    IndivisibleSide,
    InfeasibleScale,
    NonHermitianInput,
    OddSide,
)
from .lattice import SphereSpec, enumerate_sphere, representation_count
from .symbols import reduce_to_torus

__all__ = [
    "MAX_SITES",
    "TorusField",
    "DyadicRange",
    "dft",
    "idft",
    "frequency_grid",
    "apply_multiplier",
    "spherical_average",
    "discrete_laplacian",
    "dyadic_maximal",
    "sign_flip_modulation",
    "periodized_multiplier_apply",
    "sampled_kernel_apply",
    "inverse_kernel",
]

MAX_SITES = 1 << 26
MAX_SPHERE_POINTS = 2_000_000  # enumeration cap of every sphere an average uses


def _check_sites(d: int, side: int) -> None:
    if side**d > MAX_SITES:
        raise InfeasibleScale(f"{side}^{d} sites exceeds the {MAX_SITES} budget")


@dataclass(frozen=True)
class TorusField:
    """A field on (Z_L)^d, scalar- or matrix-valued.

    values has shape (L,)*d for scalars and (L,)*d + (n, n) for matrices;
    the dimension d is stored explicitly to disambiguate the two layouts.
    """

    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim not in (self.d, self.d + 2):
            raise DomainError(f"array rank {v.ndim} does not fit d={self.d}")
        side = v.shape[0]
        if any(s != side for s in v.shape[: self.d]):
            raise DomainError("all torus axes must share the same side")
        if v.ndim == self.d + 2 and v.shape[-1] != v.shape[-2]:
            raise DomainError("matrix fibers must be square")
        _check_sites(self.d, side)

    @property
    def side(self) -> int:
        return self.values.shape[0]

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == self.d + 2

    @property
    def fiber(self) -> int:
        return self.values.shape[-1] if self.is_matrix else 1

    @staticmethod
    def scalar(values: np.ndarray) -> "TorusField":
        """Real input stays real (float64); complex input stays complex."""
        values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else np.float64)
        return TorusField(values.ndim, values)

    @staticmethod
    def matrix(d: int, values: np.ndarray) -> "TorusField":
        return TorusField(d, np.asarray(values, dtype=complex))

    def require_hermitian(self, tol: float = 1e-12) -> None:
        if not self.is_matrix:
            if np.abs(self.values.imag).max(initial=0.0) > tol:
                raise NonHermitianInput("scalar field has non-real values")
            return
        swap = np.conj(np.swapaxes(self.values, -1, -2))
        dev = np.abs(self.values - swap).max(initial=0.0)
        if dev > tol:
            raise NonHermitianInput(f"Hermitian deviation {dev:.3e} above {tol:.1e}")


@dataclass(frozen=True)
class DyadicRange:
    """Dyadic scale exponents m; the scales are t = 2^m, so lam = 4^m."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.exponents:
            raise DomainError("need at least one scale")
        if any(m < 0 for m in self.exponents):
            raise DomainError("exponents must be >= 0")
        ordered = tuple(sorted(set(self.exponents)))
        object.__setattr__(self, "exponents", ordered)

    def scales(self) -> tuple[int, ...]:
        return tuple(2**m for m in self.exponents)

    def check_side(self, side: int) -> None:
        if 2 * max(self.scales()) >= side:
            raise DomainError(
                f"largest sphere diameter {2 * max(self.scales())} does not fit inside side {side}"
            )


def dft(f: TorusField) -> TorusField:
    """f_hat(k) = sum_x f(x) e^(-2 pi i <x, k>/L) over the torus axes."""
    axes = tuple(range(f.d))
    return TorusField(f.d, np.fft.fftn(f.values, axes=axes))


def idft(f: TorusField) -> TorusField:
    """Inverse of dft (carries the L^-d normalization)."""
    axes = tuple(range(f.d))
    return TorusField(f.d, np.fft.ifftn(f.values, axes=axes))


def frequency_grid(d: int, side: int) -> np.ndarray:
    """Array of shape (side,)*d + (d,): each DFT frequency k/L reduced to [-1/2, 1/2)^d."""
    axis = reduce_to_torus(np.arange(side) / side)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack(mesh, axis=-1)


def _sample_symbol(symbol: Callable[[np.ndarray], np.ndarray], d: int, side: int) -> np.ndarray:
    """The symbol on every DFT frequency of (Z_side)^d, called once; shape (side,)*d."""
    values = np.asarray(symbol(frequency_grid(d, side).reshape(-1, d)))
    if values.shape != (side**d,):
        raise DomainError(f"symbol returned shape {values.shape}, expected ({side**d},)")
    return values.reshape((side,) * d)


def apply_multiplier(f: TorusField, symbol: Callable[[np.ndarray], np.ndarray]) -> TorusField:
    """idft(symbol(k/L) * f_hat): the convolution operator attached to a symbol.

    ``symbol`` maps an (N, d) array whose rows are the L^d frequencies k/L,
    reduced to [-1/2, 1/2)^d, to an (N,) array of values; it is called once,
    and any other result shape raises ``DomainError``.  For Z^d-periodic
    symbols this realizes the same operator as the corresponding lattice
    convolution.
    """
    mult = _sample_symbol(symbol, f.d, f.side)
    if f.is_matrix:
        mult = mult[..., np.newaxis, np.newaxis]
    spectrum = dft(f)
    return idft(TorusField(f.d, mult * spectrum.values))


def _sphere_points(spec: SphereSpec) -> list[tuple[int, ...]]:
    if representation_count(spec) == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    return enumerate_sphere(spec, MAX_SPHERE_POINTS)


def _sphere_symbol(points: list[tuple[int, ...]], d: int, side: int) -> np.ndarray:
    """Real DFT of the normalized sphere indicator, as a read-only half-spectrum.

    The array has the shape of ``rfftn`` over (Z_side)^d: the last torus
    axis keeps frequencies 0..side//2.  Points that coincide mod side
    (possible once 2 sqrt(lam) >= side) add up, so the symbol keeps their
    multiplicity.  The sphere is symmetric under y -> -y, so the transform
    is real; its real part is copied out, so the complex transform is not
    kept alive behind a view.
    """
    from scipy import fft

    weights = np.zeros((side,) * d)
    np.add.at(weights, tuple(np.mod(np.asarray(points), side).T), 1.0 / len(points))
    symbol = np.ascontiguousarray(fft.rfftn(weights).real)
    symbol.flags.writeable = False
    return symbol


def _scale_symbols(d: int, side: int, scales: DyadicRange) -> tuple[np.ndarray, ...]:
    """The sphere symbol of every radius t = 2^m in the range, in ``scales()`` order.

    Built once by a caller that takes the dyadic maximum of many fields on
    the same torus, and passed to ``dyadic_maximal`` as ``symbols=``.  A
    torus over the site budget raises ``InfeasibleScale`` before any allocation.
    """
    _check_sites(d, side)
    return tuple(
        _sphere_symbol(_sphere_points(SphereSpec(d, t * t)), d, side)
        for t in scales.scales()
    )


def _real_view(f: TorusField) -> np.ndarray:
    """The values as float64: complex entries gain a trailing (Re, Im) axis."""
    return f.values[..., np.newaxis].view(np.float64) if np.iscomplexobj(f.values) else f.values


def spherical_average(
    f: TorusField,
    spec: SphereSpec,
    *,
    symbol: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> TorusField:
    """Mean of f(x - y) over the lattice sphere |y|^2 = lam, with wraparound.

    Computed as one real convolution on the Fourier side: the real sphere
    symbol multiplies the half-spectrum of f over the torus axes and
    broadcasts over the trailing axes.  A real scalar field is transformed
    as it is and its average is real.  A complex or matrix field is
    transformed through its float64 view, whose trailing axis of length 2
    holds the real and imaginary parts, and the result is viewed back as
    complex.

    ``symbol`` (the half-spectrum symbol of ``spec`` on this torus) and
    ``spectrum`` (the ``rfftn`` of f's float64 view over the torus axes)
    let ``dyadic_maximal`` build each symbol once per survey and transform
    each field once; a wrong shape raises ``DomainError``.  Neither is
    written to, so one spectrum serves every scale.  These keywords exist
    so that ``dyadic_maximal`` keeps calling this function once per scale;
    they can fold into one private helper once the benchmark's traced
    layers stop counting calls here.
    """
    from scipy import fft

    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    half = (f.side,) * (f.d - 1) + (f.side // 2 + 1,)
    if symbol is None:
        symbol = _sphere_symbol(_sphere_points(spec), f.d, f.side)
    elif symbol.shape != half:
        raise DomainError(f"symbol shape {symbol.shape} is not the half-spectrum shape {half}")
    axes = tuple(range(f.d))
    x = _real_view(f)
    mult = symbol.reshape(symbol.shape + (1,) * (x.ndim - f.d))
    if spectrum is None:
        spectrum = fft.rfftn(x, axes=axes)
        spectrum *= mult
    elif spectrum.shape != half + x.shape[f.d :]:
        raise DomainError(
            f"spectrum shape {spectrum.shape} is not {half + x.shape[f.d:]} for this field"
        )
    else:
        # a fresh product: the shared spectrum serves the other scales
        spectrum = spectrum * mult
    out = fft.irfftn(spectrum, s=(f.side,) * f.d, axes=axes, overwrite_x=True)
    if np.iscomplexobj(f.values):
        out = out.view(complex).reshape(f.values.shape)
    return TorusField(f.d, out)


def discrete_laplacian(f: TorusField, k: int) -> TorusField:
    """f/2 - (f(. + e_k) + f(. - e_k))/4 along coordinate k (1-based).

    On the Fourier side this multiplies by sin^2(pi k_j / L).
    """
    if not 1 <= k <= f.d:
        raise DomainError(f"coordinate index must be in 1..{f.d}, got {k}")
    axis = k - 1
    up = np.roll(f.values, -1, axis=axis)
    down = np.roll(f.values, 1, axis=axis)
    return TorusField(f.d, 0.5 * f.values - 0.25 * (up + down))


def dyadic_maximal(
    f: TorusField,
    scales: DyadicRange,
    *,
    symbols: tuple[np.ndarray, ...] | None = None,
) -> TorusField:
    """Pointwise max of |average at t| over t = 2^m in the range (scalar fields).

    f is transformed once and its half-spectrum is shared by every scale,
    each of which costs one multiply and one inverse transform inside
    ``spherical_average``.  ``symbols`` are the per-scale sphere symbols of
    ``_scale_symbols(f.d, f.side, scales)``, which a survey over many
    fields builds once; without them they are built here, once per scale.
    A tuple of the wrong length raises ``DomainError``.
    """
    from scipy import fft

    if f.is_matrix:
        raise DomainError("the pointwise maximal function is scalar-only")
    scales.check_side(f.side)
    if symbols is None:
        symbols = _scale_symbols(f.d, f.side, scales)
    elif len(symbols) != len(scales.exponents):
        raise DomainError(f"{len(symbols)} symbols for {len(scales.exponents)} scales")
    spectrum = fft.rfftn(_real_view(f), axes=tuple(range(f.d)))
    complex_input = np.iscomplexobj(f.values)
    out = None
    for t, symbol in zip(scales.scales(), symbols):
        avg = spherical_average(f, SphereSpec(f.d, t * t), symbol=symbol, spectrum=spectrum)
        # a real average is a fresh array of this call's own, so it is reused in place
        mag = np.abs(avg.values) if complex_input else np.abs(avg.values, out=avg.values)
        out = mag if out is None else np.maximum(out, mag, out=out)
    return TorusField(f.d, out)


def sign_flip_modulation(f: TorusField) -> TorusField:
    """(-1)^(sum_j x_j) f(x); shifts the spectrum by the half-frequency (L/2) 1."""
    if f.side % 2:
        raise OddSide(f"side {f.side} is odd; the half-shift is not a lattice frequency")
    idx = np.indices(f.values.shape[: f.d]).sum(axis=0)
    signs = np.where(idx % 2 == 0, 1.0, -1.0)
    if f.is_matrix:
        signs = signs[..., np.newaxis, np.newaxis]
    return TorusField(f.d, signs * f.values)


def periodized_multiplier_apply(
    f: TorusField, q: int, base_symbol: Callable[[np.ndarray], np.ndarray]
) -> TorusField:
    """Apply the (1/q)-periodization of a symbol supported in q^-1 Q.

    At each frequency the translated copies have disjoint supports, so the
    periodized value is the base symbol at xi - [[q xi]]/q.  ``base_symbol``
    follows the (N, d) -> (N,) contract of ``apply_multiplier``.
    """
    if q < 1 or f.side % q:
        raise IndivisibleSide(f"q = {q} must divide the side {f.side}")

    def periodized(xis: np.ndarray) -> np.ndarray:
        return base_symbol(xis - np.floor(q * xis + 0.5) / q)

    return apply_multiplier(f, periodized)


def sampled_kernel_apply(
    f: TorusField, q: int, kernel: Callable[[np.ndarray], float]
) -> TorusField:
    """Convolve with the kernel that is q^d * kernel on q Z^d and 0 elsewhere.

    Computed spatially by shifting f through the coarse sublattice, so it is
    an independent route to the periodized multiplier.
    """
    if q < 1 or f.side % q:
        raise IndivisibleSide(f"q = {q} must divide the side {f.side}")
    coarse = f.side // q
    axes = tuple(range(f.d))
    acc = np.zeros_like(f.values)
    scale = float(q) ** f.d
    for idx in np.ndindex(*([coarse] * f.d)):
        shift = tuple(q * i for i in idx)
        weight = scale * float(kernel(np.asarray(shift, dtype=np.int64)))
        if weight != 0.0:
            acc += weight * np.roll(f.values, shift=shift, axis=axes)
    return TorusField(f.d, acc)


def inverse_kernel(
    d: int, side: int, symbol: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], float]:
    """Spatial kernel of a symbol sampled on the (Z_L)^d frequency grid.

    K(y) = L^-d sum_k symbol(k/L) e^(2 pi i <k, y>/L); intended for real
    symmetric symbols, whose kernels are real.  ``symbol`` maps the (L^d, d)
    array of reduced frequencies to an (L^d,) array in one call, as in
    ``apply_multiplier``; any other result shape raises ``DomainError``.
    """
    table = np.fft.ifftn(_sample_symbol(symbol, d, side)).real

    def kernel(y: np.ndarray) -> float:
        return float(table[tuple(np.mod(np.asarray(y, dtype=np.int64), side))])

    return kernel
